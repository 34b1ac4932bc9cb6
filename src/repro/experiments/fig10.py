"""Figure 10 — the effect of ignoring correlations.

For each correlated synthetic dataset (Syn-XOR, Syn-LOW, Syn-MED,
Syn-HIGH) the experiment ranks the tuples twice: once on the and/xor
tree (correlations respected) and once on the independence approximation
that keeps only the marginal probabilities.  The normalized Kendall
distance between the two top-k answers measures how much the
correlations matter; panel (i) sweeps the PRFe ``alpha`` and panel (ii)
compares PRFe(0.9), PT(100) and U-Rank across the datasets.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..andxor.tree import AndXorTree
from ..baselines import pt_ranking, u_rank_topk
from ..core.prf import PRFe
from ..core.ranking import rank
from ..datasets import syn_high, syn_low, syn_med, syn_xor
from ..metrics import kendall_topk_distance
from .harness import ExperimentResult, shared_engine

__all__ = [
    "correlation_gap_prfe",
    "correlation_gap_functions",
    "default_datasets",
    "run_panel_i",
    "run_panel_ii",
]


def default_datasets(n: int, seed: int = 31) -> dict[str, AndXorTree]:
    """The four correlated synthetic datasets of Figure 10."""
    return {
        "Syn-XOR": syn_xor(n, rng=seed),
        "Syn-LOW": syn_low(n, rng=seed + 1),
        "Syn-MED": syn_med(n, rng=seed + 2),
        "Syn-HIGH": syn_high(n, rng=seed + 3),
    }


def correlation_gap_prfe(
    tree: AndXorTree, alphas: Sequence[float], k: int
) -> list[tuple[float, float]]:
    """Kendall distance between correlation-aware and independent PRFe rankings.

    Both sweeps run as single ``rank_many`` calls against the shared
    engine: the tree runs every alpha in one stacked Algorithm 3 walk and
    the independence approximation shares one stacked log-space kernel.
    """
    independent = tree.to_relation()
    specs = [PRFe(float(alpha)) for alpha in alphas]
    engine = shared_engine()
    with_correlations = engine.rank_many(tree, specs)
    without_correlations = engine.rank_many(independent, specs)
    return [
        (
            float(alpha),
            kendall_topk_distance(correlated.top_k(k), approximate.top_k(k), k=k),
        )
        for alpha, correlated, approximate in zip(alphas, with_correlations, without_correlations)
    ]


def correlation_gap_functions(
    tree: AndXorTree, k: int, h: int | None = None
) -> dict[str, float]:
    """Correlation gap of PRFe(0.9), PT(h) and U-Rank on one dataset (panel ii)."""
    independent = tree.to_relation()
    horizon = h or k
    gaps: dict[str, float] = {}
    gaps["PRFe(0.9)"] = kendall_topk_distance(
        rank(tree, PRFe(0.9)).top_k(k), rank(independent, PRFe(0.9)).top_k(k), k=k
    )
    gaps["PT(h)"] = kendall_topk_distance(
        pt_ranking(tree, horizon).top_k(k), pt_ranking(independent, horizon).top_k(k), k=k
    )
    gaps["U-Rank"] = kendall_topk_distance(
        u_rank_topk(tree, k), u_rank_topk(independent, k), k=k
    )
    return gaps


def run_panel_i(
    n: int = 2000,
    k: int = 100,
    alphas: Sequence[float] | None = None,
    seed: int = 31,
) -> ExperimentResult:
    """Regenerate Figure 10(i): correlation gap of PRFe as alpha varies."""
    alphas = np.linspace(0.05, 1.0, 20) if alphas is None else np.asarray(alphas)
    datasets = default_datasets(n, seed=seed)
    curves = {
        name: correlation_gap_prfe(tree, alphas, k) for name, tree in datasets.items()
    }
    headers = ["alpha"] + list(curves)
    rows = []
    for index, alpha in enumerate(alphas):
        row = [float(alpha)]
        row.extend(curves[name][index][1] for name in curves)
        rows.append(row)
    return ExperimentResult(
        name=f"Figure 10(i) — effect of correlations on PRFe (n={n}, k={k})",
        headers=headers,
        rows=rows,
        metadata={"n": n, "k": k},
    )


def run_panel_ii(
    n: int = 800,
    k: int = 100,
    h: int | None = None,
    seed: int = 31,
) -> ExperimentResult:
    """Regenerate Figure 10(ii): correlation gap of PRFe(0.9), PT(h), U-Rank."""
    datasets = default_datasets(n, seed=seed)
    function_labels = ["PRFe(0.9)", "PT(h)", "U-Rank"]
    rows = []
    for name, tree in datasets.items():
        gaps = correlation_gap_functions(tree, k, h=h)
        rows.append([name] + [gaps[label] for label in function_labels])
    return ExperimentResult(
        name=f"Figure 10(ii) — effect of correlations per ranking function (n={n}, k={k})",
        headers=["dataset"] + function_labels,
        rows=rows,
        metadata={"n": n, "k": k},
    )

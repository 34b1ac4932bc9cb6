"""Figure 11 — execution times of the ranking algorithms.

Panel (i): running time of PRFe(0.95), PT(h), U-Rank and E-Rank as the
dataset size grows (for several k).  Panel (ii): exact PT(h) versus its
approximation by a linear combination of L PRFe functions.  Panel (iii):
the same comparison on correlated datasets (Syn-XOR versus Syn-HIGH).

Absolute numbers differ from the paper (pure Python versus the authors'
C++), but the shapes that the paper argues from are preserved: PRFe and
E-Rank are near-linear and insensitive to k, PT(h)/U-Rank grow with h and
k, and the PRFe-combination approximation is far cheaper than exact
PT(h) for large h.
"""

from __future__ import annotations

from typing import Sequence

from ..approx import dft_approximation
from ..baselines import expected_rank_ranking, pt_ranking, u_rank_topk
from ..core.prf import PRFe, PRFOmega
from ..core.ranking import rank
from ..core.weights import StepWeight
from ..datasets import generate_iip_like, syn_high, syn_xor
from .harness import ExperimentResult, fresh_engine, timed

__all__ = ["time_functions", "run_panel_i", "run_panel_ii", "run_panel_iii"]


def _cold(function):
    """Time one ranking against a cache-cold engine.

    Every correlation model caches intermediates in the engine now, so a
    shared engine would hand whichever algorithm runs second its
    predecessor's sorted order and matrices for free.
    """
    with fresh_engine():
        return timed(function)


def time_functions(
    data, k: int, h: int | None = None, alpha: float = 0.95
) -> dict[str, float]:
    """Wall-clock seconds of the four Figure 11(i) ranking functions on ``data``.

    The PT column is labelled ``PT(h=k)`` regardless of the actual k so that
    rows for different k can be tabulated under common headers.
    """
    horizon = h or k
    timings: dict[str, float] = {}
    # Each algorithm is timed against its own cache-cold engine; rank()
    # and the baselines route through the swapped default engine.
    _, timings[f"PRFe({alpha})"] = _cold(lambda: rank(data, PRFe(alpha)).top_k(k))
    _, timings["PT(h=k)"] = _cold(lambda: pt_ranking(data, horizon).top_k(k))
    _, timings["U-Rank"] = _cold(lambda: u_rank_topk(data, k))
    _, timings["E-Rank"] = _cold(lambda: expected_rank_ranking(data).top_k(k))
    return timings


def run_panel_i(
    sizes: Sequence[int] = (5_000, 10_000, 20_000, 50_000),
    ks: Sequence[int] = (10, 50, 100),
    seed: int = 41,
) -> ExperimentResult:
    """Regenerate Figure 11(i): execution time vs dataset size and k."""
    rows = []
    for size in sizes:
        relation = generate_iip_like(size, rng=seed)
        for k in ks:
            timings = time_functions(relation, k=k, h=k)
            rows.append(
                [int(size), int(k)]
                + [timings[label] for label in timings]
            )
    labels = list(time_functions(generate_iip_like(100, rng=seed), k=10, h=10))
    return ExperimentResult(
        name="Figure 11(i) — execution time (seconds) vs dataset size and k",
        headers=["n", "k"] + labels,
        rows=rows,
        metadata={"sizes": list(sizes), "ks": list(ks)},
    )


def _time_exact_vs_approx(data, h: int, k: int, term_counts: Sequence[int]) -> dict[str, float]:
    timings: dict[str, float] = {}
    _, timings[f"PT({h}) exact"] = _cold(lambda: rank(data, PRFOmega(StepWeight(h))).top_k(k))
    for num_terms in term_counts:
        approximation = dft_approximation(StepWeight(h), num_terms=num_terms, support=h)
        rf = approximation.to_ranking_function()
        _, timings[f"w{num_terms}"] = _cold(lambda rf=rf: rank(data, rf).top_k(k))
    return timings


def run_panel_ii(
    sizes: Sequence[int] = (10_000, 20_000, 50_000),
    h: int = 1000,
    k: int = 1000,
    term_counts: Sequence[int] = (20, 50, 100),
    seed: int = 43,
) -> ExperimentResult:
    """Regenerate Figure 11(ii): exact PT(h) vs the L-term PRFe approximation."""
    rows = []
    labels: list[str] | None = None
    for size in sizes:
        relation = generate_iip_like(size, rng=seed)
        timings = _time_exact_vs_approx(relation, h=h, k=k, term_counts=term_counts)
        labels = list(timings)
        rows.append([int(size)] + [timings[label] for label in labels])
    return ExperimentResult(
        name=f"Figure 11(ii) — exact PT({h}) vs PRFe-combination approximation (seconds)",
        headers=["n"] + (labels or []),
        rows=rows,
        metadata={"sizes": list(sizes), "h": h, "k": k, "term_counts": list(term_counts)},
    )


def run_panel_iii(
    sizes: Sequence[int] = (500, 1000, 2000),
    h: int = 100,
    k: int = 100,
    term_counts: Sequence[int] = (20, 50),
    seed: int = 47,
) -> ExperimentResult:
    """Regenerate Figure 11(iii): correlated datasets (Syn-XOR vs Syn-HIGH)."""
    rows = []
    labels: list[str] | None = None
    for size in sizes:
        for dataset_name, factory in (("Syn-XOR", syn_xor), ("Syn-HIGH", syn_high)):
            tree = factory(size, rng=seed)
            timings: dict[str, float] = {}
            # Cache-cold per algorithm: the tree backend memoizes PRFe
            # values and positional matrices, so a shared engine would hand
            # whichever algorithm runs second its predecessor's work.
            _, timings[f"PT({h})"] = _cold(
                lambda: rank(tree, PRFOmega(StepWeight(h))).top_k(k)
            )
            for num_terms in term_counts:
                approximation = dft_approximation(StepWeight(h), num_terms=num_terms, support=h)
                rf = approximation.to_ranking_function()
                _, timings[f"w{num_terms}"] = _cold(lambda rf=rf: rank(tree, rf).top_k(k))
            _, timings["PRFe"] = _cold(lambda: rank(tree, PRFe(0.95)).top_k(k))
            labels = list(timings)
            rows.append([int(size), dataset_name] + [timings[label] for label in labels])
    return ExperimentResult(
        name=f"Figure 11(iii) — execution time on correlated datasets (seconds, h={h})",
        headers=["n", "dataset"] + (labels or []),
        rows=rows,
        metadata={"sizes": list(sizes), "h": h, "k": k, "term_counts": list(term_counts)},
    )

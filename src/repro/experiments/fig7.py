"""Figure 7 — how well PRFe(alpha) approximates the other ranking functions.

For ``alpha = 1 - 0.9**i`` the paper plots the normalized Kendall
distance between the PRFe(alpha) top-100 and the top-100 of Score,
Probability, E-Score, PT(100), U-Rank, E-Rank and U-Top, on the IIP data
and on Syn-IND-1000.  Every curve exhibits a "valley": some alpha makes
PRFe agree closely with each prior function.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..baselines import (
    expected_rank_ranking,
    expected_score_ranking,
    pt_ranking,
    u_rank_topk,
    u_topk,
)
from ..core.prf import PRFe
from ..metrics import kendall_topk_distance
from .harness import ExperimentResult, shared_engine

__all__ = ["reference_answers", "prfe_distance_curves", "run", "alpha_grid"]


def alpha_grid(num_points: int = 60, base: float = 0.9) -> np.ndarray:
    """The paper's alpha grid ``alpha = 1 - base**i`` for ``i = 0 .. num_points``."""
    exponents = np.arange(num_points + 1, dtype=float)
    return 1.0 - base ** exponents


def reference_answers(data, k: int) -> dict[str, list]:
    """Top-k answers of the Figure 7 reference ranking functions."""
    tuples = shared_engine().sorted_tuples(data)
    by_score = [t.tid for t in tuples][:k]
    by_probability = [
        t.tid
        for t in sorted(tuples, key=lambda t: (-t.probability, -t.score, str(t.tid)))
    ][:k]
    answers: dict[str, list] = {
        "Score": by_score,
        "Prob": by_probability,
        "E-Score": expected_score_ranking(data).top_k(k),
        "PT(h)": pt_ranking(data, k).top_k(k),
        "U-Rank": u_rank_topk(data, k),
        "E-Rank": expected_rank_ranking(data).top_k(k),
        "U-Top": u_topk(data, k),
    }
    return answers


def prfe_distance_curves(
    data,
    k: int,
    alphas: Sequence[float] | None = None,
    references: dict[str, list] | None = None,
) -> dict[str, list[tuple[float, float]]]:
    """Kendall distance of PRFe(alpha) to each reference function, per alpha."""
    alphas = alpha_grid() if alphas is None else np.asarray(alphas, dtype=float)
    references = references or reference_answers(data, k)
    curves: dict[str, list[tuple[float, float]]] = {name: [] for name in references}
    specs = [PRFe(float(alpha)) for alpha in alphas]
    # One engine sweep regardless of correlation model: independent
    # relations share the stacked log-space kernel, trees share the sorted
    # order and one stacked Algorithm 3 walk, networks the calibrated
    # junction tree.
    answers = [result.top_k(k) for result in shared_engine().rank_many(data, specs)]
    for alpha, prfe_topk in zip(alphas, answers):
        for name, answer in references.items():
            distance = kendall_topk_distance(prfe_topk, answer, k=k)
            curves[name].append((float(alpha), distance))
    return curves


def run(
    data,
    k: int = 100,
    num_points: int = 40,
    dataset_name: str = "",
) -> ExperimentResult:
    """Regenerate one panel of Figure 7 for the given dataset."""
    alphas = alpha_grid(num_points)
    curves = prfe_distance_curves(data, k, alphas=alphas)
    headers = ["i", "alpha"] + list(curves)
    rows = []
    for index, alpha in enumerate(alphas):
        row = [int(index), float(alpha)]
        row.extend(curves[name][index][1] for name in curves)
        rows.append(row)
    minima = {name: min(values, key=lambda pair: pair[1]) for name, values in curves.items()}
    return ExperimentResult(
        name=f"Figure 7 — Kendall distance of PRFe(alpha) to other functions ({dataset_name})",
        headers=headers,
        rows=rows,
        metadata={"k": k, "dataset": dataset_name, "minima": minima},
    )

"""k-selection queries (Liu et al.).

A k-selection query returns the set of ``k`` tuples maximizing the
expected score of the *best available* tuple across the possible worlds.
Section 3.3 of the paper observes that the corresponding per-tuple
ranking value is the PRF function with ``omega(t, i) = delta(i = 1) *
score(t)``, i.e. ``score(t) * Pr(r(t) = 1)``; this module exposes both
that ranking view and the set-level objective so the equivalence can be
exercised in tests and experiments.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..core.prf import PRF
from ..core.ranking import rank
from ..core.result import RankingResult
from ..core.weights import PositionWeight
from ..core.tuples import ProbabilisticRelation

__all__ = [
    "k_selection_ranking",
    "k_selection",
    "expected_best_score",
    "greedy_k_selection",
]


def _k_selection_rf() -> PRF:
    return PRF(PositionWeight(1), tuple_factor=lambda t: t.score)


def k_selection_ranking(data, name: str = "k-selection") -> RankingResult:
    """Full ranking by ``score(t) * Pr(r(t) = 1)``."""
    return rank(data, _k_selection_rf(), name=name)


def k_selection(data, k: int) -> list[Any]:
    """The ``k`` tuples with the largest ``score(t) * Pr(r(t) = 1)`` values."""
    return k_selection_ranking(data).top_k(k)


def expected_best_score(relation: ProbabilisticRelation, selection: Iterable[Any]) -> float:
    """Expected score of the best *present* tuple within ``selection``.

    The set-level objective of the original k-selection definition,
    evaluated exactly for independent tuples: the best present tuple of
    ``S`` is ``t`` exactly when ``t`` is present and every higher-score
    member of ``S`` is absent.
    """
    chosen = set(selection)
    expected = 0.0
    none_better = 1.0
    for t in relation.sorted_by_score():
        if t.tid not in chosen:
            continue
        expected += t.score * t.probability * none_better
        none_better *= 1.0 - t.probability
    return expected


def greedy_k_selection(relation: ProbabilisticRelation, k: int) -> list[Any]:
    """Greedy maximization of :func:`expected_best_score`.

    The expected-best-score objective is monotone submodular over tuple
    sets, so the greedy selection is a (1 - 1/e)-approximation; it is used
    in tests and benchmarks as the set-level comparison point for the
    PRF-style :func:`k_selection` ranking.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    remaining = [t.tid for t in relation.sorted_by_score()]
    selection: list[Any] = []
    for _ in range(min(k, len(remaining))):
        best_tid = None
        best_gain = -1.0
        current = expected_best_score(relation, selection)
        for tid in remaining:
            gain = expected_best_score(relation, selection + [tid]) - current
            if gain > best_gain:
                best_gain = gain
                best_tid = tid
        selection.append(best_tid)
        remaining.remove(best_tid)
    return selection

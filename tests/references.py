"""Direct reference implementations that the tests hold the library to.

Each function here evaluates one quantity by its own arithmetic, the way
the paper states it, instead of through the engine that ``src/`` routes
it through:

* the Section 3 baselines — PT(h) as row sums of the positional matrix,
  U-Rank as a Python ``max`` per position, E-Rank from its closed forms
  and one generating function per tuple — with eager
  :meth:`~repro.core.result.RankingResult.from_values` rankings;
* the Section 9.3 forward dynamic program over a
  :class:`~repro.graphical.markov_chain.MarkovChainRelation`, run per
  tuple without a junction tree.

The possible-worlds oracle (``tests/conftest.assert_matches_oracle``)
checks these at small ``n``; the references check the engine-backed
functions at any ``n``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.andxor.generating import (
    LABEL_X,
    LABEL_Y,
    generating_function,
    positional_distribution,
)
from repro.andxor.tree import AndXorTree
from repro.core.prf import RankingFunction
from repro.core.result import RankingResult
from repro.core.tuples import ProbabilisticRelation, Tuple
from repro.engine import default_engine

# ----------------------------------------------------------------------
# Section 3 baselines
# ----------------------------------------------------------------------


def pt_values(data, h: int) -> dict[Any, float]:
    """``Pr(r(t) <= h)`` per tuple identifier: positional-matrix row sums."""
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    ordered, matrix = default_engine().positional_matrix(data, max_rank=h)
    totals = matrix.sum(axis=1)
    return {t.tid: float(totals[i]) for i, t in enumerate(ordered)}


def pt_ranking(data, h: int, name: str | None = None) -> RankingResult:
    """Full ranking by decreasing ``Pr(r(t) <= h)``."""
    ordered = default_engine().sorted_tuples(data)
    values = pt_values(data, h)
    return RankingResult.from_values(
        ordered, [values[t.tid] for t in ordered], name=name or f"PT({h})"
    )


def u_rank_assignment(data, k: int, distinct: bool = True) -> list[tuple[Any, float]]:
    """U-Rank ``(tid, Pr(r(t) = position))`` pairs by a Python ``max`` per position."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ordered, matrix = default_engine().positional_matrix(data, max_rank=k)
    n = len(ordered)
    answer: list[tuple[Any, float]] = []
    used: set[int] = set()
    for position in range(min(k, n)):
        column = matrix[:, position]
        candidates = [i for i in range(n) if not (distinct and i in used)]
        best = max(candidates, key=lambda i: (column[i], ordered[i].score))
        used.add(best)
        answer.append((ordered[best].tid, float(column[best])))
    return answer


def _expected_ranks_independent(relation: ProbabilisticRelation) -> dict[Any, float]:
    ordered = relation.sorted_by_score()
    probabilities = np.array([t.probability for t in ordered], dtype=float)
    total = float(probabilities.sum())
    prefix = np.concatenate(([0.0], np.cumsum(probabilities)[:-1]))
    er1 = probabilities * (1.0 + prefix)
    er2 = (1.0 - probabilities) * (total - probabilities)
    return {t.tid: float(er1[i] + er2[i]) for i, t in enumerate(ordered)}


def _expected_ranks_tree(tree: AndXorTree) -> dict[Any, float]:
    ordered = tree.sorted_tuples()
    values: dict[Any, float] = {}
    all_x = {t.tid: LABEL_X for t in ordered}
    for t in ordered:
        distribution = positional_distribution(tree, t.tid)
        er1 = float(np.dot(distribution, np.arange(distribution.size, dtype=float)))
        labels = dict(all_x)
        labels[t.tid] = LABEL_Y
        poly = generating_function(tree, labels)
        er2 = float(np.dot(poly.a, np.arange(poly.a.size, dtype=float)))
        values[t.tid] = er1 + er2
    return values


def expected_rank_values(data) -> dict[Any, float]:
    """Expected rank per tuple identifier, per tuple from its decomposition."""
    if isinstance(data, ProbabilisticRelation):
        return _expected_ranks_independent(data)
    if isinstance(data, AndXorTree):
        return _expected_ranks_tree(data)
    raise TypeError(f"unsupported dataset type {type(data).__name__}")


def expected_rank_ranking(data, name: str = "E-Rank") -> RankingResult:
    """Full ranking by increasing expected rank (values are negated ranks)."""
    ordered = default_engine().sorted_tuples(data)
    values = expected_rank_values(data)
    negated = [-values[t.tid] for t in ordered]
    return RankingResult.from_values(ordered, negated, name=name, sort_keys=negated)


# ----------------------------------------------------------------------
# Section 9.3: the Markov-chain forward dynamic program
# ----------------------------------------------------------------------


def chain_sorted_tuples(chain) -> list[Tuple]:
    """The chain's tuples by descending score, ties in chain order."""
    indexed = list(enumerate(chain.tuples))
    indexed.sort(key=lambda pair: (-pair[1].score, pair[0]))
    return [t for _, t in indexed]


def chain_rank_distribution(chain, tid: Any, max_rank: int | None = None) -> np.ndarray:
    """``Pr(r(t) = j)`` of one chain tuple (index 0 unused), by the forward DP.

    ``forward[y, c]`` is the probability that the chain prefix is
    consistent with the evidence (``t`` present), ends in state ``y`` and
    holds ``c`` present tuples that outrank ``t``.
    """
    tuples = chain.tuples
    chain_index = next((i for i, t in enumerate(tuples) if t.tid == tid), None)
    if chain_index is None:
        raise KeyError(f"no tuple with identifier {tid!r}")
    outranks = set()
    for t in chain_sorted_tuples(chain):
        if t.tid == tid:
            break
        outranks.add(t.tid)
    deltas = [1 if t.tid in outranks else 0 for t in tuples]

    m = len(tuples)
    limit = m if max_rank is None else min(int(max_rank), m)
    forward = np.zeros((2, m + 1), dtype=float)
    forward[0, 0] = 1.0 - chain.initial
    forward[1, deltas[0]] = chain.initial
    if chain_index == 0:
        forward[0, :] = 0.0
    for j in range(1, m):
        matrix = chain.transitions[j - 1]
        updated = np.zeros_like(forward)
        for new_value in (0, 1):
            shift = deltas[j] * new_value
            incoming = forward[0] * matrix[0, new_value] + forward[1] * matrix[1, new_value]
            if shift:
                updated[new_value, shift:] += incoming[:-shift]
            else:
                updated[new_value] += incoming
        if j == chain_index:
            updated[0, :] = 0.0
        forward = updated
    counts = forward.sum(axis=0)
    distribution = np.zeros(limit + 1, dtype=float)
    distribution[1 : limit + 1] = counts[:limit]
    return distribution


def chain_positional_probabilities(
    chain, max_rank: int | None = None
) -> tuple[list[Tuple], np.ndarray]:
    """Every chain tuple's rank distribution, rows in score order."""
    ordered = chain_sorted_tuples(chain)
    limit = len(ordered) if max_rank is None else min(int(max_rank), len(ordered))
    matrix = np.zeros((len(ordered), limit), dtype=float)
    for i, t in enumerate(ordered):
        matrix[i, :] = chain_rank_distribution(chain, t.tid, max_rank=limit)[1:]
    return ordered, matrix


def chain_rank(chain, rf: RankingFunction, name: str = "") -> RankingResult:
    """Rank a chain's tuples by ``rf`` over the forward-DP positional matrix."""
    ordered, matrix = chain_positional_probabilities(chain, max_rank=rf.weight.horizon)
    values = rf.evaluate_positional(ordered, matrix)
    return RankingResult.from_values(ordered, values.tolist(), name=name or chain.name)

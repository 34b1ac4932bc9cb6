"""Uncertain Top-k (U-Top) ranking (Soliman, Ilyas, Chang).

U-Top returns the k-tuple *set* (with its within-set score order) that
appears as the top-k answer in the largest total probability mass of
possible worlds.

For tuple-independent relations the exact answer is computed with an
O(n k) dynamic program over the score-descending order: the top-k answer
of a world is exactly its first k present tuples, so the probability that
an ordered prefix set ``S`` with lowest-score member ``i_k`` is the
answer equals ``prod_{i in S} p_i * prod_{i < i_k, i not in S} (1 - p_i)``.
The DP maximizes that product left to right.

For correlated datasets (and/xor trees) exact evaluation is intractable
in general, so a Monte-Carlo estimator over sampled worlds is provided;
tests validate it against exhaustive enumeration on small trees.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from ..algorithms.montecarlo import estimate_topk_set_probabilities
from ..andxor.tree import AndXorTree
from ..core.possible_worlds import PossibleWorld, sample_worlds
from ..core.tuples import ProbabilisticRelation

__all__ = ["u_topk", "u_topk_independent", "u_topk_monte_carlo", "topk_answer_probability"]


def u_topk_independent(relation: ProbabilisticRelation, k: int) -> tuple[list[Any], float]:
    """Exact U-Top answer for a tuple-independent relation.

    Returns ``(answer, probability)`` where ``answer`` lists the chosen
    tuple identifiers in descending score order and ``probability`` is the
    total probability of the worlds whose top-k answer equals it.  Worlds
    with fewer than ``k`` present tuples are not candidate answers (the
    usual convention when ``k`` is far below the expected world size).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ordered = relation.sorted_by_score()
    n = len(ordered)
    if n < k:
        raise ValueError(f"cannot form a top-{k} answer from {n} tuples")
    probabilities = np.array([t.probability for t in ordered], dtype=float)

    # previous[j]: best probability of choosing exactly j tuples among the
    # scanned prefix with every unchosen scanned tuple absent.  choice[i, j]
    # remembers whether tuple i was chosen in the optimum ending at state
    # (i scanned, j chosen), for backtracking.
    previous = np.zeros(k + 1, dtype=float)
    previous[0] = 1.0
    previous[1:] = -1.0
    choice = np.zeros((n, k + 1), dtype=bool)
    best_value = -1.0
    best_last = -1

    for i in range(n):
        p = probabilities[i]
        # Candidate answer: tuple i is the k-th (lowest-score) member.
        if previous[k - 1] > 0.0:
            candidate = p * previous[k - 1]
            if candidate > best_value:
                best_value = candidate
                best_last = i
        current = np.empty_like(previous)
        for j in range(k + 1):
            skip = previous[j] * (1.0 - p) if previous[j] >= 0.0 else -1.0
            take = previous[j - 1] * p if j >= 1 and previous[j - 1] >= 0.0 else -1.0
            if take > skip:
                current[j] = take
                choice[i, j] = True
            else:
                current[j] = skip
        previous = current

    if best_last < 0 or best_value <= 0.0:
        raise ValueError("no top-k answer has positive probability")

    # Backtrack the optimal (k-1)-subset among the tuples before best_last.
    answer_indices = [best_last]
    j = k - 1
    for i in range(best_last - 1, -1, -1):
        if j == 0:
            break
        if choice[i, j]:
            answer_indices.append(i)
            j -= 1
    answer_indices.reverse()
    answer = [ordered[i].tid for i in answer_indices]
    return answer, topk_answer_probability(relation, answer)


def topk_answer_probability(relation: ProbabilisticRelation, answer: Sequence[Any]) -> float:
    """Probability that ``answer`` (a set of tuple ids) is the exact top-k prefix."""
    ordered = relation.sorted_by_score()
    chosen = set(answer)
    positions = [i for i, t in enumerate(ordered) if t.tid in chosen]
    if len(positions) != len(chosen):
        raise KeyError("answer contains unknown tuple identifiers")
    last = max(positions) if positions else -1
    probability = 1.0
    for i, t in enumerate(ordered):
        if i > last:
            break
        if t.tid in chosen:
            probability *= t.probability
        else:
            probability *= 1.0 - t.probability
    return probability


def _draw_worlds(
    data, num_samples: int, rng: np.random.Generator | int | None = None
) -> Iterator[PossibleWorld]:
    """Sample possible worlds of an independent relation or an and/xor tree."""
    if isinstance(data, ProbabilisticRelation):
        return sample_worlds(data, num_samples, rng=rng)
    if isinstance(data, AndXorTree):
        return data.sample_worlds(num_samples, rng=rng)
    raise TypeError(f"unsupported dataset type {type(data).__name__}")


def u_topk_monte_carlo(
    data,
    k: int,
    num_samples: int = 20_000,
    rng: np.random.Generator | int | None = None,
) -> tuple[list[Any], float]:
    """Monte-Carlo U-Top estimate for arbitrary (correlated) datasets.

    Samples ``num_samples`` worlds, tallies the ordered top-k prefixes and
    returns the most frequent one with its estimated probability.
    """
    worlds = _draw_worlds(data, num_samples, rng=rng)
    totals = estimate_topk_set_probabilities(worlds, k)
    if not totals:
        raise ValueError("no worlds sampled")
    answer, probability = max(
        totals.items(), key=lambda pair: (pair[1], tuple(map(str, pair[0])))
    )
    return list(answer), float(probability)


def u_topk(
    data,
    k: int,
    num_samples: int = 20_000,
    rng: np.random.Generator | int | None = None,
) -> list[Any]:
    """U-Top answer: exact for independent relations, Monte-Carlo otherwise."""
    if isinstance(data, ProbabilisticRelation):
        answer, _ = u_topk_independent(data, k)
        return answer
    answer, _ = u_topk_monte_carlo(data, k, num_samples=num_samples, rng=rng)
    return answer

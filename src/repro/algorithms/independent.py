"""Generating-function ranking algorithms for tuple-independent relations.

This module implements the algorithms of Section 4.1 and 4.3 of the paper
as single-relation calls of the engine, which is the one evaluator of the
model:

* :func:`positional_probabilities` — the O(n * max_rank) computation of the
  feature matrix ``Pr(r(t_i) = j)`` via the prefix generating function
  ``F^i(x)`` of Equation (2) / Algorithm 1;
* :func:`prfe_values` / :func:`prfe_log_values` — the O(n) PRFe closed
  form (Equation 3), directly and in log space;
* :func:`rank_independent` — the top-level ranking entry point for
  independent relations, ``Engine().rank``.

The first three are batch-of-one calls of :mod:`repro.engine.kernels`.
All of them operate on the canonical score-descending order provided by
:meth:`ProbabilisticRelation.sorted_by_score`, so "rank j" always means
"exactly j - 1 higher-score tuples are present and the tuple itself is
present".
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.prf import RankingFunction
from ..core.result import RankingResult
from ..core.tuples import ProbabilisticRelation, Tuple
from ..engine import Engine
from ..engine.kernels import (
    batched_prefix_matrices,
    batched_prfe_log_values,
    batched_prfe_values,
    clamped_limit,
)

__all__ = [
    "positional_probabilities",
    "prefix_polynomial_matrix",
    "rank_distributions",
    "prfe_values",
    "prfe_log_values",
    "rank_independent",
]


def _sorted_probabilities(relation: ProbabilisticRelation) -> tuple[list[Tuple], np.ndarray]:
    """The score-descending tuples and their probabilities as a ``(1, n)`` stack."""
    ordered = relation.sorted_by_score()
    return ordered, np.array([[t.probability for t in ordered]], dtype=float)


def prefix_polynomial_matrix(probabilities: np.ndarray, limit: int) -> np.ndarray:
    """Prefix generating-function coefficients for every score-sorted prefix.

    Row ``i`` holds the coefficients of ``F^i(x) = prod_{l < i}
    (1 - p_l + p_l x)`` (Equation 2) truncated to degree ``limit - 1``, so
    ``matrix[i, m] = Pr(exactly m of the i higher-score tuples are present)``.
    The positional-probability matrix of :func:`positional_probabilities` is
    ``prefix_polynomial_matrix(p, limit) * p[:, None]``.

    It is the batch-of-one case of
    :func:`repro.engine.kernels.batched_prefix_matrices`, so it stops at
    the first row whose truncated prefix is exactly zero and costs
    ``O(n* limit)``; the rows after it are zero.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    return batched_prefix_matrices(probabilities[None, :], limit)[0]


def positional_probabilities(
    relation: ProbabilisticRelation,
    max_rank: int | None = None,
) -> tuple[list[Tuple], np.ndarray]:
    """Positional probabilities ``Pr(r(t_i) = j)`` for every tuple.

    Parameters
    ----------
    relation:
        A tuple-independent probabilistic relation.
    max_rank:
        If given, only ranks ``1 .. max_rank`` are computed, which lowers
        the cost from O(n^2) to O(n * max_rank).  This is the path used by
        PT(h), U-Rank and the learning features.

    Returns
    -------
    (sorted_tuples, matrix):
        ``sorted_tuples`` is the score-descending tuple order and
        ``matrix[i, j - 1] = Pr(r(sorted_tuples[i]) = j)`` for
        ``j = 1 .. min(max_rank, n)``.  The matrix always has exactly
        ``min(max_rank, n)`` columns (``n`` when ``max_rank`` is omitted):
        an empty relation yields shape ``(0, 0)``, ``max_rank=0`` yields
        ``(n, 0)``, and all-zero-probability tuples yield an all-zero
        matrix — none of these degenerate inputs warn or raise.
    """
    ordered, P = _sorted_probabilities(relation)
    n = len(ordered)
    limit = clamped_limit(n, max_rank)
    prefix = prefix_polynomial_matrix(P[0], limit)
    if n == 0 or limit == 0:
        return ordered, prefix
    return ordered, prefix * P[0][:, None]


def rank_distributions(
    relation: ProbabilisticRelation, max_rank: int | None = None
) -> dict[Any, np.ndarray]:
    """Rank distributions keyed by tuple id.

    ``result[tid][j]`` is ``Pr(r(t) = j)`` for 1-based ``j``; index 0 is zero.
    """
    ordered, matrix = positional_probabilities(relation, max_rank=max_rank)
    distributions: dict[Any, np.ndarray] = {}
    for i, t in enumerate(ordered):
        padded = np.zeros(matrix.shape[1] + 1, dtype=float)
        padded[1:] = matrix[i]
        distributions[t.tid] = padded
    return distributions


def prfe_log_values(
    relation: ProbabilisticRelation, alpha: float
) -> tuple[list[Tuple], np.ndarray]:
    """Log-magnitudes of PRFe(alpha) values for a real ``alpha`` in (0, 1].

    The PRFe value of the i-th score-sorted tuple is
    ``F^i(alpha) = prod_{l < i}(1 - p_l + p_l alpha) * p_i * alpha``
    (Equation 3).  On large datasets the product underflows, so ordering is
    done on logarithms; this helper exposes them directly.

    Returns ``(sorted_tuples, log_values)`` where absent-probability tuples
    (``p_i = 0``) get ``-inf``.
    """
    ordered, P = _sorted_probabilities(relation)
    return ordered, batched_prfe_log_values(P, alpha)[0]


def prfe_values(
    relation: ProbabilisticRelation, alpha: complex
) -> tuple[list[Tuple], np.ndarray]:
    """PRFe(alpha) values ``F^i(alpha)`` for every tuple (complex ``alpha`` allowed).

    Returns ``(sorted_tuples, values)`` with values aligned to the sorted order.
    This is the O(n) evaluation of Section 4.3 (after sorting).
    """
    ordered, P = _sorted_probabilities(relation)
    return ordered, batched_prfe_values(P, alpha)[0]


def rank_independent(
    relation: ProbabilisticRelation,
    rf: RankingFunction,
    name: str = "",
) -> RankingResult:
    """Rank an independent relation by any PRF-family ranking function.

    ``Engine().rank(relation, rf, name=name)``: the engine picks the
    evaluation strategy, and the result orders tuples by decreasing
    ``|Upsilon(t)|`` with the package-wide deterministic tie-breaking.
    """
    return Engine().rank(relation, rf, name=name)


"""Generating-function ranking algorithms for tuple-independent relations.

This module implements the algorithms of Section 4.1 and 4.3 of the paper:

* :func:`positional_probabilities` — the O(n * max_rank) computation of the
  feature matrix ``Pr(r(t_i) = j)`` via the prefix generating function
  ``F^i(x)`` of Equation (2) / Algorithm 1;
* :func:`prf_values` — PRF values for every tuple, automatically choosing
  between the O(n* h) general path (the engine's one exact kernel, which
  stops at the first all-zero prefix row ``n*``; ``h = n`` when the weight
  is unbounded), the O(n) PRFe path and the O(n L) linear-combination path;
* :func:`rank_independent` — the top-level ranking entry point for
  independent relations, returning a :class:`~repro.core.result.RankingResult`.

All algorithms operate on the canonical score-descending order provided by
:meth:`ProbabilisticRelation.sorted_by_score`, so "rank j" always means
"exactly j - 1 higher-score tuples are present and the tuple itself is
present".
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..core.prf import (
    LinearCombinationPRFe,
    PRFe,
    RankingFunction,
)
from ..core.result import RankingResult
from ..core.tuples import ProbabilisticRelation, Tuple

__all__ = [
    "positional_probabilities",
    "prefix_polynomial_matrix",
    "general_weights",
    "rank_distributions",
    "prf_values",
    "prfe_values",
    "prfe_log_values",
    "rank_independent",
    "uses_log_space",
]

_LOG_EPS = 1e-300


def uses_log_space(rf: RankingFunction) -> bool:
    """Whether ``rf`` is a PRFe spec evaluated on the log-space fast path.

    The single source of truth for this dispatch decision — the engine's
    batched paths must route exactly the specs that :func:`prf_values`
    routes, or their orderings diverge on underflowing datasets.
    """
    if not isinstance(rf, PRFe):
        return False
    alpha = rf.alpha
    return isinstance(alpha, float) and 0.0 < alpha <= 1.0


def _resolve_limit(n: int, max_rank: int | None) -> int:
    """Number of rank columns to materialize: ``min(max_rank, n)``, validated."""
    if max_rank is None:
        return n
    limit = int(max_rank)
    if limit != max_rank:
        raise ValueError(f"max_rank must be an integer, got {max_rank!r}")
    if limit < 0:
        raise ValueError(f"max_rank must be non-negative, got {max_rank}")
    return min(limit, n)


def prefix_polynomial_matrix(probabilities: np.ndarray, limit: int) -> np.ndarray:
    """Prefix generating-function coefficients for every score-sorted prefix.

    Row ``i`` holds the coefficients of ``F^i(x) = prod_{l < i}
    (1 - p_l + p_l x)`` (Equation 2) truncated to degree ``limit - 1``, so
    ``matrix[i, m] = Pr(exactly m of the i higher-score tuples are present)``.
    The positional-probability matrix of :func:`positional_probabilities` is
    ``prefix_polynomial_matrix(p, limit) * p[:, None]``; the general PRF
    evaluation is a weighted row sum.  This is the shared hot intermediate
    cached and batched by :mod:`repro.engine`.

    It is the batch-of-one case of
    :func:`repro.engine.kernels.batched_prefix_matrices`, so it stops at
    the first row whose truncated prefix is exactly zero and costs
    ``O(n* limit)``; the rows after it are zero.
    """
    # Imported here: repro.engine imports this module through its backends.
    from ..engine.kernels import batched_prefix_matrices

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
    ordered = relation.sorted_by_score()
    n = len(ordered)
    limit = _resolve_limit(n, max_rank)
    probabilities = np.array([t.probability for t in ordered], dtype=float)
    prefix = prefix_polynomial_matrix(probabilities, limit)
    if n == 0 or limit == 0:
        return ordered, prefix
    return ordered, prefix * probabilities[:, None]


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
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"log-space PRFe evaluation requires 0 < alpha <= 1, got {alpha}")
    ordered = relation.sorted_by_score()
    probabilities = np.array([t.probability for t in ordered], dtype=float)
    factors = 1.0 - probabilities + probabilities * alpha
    # Guard exact zeros (possible when alpha == 0 is excluded, but a factor can
    # still be zero if p == 1 and alpha == 0); clamp for the log.
    log_factors = np.log(np.maximum(factors, _LOG_EPS))
    prefix_log = np.concatenate(([0.0], np.cumsum(log_factors)[:-1]))
    with np.errstate(divide="ignore"):
        log_probabilities = np.where(
            probabilities > 0.0, np.log(np.maximum(probabilities, _LOG_EPS)), -np.inf
        )
    log_values = prefix_log + log_probabilities + math.log(max(alpha, _LOG_EPS))
    return ordered, log_values


def prfe_values(
    relation: ProbabilisticRelation, alpha: complex
) -> tuple[list[Tuple], np.ndarray]:
    """PRFe(alpha) values ``F^i(alpha)`` for every tuple (complex ``alpha`` allowed).

    Returns ``(sorted_tuples, values)`` with values aligned to the sorted order.
    This is the O(n) evaluation of Section 4.3 (after sorting).
    """
    ordered = relation.sorted_by_score()
    probabilities = np.array([t.probability for t in ordered], dtype=float)
    is_complex = isinstance(alpha, complex) and alpha.imag != 0.0
    dtype = complex if is_complex else float
    alpha_value = complex(alpha) if is_complex else float(np.real(alpha))
    factors = (1.0 - probabilities) + probabilities * alpha_value
    factors = factors.astype(dtype)
    prefix = np.concatenate(([1.0], np.cumprod(factors)[:-1])).astype(dtype)
    values = prefix * probabilities * alpha_value
    return ordered, values


def general_weights(rf: RankingFunction, n: int) -> np.ndarray:
    """The tabulated ``[w(1), ..., w(limit)]`` of a general-weight spec.

    ``limit`` is the weight's horizon clamped to ``n`` (``n`` when the
    weight has none); the array is complex exactly when the weight is.
    """
    horizon = rf.weight.horizon
    limit = n if horizon is None else min(int(horizon), n)
    dtype = float if rf.is_real() else complex
    return rf.weight_array(limit)[1:].astype(dtype)


def prf_values(
    relation: ProbabilisticRelation, rf: RankingFunction
) -> tuple[list[Tuple], np.ndarray, np.ndarray | None]:
    """PRF values of every tuple under the given ranking function.

    Returns ``(sorted_tuples, values, sort_keys)``; ``sort_keys`` is ``None``
    unless an ordering key other than Python's ``abs(value)`` is used (the
    real-``alpha`` PRFe path returns log-magnitudes).
    """
    if isinstance(rf, PRFe):
        alpha = rf.alpha
        if uses_log_space(rf):
            ordered, log_values = prfe_log_values(relation, alpha)
            with np.errstate(over="ignore", under="ignore"):
                values = np.exp(log_values)
            return ordered, values, log_values
        ordered, values = prfe_values(relation, alpha)
        return ordered, values, None

    if isinstance(rf, LinearCombinationPRFe):
        # Evaluate all exponential terms from one pass over the probabilities:
        # for each term l, F^i(alpha_l) = prod_{j < i}(1 - p_j + p_j alpha_l)
        # * p_i * alpha_l, so a cumulative product per column suffices.
        ordered = relation.sorted_by_score()
        probabilities = np.array([t.probability for t in ordered], dtype=float)
        alphas = rf.alphas[None, :]
        factors = (1.0 - probabilities)[:, None] + probabilities[:, None] * alphas
        prefix = np.ones_like(factors)
        if len(ordered) > 1:
            prefix[1:] = np.cumprod(factors[:-1], axis=0)
        term_values = prefix * probabilities[:, None] * alphas
        total = term_values @ rf.coefficients
        return ordered, total, None

    # Imported here: repro.engine imports this module through its backends.
    from ..engine.kernels import batched_general_values

    ordered = relation.sorted_by_score()
    probabilities = np.array([t.probability for t in ordered], dtype=float)
    factors = None
    if rf.tuple_factor is not None:
        factors = np.array([[rf.factor(t) for t in ordered]], dtype=float)
    values = batched_general_values(
        probabilities[None, :], general_weights(rf, len(ordered)), factors
    )[0]
    return ordered, values, None


def rank_independent(
    relation: ProbabilisticRelation,
    rf: RankingFunction,
    name: str = "",
) -> RankingResult:
    """Rank an independent relation by any PRF-family ranking function.

    The evaluation strategy is chosen automatically (see :func:`prf_values`);
    the result orders tuples by decreasing ``|Upsilon(t)|`` with the
    package-wide deterministic tie-breaking.
    """
    ordered, values, sort_keys = prf_values(relation, rf)
    return RankingResult.from_values(
        ordered, values.tolist(), name=name or relation.name, sort_keys=sort_keys
    )


def expected_world_size_excluding(
    relation: ProbabilisticRelation,
) -> dict[Any, float]:
    """``E[|pw|  restricted to worlds without t] * Pr(t absent)`` for every tuple.

    This is the ``er2`` term of the expected-rank decomposition in
    Section 3.3: for independent tuples
    ``er2(t) = (1 - Pr(t)) * (C - Pr(t))`` with ``C = sum_i Pr(t_i)``.
    Exposed here because :mod:`repro.baselines.expected_rank` shares the
    score-sorted machinery of this module.
    """
    total = relation.expected_world_size()
    return {
        t.tid: (1.0 - t.probability) * (total - t.probability) for t in relation
    }

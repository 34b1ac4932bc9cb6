"""Batched numpy kernels of the ranking engine.

Every kernel operates on a stack of ``B`` equal-length relations at once:
``P`` is the ``(B, n)`` matrix of existence probabilities in score-
descending order, one row per relation.  A row's arithmetic does not
depend on the other rows of its stack — cumulative sums/products run
sequentially along the last axis — so a batch of size one (the
single-relation helpers of :mod:`repro.algorithms.independent` are
exactly that) and any larger batch give every row the same bits, and
batching only amortizes Python and dispatch overhead across rows.

General weights have one exact kernel, :func:`batched_general_values`,
costing ``O(B n* limit)`` whether it streams the prefix recurrence or
reduces a materialized or cached :func:`batched_prefix_matrices` stack;
all of those calls return the same values bit for bit.  The routing
helpers :func:`uses_log_space`, :func:`clamped_limit` and
:func:`general_weights` decide which kernel a spec runs and how wide.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from ..core.prf import PRFe, RankingFunction
from ..core.weights import clamped_limit, row_sums
from .parallel import row_parts, run_parts

__all__ = [
    "uses_log_space",
    "clamped_limit",
    "general_weights",
    "batched_prefix_matrices",
    "batched_general_values",
    "first_zero_row",
    "row_sums",
    "batched_prfe_log_values",
    "exp_log_values",
    "batched_prfe_values",
    "batched_lincomb_values",
]

_LOG_EPS = 1e-300

#: ``exp`` of anything at or below this rounds to ``0.0``: ``e**-750`` is
#: under half the smallest subnormal double (``e**-745.13``).
_EXP_CUTOFF = -750.0

#: Rows between the prefix recurrence's checks for an all-zero prefix.
_ZERO_CHECK_ROWS = 32

#: Prefix elements one streamed block of :func:`batched_general_values` holds.
_STREAM_ELEMENTS = 1 << 18

def uses_log_space(rf: RankingFunction) -> bool:
    """Whether ``rf`` is a PRFe spec evaluated by :func:`batched_prfe_log_values`.

    True for a real ``float`` alpha in ``(0, 1]``.  Every engine path
    routes on this one decision, so a spec gets the same kernel, and the
    same bits, whichever path ranks it.
    """
    if not isinstance(rf, PRFe):
        return False
    alpha = rf.alpha
    return isinstance(alpha, float) and 0.0 < alpha <= 1.0


def general_weights(rf: RankingFunction, n: int) -> np.ndarray:
    """The tabulated ``[w(1), ..., w(limit)]`` of a general-weight spec.

    ``limit`` is the weight's horizon clamped to ``n`` (``n`` when the
    weight has none); the array is complex exactly when the weight is.
    """
    dtype = float if rf.is_real() else complex
    return rf.weight_array(clamped_limit(n, rf.weight.horizon))[1:].astype(dtype)


def _prefix_blocks(P: np.ndarray, block: np.ndarray):
    """Run Equation (2)'s recurrence through the ``(B, rows, limit)`` ``block``.

    Each ``(start, rows)`` yielded means ``block[:, :rows]`` holds the
    truncated prefixes ``F^start, ...`` of every relation.  The pass ends
    at the first checked row ``n*`` where every prefix is exactly zero.
    """
    B, n = P.shape
    size = block.shape[1]
    prefix = np.zeros((B, block.shape[2]), dtype=float)
    prefix[:, 0] = 1.0
    shifted = np.zeros_like(prefix)
    keep = 1.0 - P
    for start in range(0, n, size):
        rows = min(size, n - start)
        for r in range(rows):
            i = start + r
            if i % _ZERO_CHECK_ROWS == 0 and not prefix.any():
                if r:
                    yield start, r
                return
            block[:, r] = prefix
            # (1 - p) F_m + p F_(m-1), in place: the same two products and
            # one sum per coefficient as the textbook update.
            np.multiply(prefix[:, :-1], P[:, i, None], out=shifted[:, 1:])
            prefix *= keep[:, i, None]
            prefix += shifted
        yield start, rows


def batched_prefix_matrices(P: np.ndarray, limit: int) -> np.ndarray:
    """Stacked prefix polynomial matrices, shape ``(B, n, limit)``.

    ``out[b, i, m]`` is the coefficient of ``x^m`` in ``F^i(x)`` of
    relation ``b`` — the probability that exactly ``m`` of its ``i``
    higher-score tuples are present.  One pass over the shared tuple axis
    updates all ``B`` recurrences simultaneously.

    The pass stops at the first row ``n*`` (checked every
    ``_ZERO_CHECK_ROWS`` rows) where the truncated prefix of every relation
    is exactly zero, so it costs ``O(B n* limit)``.  This is exact: a zero
    prefix stays ``(1 - p) 0 + p 0 = +0.0`` for ``p`` in ``[0, 1]``, which
    is what the preallocated output already holds.  Truncation does not
    change this: coefficient ``m`` depends only on coefficients ``<= m``.
    """
    P = np.asarray(P, dtype=float)
    B, n = P.shape
    out = np.zeros((B, n, limit), dtype=float)
    if n and limit and B:
        for _ in _prefix_blocks(P, out):
            pass
    return out


def first_zero_row(prefix: np.ndarray) -> int:
    """The row ``n*`` where :func:`batched_prefix_matrices` stopped on ``prefix``.

    The first checked row at which every relation of the ``(B, n, limit)``
    stack is all zero, or ``n``.  On a column slice of a wider matrix it
    is the row the narrower recurrence stops at.
    """
    checked = prefix[:, ::_ZERO_CHECK_ROWS].any(axis=(0, 2))
    zero = np.flatnonzero(~checked)
    return int(zero[0]) * _ZERO_CHECK_ROWS if zero.size else prefix.shape[1]


def batched_general_values(
    P: np.ndarray,
    weights: np.ndarray,
    factors: np.ndarray | None = None,
    prefix: np.ndarray | None = None,
) -> np.ndarray:
    """General PRF values ``Upsilon(t) = p_t sum_m w(m+1) F^t_m``, then ``* g(t)``.

    ``weights`` is the tabulated ``[w(1), ..., w(limit)]`` (real or
    complex), ``factors`` the optional ``(B, n)`` multipliers ``g(t)`` and
    ``prefix`` an optional ``(B, n, >= limit)`` materialized or cached
    :func:`batched_prefix_matrices` stack; without it the recurrence
    streams in row blocks.  Only rows before :func:`first_zero_row` are
    reduced; each later row is zero and gets the sum of a zero row.  As
    :func:`row_sums` does not depend on a row's block or stack, streamed,
    materialized, cached and batched calls agree bit for bit.
    """
    P = np.asarray(P, dtype=float)
    weights = np.asarray(weights)
    B, n = P.shape
    limit = weights.size
    sums = np.empty((B, n), dtype=np.result_type(weights, float))
    stop = 0
    if prefix is not None:
        prefix = prefix[:, :, :limit]
        stop = first_zero_row(prefix)
        sums[:, :stop] = row_sums(prefix[:, :stop], weights)
    elif n and limit and B:
        size = max(1, _STREAM_ELEMENTS // (B * limit * _ZERO_CHECK_ROWS)) * _ZERO_CHECK_ROWS
        block = np.empty((B, min(size, n), limit), dtype=float)
        for start, rows in _prefix_blocks(P, block):
            stop = start + rows
            sums[:, start:stop] = row_sums(block[:, :rows], weights)
    if stop < n:
        sums[:, stop:] = row_sums(np.zeros((1, 1, limit)), weights)
    values = sums * P
    if factors is not None:
        values = values * factors
    return values


def batched_prfe_log_values(P: np.ndarray, alpha, out: np.ndarray | None = None) -> np.ndarray:
    """Log-magnitudes of PRFe(alpha) per row for real ``alpha`` in (0, 1].

    Row ``b``'s entry ``i`` is ``sum_{l < i} log(1 - p_l + p_l alpha) +
    log p_i + log alpha`` (Equation 3 in log space, ``-inf`` where
    ``p_i = 0``), so huge relations neither under- nor overflow.
    ``alpha`` is either one scalar shared by every row or a length-``B``
    vector giving each row its own alpha (the Figure 7 sweep: one relation
    broadcast across the rows, one alpha per row).  The log-values are
    written into ``out`` (a new ``(B, n)`` array when omitted), which also
    holds the log-factors while they are summed, so no other row-sized
    array is allocated.
    """
    P = np.asarray(P, dtype=float)
    alphas = np.asarray(alpha, dtype=float)
    scalar = alphas.ndim == 0
    if not scalar and alphas.shape != (P.shape[0],):
        raise ValueError(
            f"alpha must be a scalar or one value per row; got shape "
            f"{alphas.shape} for {P.shape[0]} rows"
        )
    if np.any(alphas <= 0.0) or np.any(alphas > 1.0):
        raise ValueError(f"log-space PRFe evaluation requires 0 < alpha <= 1, got {alpha}")
    column = alphas if scalar else alphas[:, None]
    # A broadcast stack (the alpha sweep: one relation, one alpha per row)
    # has a single distinct row of P, so its alpha-free terms run once.
    base = P[:1] if P.strides[0] == 0 else P
    log_values = np.empty(P.shape) if out is None else out
    # Row i's prefix is the sum of the log-factors of tuples 0 .. i-1: they
    # are written one column to the right and summed in place.
    factors = log_values[:, 1:]
    np.multiply(P[:, :-1], column, out=factors)
    factors += 1.0 - base[:, :-1]
    np.log(np.maximum(factors, _LOG_EPS, out=factors), out=factors)
    np.cumsum(factors, axis=1, out=factors)
    log_values[:, :1] = 0.0
    with np.errstate(divide="ignore"):
        log_probabilities = np.where(
            base > 0.0, np.log(np.maximum(base, _LOG_EPS)), -np.inf
        )
    # math.log per alpha, so a scalar and a per-row alpha give the same
    # constant; the sum is (prefix + log p) + log alpha.
    if scalar:
        log_alpha = math.log(max(float(alphas), _LOG_EPS))
    else:
        log_alpha = np.array(
            [math.log(max(a, _LOG_EPS)) for a in alphas.tolist()]
        )[:, None]
    log_values += log_probabilities
    log_values += log_alpha
    return log_values


def exp_log_values(log_values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.exp(log_values)`` bit for bit, skipping the entries that round to 0.

    ``np.exp`` runs a slow path on inputs whose result underflows, and on
    large relations most log-values do (97% of PRFe(0.95) at n = 10^6).
    Every input at or below :data:`_EXP_CUTOFF` has the result ``0.0``
    exactly, so only the others are exponentiated.  The result goes to
    ``out`` when given, which must hold zeros: only the others are written,
    so the pages of an ``np.zeros`` array that hold nothing but underflow
    are never touched and cost no memory.
    """
    values = np.zeros(log_values.shape) if out is None else out
    with np.errstate(over="ignore", under="ignore"):
        # NaN is not <= the cutoff, so it stays NaN.
        np.exp(log_values, out=values, where=~(log_values <= _EXP_CUTOFF))
    return values


def batched_prfe_values(P: np.ndarray, alpha: complex) -> np.ndarray:
    """PRFe(alpha) values ``F^i(alpha)`` per row (complex ``alpha`` allowed).

    ``F^i(alpha) = prod_{l < i}(1 - p_l + p_l alpha) * p_i * alpha``, the
    O(n) evaluation of Section 4.3 after sorting.  A complex alpha with a
    nonzero imaginary part runs in complex arithmetic, any other in float.
    """
    P = np.asarray(P, dtype=float)
    is_complex = isinstance(alpha, complex) and alpha.imag != 0.0
    dtype = complex if is_complex else float
    alpha_value = complex(alpha) if is_complex else float(np.real(alpha))
    factors = ((1.0 - P) + P * alpha_value).astype(dtype)
    prefix = np.ones_like(factors)
    if P.shape[1] > 1:
        prefix[:, 1:] = np.cumprod(factors, axis=1)[:, :-1]
    return prefix * P * alpha_value


def _conjugate_pair_split(
    coefficients: np.ndarray, alphas: np.ndarray
) -> tuple[list[int], list[int]] | None:
    """Split term indices into ``(real_singles, pair_representatives)``.

    Succeeds only when the term multiset is *exactly* closed under
    conjugation — every complex ``(u, alpha)`` has a bitwise-conjugate
    partner (the planner's ``conjugate_symmetric`` DFT construction
    guarantees this).  Returns ``None`` for arbitrary term sets, which
    then run the generic complex loop.
    """
    count = int(alphas.size)
    used = [False] * count
    singles: list[int] = []
    representatives: list[int] = []
    for l in range(count):
        if used[l]:
            continue
        used[l] = True
        alpha = complex(alphas[l])
        coefficient = complex(coefficients[l])
        if alpha.imag == 0.0 and coefficient.imag == 0.0:
            singles.append(l)
            continue
        partner = None
        for m in range(l + 1, count):
            if (
                not used[m]
                and complex(alphas[m]) == alpha.conjugate()
                and complex(coefficients[m]) == coefficient.conjugate()
            ):
                partner = m
                break
        if partner is None:
            return None
        used[partner] = True
        representatives.append(l)
    return singles, representatives


def _term_values(kind: str, P, complement, coefficient, alpha, factors, prefix):
    """One term's contribution to :func:`batched_lincomb_values`, in the given buffers.

    ``kind`` is ``"real"`` (a real term, real arithmetic), ``"pair"`` (a
    conjugate pair's representative) or ``"complex"`` (the generic loop);
    ``factors`` and ``prefix`` are complex ``(B, n)`` buffers, viewed as
    real for a real term.  A real contribution is written over the
    factors, which the cumulative product has consumed.  Returns the
    buffer holding the contribution.
    """
    n = P.shape[1]
    real_factors = factors.view(float)[:, :n]
    if kind == "real":
        factors = real_factors
        prefix = prefix.view(float)[:, :n]
        np.multiply(P, float(alpha.real), out=factors)
    else:
        np.multiply(P, alpha if kind == "complex" else complex(alpha), out=factors)
    factors += complement
    prefix[:, 0] = 1.0
    if n > 1:
        np.cumprod(factors[:, :-1], axis=1, out=prefix[:, 1:])
    if kind == "real":
        np.multiply(prefix, P, out=real_factors)
        real_factors *= float((coefficient * alpha).real)
        return real_factors
    if kind == "pair":
        # u* conj-term + u term = 2 Re(u alpha prefix) p per tuple.
        prefix *= 2.0 * (coefficient * alpha)
        np.multiply(prefix.real, P, out=real_factors)
        return real_factors
    prefix *= P
    prefix *= alpha
    prefix *= coefficient
    return prefix


def batched_lincomb_values(
    P: np.ndarray, coefficients: np.ndarray, alphas: np.ndarray
) -> np.ndarray:
    """``sum_l u_l PRFe(alpha_l)`` values per row, shape ``(B, n)``.

    The terms are evaluated one contiguous ``(B, n)`` pass per term
    instead of a single strided ``(B, n, L)`` pass: the cumulative
    products run along the innermost axis and peak memory stays
    ``O(B n)``, which at n = 10^6 and L = 16
    (the planner's DFT approximations) is the difference between a
    sub-second kernel and a gigabyte of axis-1 cumprod.

    Term multisets exactly closed under conjugation (the planner's
    symmetrized DFT approximations) take a further-halved path: each
    conjugate pair contributes ``2 Re(u alpha prefix) p`` from one
    cumulative product, all in real arithmetic, and the returned array
    is real float64.  Arbitrary term sets keep the generic complex loop.

    Large stacks compute one term per core at a time (see
    :mod:`repro.engine.parallel`), each into its own buffers, and the
    calling thread adds the terms to the values in term order, so the
    sum is the same at any core count.
    """
    P = np.asarray(P, dtype=float)
    coefficients = np.asarray(coefficients, dtype=complex)
    alphas = np.asarray(alphas, dtype=complex)
    B, n = P.shape
    if n == 0:
        return np.zeros((B, n), dtype=complex)
    complement = 1.0 - P
    pairing = _conjugate_pair_split(coefficients, alphas)
    if pairing is not None:
        singles, representatives = pairing
        terms = [("real", l) for l in singles] + [("pair", l) for l in representatives]
        values = np.zeros((B, n), dtype=float)
    else:
        terms = [("complex", l) for l in range(alphas.size)]
        values = np.zeros((B, n), dtype=complex)
    # Every wave hands each core one term and ends in a join, so a single
    # term's stack is the work that must clear the parallel floor.
    slots = len(row_parts(len(terms), B * n))
    buffers = [
        (np.empty((B, n), dtype=complex), np.empty((B, n), dtype=complex)) for _ in range(slots)
    ]
    contributions: list[np.ndarray | None] = [None] * slots

    def compute(first: int, part: range) -> None:
        for slot in part:
            kind, l = terms[first + slot]
            contributions[slot] = _term_values(
                kind, P, complement, coefficients[l], alphas[l], *buffers[slot]
            )

    for first in range(0, len(terms), slots):
        wave = min(slots, len(terms) - first)
        run_parts(partial(compute, first), [range(slot, slot + 1) for slot in range(wave)])
        for slot in range(wave):
            values += contributions[slot]
    return values

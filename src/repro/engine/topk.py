"""Top-k early termination for PRFe ranking (the paper's pruning claim).

The paper's central practical observation is that ``PRFe(alpha)`` with a
real decay ``0 < alpha < 1`` admits *early termination*: walking tuples
in score-descending order, the value of every not-yet-examined tuple is
bounded above by a quantity that decays geometrically with the prefix,
so a top-k query can stop once the k-th best confirmed value dominates
the bound on everything that remains.

The bound is correlation-model agnostic.  Let ``C_i`` be the random
number of *present* tuples among the ``i`` highest-score tuples of the
dataset.  For any unexamined tuple ``t_j`` ranked below the first ``i``
tuples, the number of present higher-score tuples ``D_j`` satisfies
``D_j >= C_i`` pointwise in every possible world (the first ``i`` tuples
all outscore ``t_j``), hence for ``alpha <= 1``::

    Upsilon^e(t_j) = E[alpha^{1 + D_j} * 1{t_j present}]
                  <= alpha * E[alpha^{C_i}]

Each backend computes ``E[alpha^{C_i}]`` from the intermediate it
already maintains:

* independent relations — the running log prefix sum
  ``sum_{l < i} log(1 - p_l + p_l alpha)`` of the closed-form kernel;
* and/xor trees — the root value ``F^i(alpha, alpha)`` that the stacked
  Algorithm 3 walk computes for every row anyway;
* Markov networks — an evidence-free junction-tree count-distribution
  dynamic program over the prefix.

Pruning is *skipped* (full evaluation, result truncated) whenever the
bound cannot apply: non-``PRFe`` specs, complex or ``alpha >= 1``
specs (no decay), ``k >= n``, or specs carrying a ``tuple_factor``.

Floating-point rigor: on the independent log-space path the computed
log-values of unexamined tuples are *provably* bounded by the computed
``cumulative[-1] + log(alpha)`` — the cumulative sum of non-positive
log-factors is monotone non-increasing under round-to-nearest, and
adding the non-positive ``log(p)`` / ``log(alpha)`` terms preserves the
ordering — so the strict comparison needs no safety margin and the
pruned top-k set equals the full kernel's bit for bit.  The tree and
network paths use guarded products and convolutions whose rounding is
not monotone, so their bounds are inflated by :data:`BOUND_SAFETY`
before comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.prf import RankingFunction
from ..core.result import RankedItem, RankingResult
from ..core.tuples import Tuple
from .kernels import batched_prfe_log_values, uses_log_space

__all__ = [
    "BOUND_SAFETY",
    "TopKReport",
    "prunable",
    "validated_k",
    "magnitudes",
    "ranking_order",
    "ranked_result",
    "independent_topk_log_values",
    "certified",
]

#: Relative inflation applied to the and/xor and Markov pruning bounds
#: before the strict stop comparison.  Their bound arithmetic (guarded
#: products, junction-tree convolutions) carries rounding whose sign is
#: not controlled, unlike the independent log-space path; inflating the
#: bound by a few hundred ulps makes an early stop conservative at the
#: cost of examining at most a handful of extra tuples.
BOUND_SAFETY = 1.0 + 1e-9

#: Smallest prefix the independent streaming kernel materializes; below
#: this the vectorized kernel's fixed overhead dominates any saving.
_MIN_PREFIX = 64

#: Geometric growth factor between streaming kernel attempts.  Each
#: attempt recomputes the kernel from scratch over the whole examined
#: prefix (a carried cumulative-sum offset would break bit-identity with
#: the full kernel, float addition not being associative), so the total
#: work stays within a small constant factor of the final prefix.
_GROWTH = 4


@dataclass(frozen=True)
class TopKReport:
    """How one top-k request was executed (the pruning observability record).

    Attributes
    ----------
    k:
        The requested cutoff.
    n:
        Number of tuples in the dataset.
    examined:
        Number of score-sorted tuples whose value was actually computed.
    pruned:
        Whether early termination engaged (``examined < n`` via the
        bound; ``False`` when the full kernel ran and was truncated).
    """

    k: int
    n: int
    examined: int
    pruned: bool

    @property
    def fraction_examined(self) -> float:
        """Examined prefix length as a fraction of the dataset size."""
        return self.examined / self.n if self.n else 1.0


def prunable(rf: RankingFunction) -> bool:
    """Whether ``rf`` admits the geometric-decay early-termination bound.

    True exactly for ``PRFe(alpha)`` with a real ``float`` alpha in
    ``(0, 1)`` and no ``tuple_factor``: the log-space kernel family, minus
    ``alpha == 1.0`` where the bound never decays (pruning would only add
    overhead), minus per-tuple factors which break the uniform bound.
    """
    return uses_log_space(rf) and float(rf.alpha) < 1.0 and rf.tuple_factor is None


def validated_k(k: int) -> int:
    """``k`` as a validated non-negative ``int``.

    Raises
    ------
    ValueError
        If ``k`` is negative or not integral.
    """
    validated = int(k)
    if validated != k:
        raise ValueError(f"k must be an integer, got {k!r}")
    if validated < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return validated


def magnitudes(values: np.ndarray) -> np.ndarray:
    """``|value|`` of every entry, bit-equal to Python's ``abs()``.

    ``np.abs`` of a complex array can differ from ``abs(complex)`` in the
    last place, which reorders near-ties against
    :meth:`~repro.core.result.RankingResult.from_values`; ``np.hypot`` of
    the parts rounds as ``abs(complex)`` does.
    """
    if np.iscomplexobj(values):
        return np.hypot(values.real, values.imag)
    return np.abs(values)


def ranking_order(
    values: np.ndarray,
    scores: np.ndarray,
    tid_strings: Callable[[], np.ndarray],
    sort_keys: np.ndarray | None = None,
) -> np.ndarray:
    """Positions sorted by ``(-key, -score, str(tid))``, the ranking order.

    The key is ``|value|`` unless ``sort_keys`` overrides it; the order is
    that of :meth:`~repro.core.result.RankingResult.from_values`, shared
    by every result builder.  ``scores`` are score-descending (every
    entry's are), so among equal keys ascending position is descending
    score: one unstable ``np.argsort`` of the keys, with each run of equal
    keys put back in position order, is the stable ``(-key, -score)``
    order at a fraction of a two-key ``np.lexsort``'s cost.  Equal means
    ``==`` or both NaN (the sort ranks NaN last), as in ``np.lexsort``.
    When no two positions tie on both key and score that order already is
    the three-key one and ``tid_strings()``, usually the costliest column,
    is never called; without two equal neighbouring scores no such tie is
    possible and that scan is skipped.  Before any sort, one pass counts
    the keys equal to ``0`` (magnitudes that underflowed) or, for
    ``sort_keys``, ``-inf`` (log-values of ``p = 0`` tuples); when they
    are more than half, the stable order is built around them and only
    the other keys are sorted.
    """
    keys = magnitudes(values) if sort_keys is None else np.asarray(sort_keys, dtype=float)
    negated = -keys
    n = keys.size
    # Magnitudes that underflowed to 0, or log-values of p = 0 tuples.
    common = 0.0 if sort_keys is None else -math.inf
    if 2 * np.count_nonzero(keys == common) > n:
        order = _stable_order_around(negated, -common)
        same_key = None
    else:
        order = np.argsort(negated)
        same_key = _equal_neighbours(keys[order])
        if not same_key.any():
            return order
        tied = np.zeros(n, dtype=bool)
        tied[:-1] = same_key
        tied[1:] |= same_key
        slots = np.flatnonzero(tied)
        if 2 * slots.size > n:
            # Mostly ties (a few distinct keys, say): a stable sort of
            # everything is cheapest, timsort gallops over the runs.
            order = np.argsort(negated, kind="stable")
        else:
            # Each run of equal keys fills consecutive tied slots: the tied
            # positions in (-key, position) order refill those slots.
            positions = np.sort(order[slots])
            order[slots] = positions[np.argsort(negated[positions], kind="stable")]
    if (scores[1:] == scores[:-1]).any():
        if same_key is None:
            same_key = _equal_neighbours(keys[order])
        ranked_scores = scores[order]
        if (same_key & (ranked_scores[1:] == ranked_scores[:-1])).any():
            order = np.lexsort((tid_strings(), -scores, negated))
    return order


def _equal_neighbours(ranked_keys: np.ndarray) -> np.ndarray:
    """Whether each sorted key equals the next: ``==``, or both NaN (NaNs sort last)."""
    same_key = ranked_keys[1:] == ranked_keys[:-1]
    if ranked_keys.size and np.isnan(ranked_keys[-1]):
        # NaNs sort last, so they pair up exactly where the first is NaN.
        same_key |= np.isnan(ranked_keys[:-1])
    return same_key


def _stable_order_around(negated: np.ndarray, common: float) -> np.ndarray:
    """``np.argsort(negated, kind="stable")`` where most entries equal ``common``.

    Those entries take their place in position order; only the others
    are sorted.  NaN is neither below nor at ``common``, so it lands in
    the last part, whose sort puts it last, as ``np.argsort`` does.
    """
    above = np.flatnonzero(negated < common)
    below = np.flatnonzero(~(negated <= common))
    return np.concatenate(
        [
            above[np.argsort(negated[above], kind="stable")],
            np.flatnonzero(negated == common),
            below[np.argsort(negated[below], kind="stable")],
        ]
    )


def ranked_result(items: Sequence[Tuple], values: np.ndarray, name: str) -> RankingResult:
    """An eager :class:`RankingResult` of ``items`` already in ranking order.

    The container of top-k prefixes: a full ranking is a lazy
    :class:`~repro.core.result.ColumnarRankingResult` instead, but a
    prefix of ``k`` built items pickles as ``k`` items, not the dataset.
    """
    return RankingResult(
        [
            RankedItem(position=position + 1, item=item, value=value)
            for position, (item, value) in enumerate(zip(items, values.tolist()))
        ],
        name=name,
    )


def independent_topk_log_values(
    probabilities: np.ndarray, alpha: float, k: int
) -> tuple[np.ndarray, int, float]:
    """Early-terminated log-space PRFe kernel over one independent relation.

    Streams the closed-form kernel of
    :func:`repro.engine.kernels.batched_prfe_log_values` down the
    score-descending probability vector in geometrically growing
    prefixes, stopping once the k-th best confirmed log-value strictly
    dominates ``cumulative[-1] + log(alpha)`` — an upper bound on every
    unexamined tuple's log-value that holds for the *computed* values
    too (see the module docstring), so the examined prefix provably
    contains the exact top-k set of the full kernel.

    Parameters
    ----------
    probabilities:
        Existence probabilities in score-descending order.
    alpha:
        Real PRFe decay in ``(0, 1)`` (callers gate on :func:`prunable`).
    k:
        Requested cutoff, ``1 <= k`` (``k >= n`` degrades to one full
        pass).

    Returns
    -------
    tuple
        ``(log_values, examined, bound)`` — the kernel's log-values over
        the examined prefix (bit-identical to the same slice of the full
        kernel), the prefix length, and the log-space bound on every
        unexamined tuple (``-inf`` when nothing remains unexamined is
        *not* guaranteed; when ``examined == n`` the bound is unused).
    """
    probabilities = np.asarray(probabilities, dtype=float)
    n = int(probabilities.size)
    if n == 0:
        return np.zeros(0, dtype=float), 0, -math.inf
    m = n if k >= n else min(n, max(_GROWTH * k, _MIN_PREFIX))
    while True:
        # One appended p = 1 row: its log-value is the prefix sum of all m
        # log-factors, plus log 1 = 0, plus log alpha, which is the bound.
        # The other rows are the full kernel's, bit for bit.
        row = np.append(probabilities[:m], 1.0)
        log_values = batched_prfe_log_values(row[None, :], float(alpha))[0]
        log_values, bound = log_values[:m], log_values[m]
        if m == n or certified(log_values, k, bound):
            return log_values, m, bound
        m = min(n, _GROWTH * m)


def certified(keys: np.ndarray, k: int, bound: float) -> bool:
    """Whether an examined prefix provably contains the true top ``k``.

    True when the k-th largest of ``keys`` strictly exceeds ``bound``,
    the upper bound on every unexamined tuple's key.  Strictness matters:
    on the independent path the computed keys of unexamined tuples are
    ``<= bound`` exactly, so a strict win rules out boundary ties with
    anything outside the prefix.
    """
    m = keys.size
    if k > m or k < 1:
        return False
    kth = np.partition(keys, m - k)[m - k]
    return bool(kth > bound)

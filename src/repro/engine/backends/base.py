"""The :class:`RankingBackend` protocol — one execution seam per correlation model.

A backend owns everything the engine needs to rank one correlation
model: detecting its dataset type, choosing the Table-3-optimal
algorithm for a ranking-function spec, evaluating values against the
engine's shared LRU cache, and serving the derived queries (positional
matrices, rank distributions, sorted orders, marginals).  The
:class:`~repro.engine.facade.Engine` is reduced to a *planner*: it picks
the backend for each input and executes through this shared interface,
so batching, fingerprint caching and observability behave identically
across independent relations, and/xor trees and Markov networks — and a
future correlation model plugs in as one new backend instead of edits to
every entry point.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ...core.columnar import RelationColumns
from ...core.prf import RankingFunction
from ...core.result import ColumnarRankingResult, RankingResult, TupleRows
from ...core.tuples import Tuple
from ..kernels import clamped_limit
from .. import topk
from ..topk import TopKReport, certified, prunable, ranked_result, ranking_order, validated_k

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..facade import Engine

__all__ = ["RankingBackend", "CorrelatedBackend", "build_result", "distribution_row"]


def distribution_row(
    ordered: Sequence[Tuple], matrix: np.ndarray, tid: Any, limit: int
) -> np.ndarray:
    """One tuple's rank distribution (index 0 unused) out of a positional matrix."""
    for i, t in enumerate(ordered):
        if t.tid == tid:
            padded = np.zeros(limit + 1, dtype=float)
            padded[1:] = matrix[i, :limit]
            return padded
    raise KeyError(f"no tuple with identifier {tid!r}")


def build_result(
    rows,
    entry,
    values: np.ndarray,
    name: str,
    k: int | None = None,
    sort_keys: np.ndarray | None = None,
) -> RankingResult:
    """The ranking of a dataset's ``rows`` from values over a sorted prefix.

    ``rows`` are what the entry's ``order`` indexes
    (:meth:`RankingBackend.rows`): an independent relation itself, or a
    tree's or network's tuple sequence.  ``values`` cover the first ``m``
    tuples of the entry's score-descending ``order``.  Without ``k`` they
    cover every tuple and the result is a lazy
    :class:`~repro.core.result.ColumnarRankingResult`: the ranked
    positions into ``rows`` and the ranked values as arrays, with
    :class:`~repro.core.result.RankedItem` objects built only when a
    caller iterates or indexes it.  With ``k`` only the best ``k`` items
    are built, eagerly; for an early-terminated prefix they are the first
    ``k`` items of the full ranking (the bound puts every unexamined tuple
    strictly below the k-th examined key).
    :func:`~repro.engine.topk.ranking_order` sorts by the ``(-|value|,
    -score, str(tid))`` triple of :meth:`RankingResult.from_values`, with
    ``sort_keys`` (larger is better) in place of ``|value|`` when given,
    and the items are the caller's tuples.
    """
    values = np.asarray(values)
    m = values.shape[0]
    order = ranking_order(
        values, entry.scores[:m], lambda: entry.tid_strings(rows, limit=m), sort_keys
    )
    if not isinstance(rows, RelationColumns):
        rows = TupleRows(rows)
    if k is None:
        return ColumnarRankingResult(rows, entry.order[order], values[order], name=name)
    order = order[:k]
    return ranked_result(rows.tuples_at(entry.order[order]), values[order], name)


class RankingBackend(ABC):
    """Pluggable per-correlation-model execution strategy of the engine.

    Subclasses implement the abstract hooks against the engine's shared
    :class:`~repro.engine.cache.RelationCache`; the planner guarantees
    every ``data`` argument satisfies :meth:`handles`.
    """

    #: Correlation-model tag reported by :meth:`Engine.plan`.
    model: str = ""

    #: Whether the full path leaves on the entry the evaluation that
    #: :meth:`_evaluated` finds.  Where it does not, a top-k prefix that
    #: would reach every row is all ``n`` rows of :meth:`_topk_prefix`,
    #: which are the full path's, and is memoized like a certified one.
    _full_path_cached: bool = True

    def __init__(self, engine: "Engine") -> None:
        # The engine's cache, not the engine: a backend referring back to
        # its engine would put every engine in a reference cycle, so a
        # dropped engine and all its cached matrices would stay allocated
        # until a full cyclic garbage collection.
        self._cache = engine.cache

    @property
    def cache(self):
        """The engine-wide :class:`~repro.engine.cache.RelationCache`."""
        return self._cache

    def entry(self, data, store: bool = True):
        """The cached intermediates of ``data`` (see :meth:`RelationCache.entry_for`)."""
        return self.cache.entry_for(data, store=store)

    # -- planning ----------------------------------------------------------
    @abstractmethod
    def handles(self, data) -> bool:
        """Whether this backend executes datasets of ``data``'s type."""

    @staticmethod
    @abstractmethod
    def rows(data) -> "RelationColumns | Sequence[Tuple]":
        """What ``data``'s cache entry ``order`` indexes (see :func:`build_result`).

        An independent relation itself; a tree's or network's tuple sequence.
        """

    @abstractmethod
    def algorithm(self, rf: RankingFunction) -> str:
        """Label of the Table-3 algorithm this backend picks for ``rf``."""

    # -- ranking -----------------------------------------------------------
    @abstractmethod
    def rank(self, data, rf: RankingFunction, name: str = "") -> RankingResult:
        """Rank one dataset under one ranking function."""

    @abstractmethod
    def rank_many(
        self, data, rfs: Sequence[RankingFunction], name: str = ""
    ) -> list[RankingResult]:
        """Rank one dataset under many ranking functions, sharing intermediates."""

    def rank_batch(
        self, datasets: Sequence, rf: RankingFunction, store: bool = True
    ) -> list[RankingResult]:
        """Rank a homogeneous batch; backends override to share more work."""
        results = [self.rank(data, rf) for data in datasets]
        del store
        return results

    def rank_top_k(
        self, data, rf: RankingFunction, k: int, name: str = "", store: bool = True
    ) -> tuple[RankingResult, "TopKReport"]:
        """Top ``k`` of the ranking, early-terminated for prunable specs.

        Returns ``(result, report)``: the first ``k`` items of the full
        ranking (identical tuples, values and positions) and a
        :class:`~repro.engine.topk.TopKReport` whose ``examined`` counts
        the rows whose values were computed.  The one top-k body of every
        model.  A :func:`~repro.engine.topk.prunable` spec evaluates
        score-sorted row prefixes through :meth:`_topk_prefix`: the least
        power of two ``m >= max(4k, 64)`` rows, then four times as many,
        until the k-th best key beats the bound on every later row
        (:func:`~repro.engine.topk.certified`).  A prefix that would cover
        every row runs the full path instead, which caches what that
        model's later full rankings read; without that cache
        (:attr:`_full_path_cached`) it evaluates all ``n`` rows.  The
        prefix is memoized on the entry under ``("topk", alpha)`` and
        serves every ``k`` it certifies, and every ``k`` once it covers
        all ``n`` rows.  Anything else -- a spec without the bound, ``k >=
        n``, or a full evaluation already on the entry (:meth:`_evaluated`)
        -- is the full ranking truncated to ``k``.
        """
        k = validated_k(k)
        label = name or data.name
        entry = self.entry(data, store=store)
        n = entry.n
        if not prunable(rf) or k >= n or self._evaluated(entry, float(rf.alpha)):
            return self._ranked_prefix(data, entry, rf, k, label), TopKReport(
                k=k, n=n, examined=n, pruned=False
            )
        if k == 0:
            return RankingResult([], name=label), TopKReport(k=0, n=n, examined=0, pruned=True)
        alpha = float(rf.alpha)
        key = ("topk", alpha)
        memo = entry.extras.get(key)
        if memo is not None and (memo[0].size == n or certified(memo[0], k, memo[1])):
            keys, bound = memo
        else:
            # Powers of two: a tree's layout keeps one row plan per length.
            m = 1 << (max(topk._GROWTH * k, topk._MIN_PREFIX) - 1).bit_length()
            # The memoized prefix does not certify k, and no shorter one would.
            while memo is not None and m <= memo[0].size:
                m *= topk._GROWTH
            while True:
                if m >= n:
                    if self._full_path_cached:
                        result = self._ranked_prefix(data, entry, rf, k, label)
                        return result, TopKReport(k=k, n=n, examined=n, pruned=False)
                    m = n
                keys, bound = self._topk_prefix(data, entry, alpha, m)
                if m == n or certified(keys, k, bound):
                    break
                m *= topk._GROWTH
            if store:
                entry.extras[key] = (keys, bound)
        values, sort_keys = self._topk_values(keys)
        result = build_result(self.rows(data), entry, values, label, k, sort_keys)
        self.cache.enforce_budget()
        return result, TopKReport(k=k, n=n, examined=keys.size, pruned=keys.size < n)

    def _ranked_prefix(self, data, entry, rf: RankingFunction, k: int, name: str) -> RankingResult:
        """The full ranking's first ``k`` items, the fall-back of :meth:`rank_top_k`."""
        return self.rank(data, rf, name=name)[:k]

    def _evaluated(self, entry, alpha: float) -> bool:
        """Whether ``entry`` already holds the full path's evaluation of ``PRFe(alpha)``."""
        return False

    @abstractmethod
    def _topk_prefix(self, data, entry, alpha: float, m: int) -> tuple[np.ndarray, float]:
        """Keys of the first ``m`` score-sorted rows under ``PRFe(alpha)``, and a bound.

        ``m < n``, or ``m == n`` where :attr:`_full_path_cached` is false.

        Returns ``(keys, bound)``: one key per row, larger is better, from
        which :meth:`_topk_values` gives the first ``m`` values of the full
        path's evaluation bit for bit; and an upper bound on every later
        row's key.
        """

    @staticmethod
    def _topk_values(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """``(values, sort_keys)`` of :meth:`_topk_prefix` keys for :func:`build_result`.

        By default the keys are the values themselves, ranked by magnitude.
        """
        return keys, None

    # -- derived queries ---------------------------------------------------
    @abstractmethod
    def positional_matrix(
        self, data, max_rank: int | None = None
    ) -> tuple[list[Tuple], np.ndarray]:
        """``(sorted_tuples, matrix)`` with ``matrix[i, j-1] = Pr(r(t_i) = j)``."""

    @abstractmethod
    def marginal_probabilities(self, data) -> dict[Any, float]:
        """Marginal existence probability per tuple identifier."""

    @abstractmethod
    def sorted_tuples(self, data) -> list[Tuple]:
        """Score-descending tuples (cached order, the caller's tuple objects)."""

    def rank_distribution(self, data, tid: Any, max_rank: int | None = None) -> np.ndarray:
        """Rank distribution ``Pr(r(t) = j)`` of one tuple (index 0 unused).

        The default serves a cached positional matrix row; backends with a
        cheaper single-tuple path override this for the cache-cold case.
        """
        ordered, matrix = self.positional_matrix(data, max_rank=max_rank)
        return distribution_row(ordered, matrix, tid, matrix.shape[1])


class CorrelatedBackend(RankingBackend):
    """The paths the and/xor and Markov backends share.

    Their cache entries hold content only (see
    :class:`~repro.engine.cache.CachedTree`): values are computed on the
    caller's dataset and every result carries the caller's tuples,
    gathered through the entry's score-descending ``order``.
    """

    @abstractmethod
    def _values(self, data, entry, rf: RankingFunction) -> np.ndarray:
        """The value of every tuple of ``data`` under ``rf``, score-descending."""

    def _values_many(self, data, entry, rfs: Sequence[RankingFunction]) -> list[np.ndarray]:
        """:meth:`_values` of every spec; a backend overrides it to share one kernel call."""
        return [self._values(data, entry, rf) for rf in rfs]

    @abstractmethod
    def _cold_distribution(self, data, entry, tid: Any, limit: int) -> np.ndarray:
        """One tuple's rank distribution over ranks ``1 .. limit``, uncached."""

    def _ranked_prefix(self, data, entry, rf: RankingFunction, k: int, name: str) -> RankingResult:
        """The full ranking's first ``k`` items, on the caller's ``entry``."""
        result = build_result(self.rows(data), entry, self._values(data, entry, rf), name, k)
        self.cache.enforce_budget()
        return result

    def rank(self, data, rf: RankingFunction, name: str = "") -> RankingResult:
        """Rank one dataset: the single-spec case of :meth:`rank_many`."""
        return self.rank_many(data, [rf], name=name)[0]

    def rank_many(
        self, data, rfs: Sequence[RankingFunction], name: str = ""
    ) -> list[RankingResult]:
        """Rank one dataset under many specs, sharing its cached intermediates."""
        rfs = list(rfs)
        if not rfs:
            return []
        entry = self.entry(data)
        tuples = self.rows(data)
        label = name or data.name
        results = [
            build_result(tuples, entry, values, label)
            for values in self._values_many(data, entry, rfs)
        ]
        self.cache.enforce_budget()
        return results

    def rank_batch(
        self, datasets: Sequence, rf: RankingFunction, store: bool = True
    ) -> list[RankingResult]:
        """Rank a batch of datasets against the shared cache.

        Each dataset's correlation structure is its own; the batch shares
        the cache (memoized values, positional matrices) rather than a
        stacked kernel — stacking the per-dataset ``matrix @ weights``
        passes into one 3-D matmul perturbs the last ulp, which would
        make a dataset's values depend on its batch.
        """
        results = []
        for data in datasets:
            entry = self.entry(data, store=store)
            values = self._values(data, entry, rf)
            results.append(build_result(self.rows(data), entry, values, data.name))
        self.cache.enforce_budget()
        return results

    def positional_matrix(
        self, data, max_rank: int | None = None
    ) -> tuple[list[Tuple], np.ndarray]:
        """Cached positional probabilities (fresh-matrix contract)."""
        entry = self.entry(data)
        matrix = entry.positional_matrix(data, clamped_limit(entry.n, max_rank))
        self.cache.enforce_budget()
        # Copy: every call returns a fresh matrix, and a caller mutating
        # a view would silently corrupt the cache.
        return entry.sorted_tuples(self.rows(data)), matrix.copy()

    def sorted_tuples(self, data) -> list[Tuple]:
        """Score-descending tuples (cached order, the caller's tuple objects)."""
        return self.entry(data).sorted_tuples(self.rows(data))

    def rank_distribution(self, data, tid: Any, max_rank: int | None = None) -> np.ndarray:
        """Single-tuple rank distribution.

        Served from the cached positional matrix when one wide enough
        exists; otherwise the model's one-tuple computation runs.
        """
        entry = self.entry(data)
        limit = clamped_limit(entry.n, max_rank)
        positional = entry.positional
        if positional is not None and positional.shape[1] >= limit:
            ordered = entry.sorted_tuples(self.rows(data))
            return distribution_row(ordered, positional, tid, limit)
        distribution = self._cold_distribution(data, entry, tid, limit)
        self.cache.enforce_budget()
        return distribution

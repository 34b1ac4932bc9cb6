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

from ...core.prf import RankingFunction
from ...core.result import ColumnarRankingResult, RankedItem, RankingResult
from ...core.tuples import Tuple
from ..cache import CachedColumnar
from ..topk import TopKReport, sort_columns, validated_k

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..facade import Engine

__all__ = ["RankingBackend", "build_result", "distribution_row"]


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
    entry,
    values: np.ndarray,
    name: str,
    sort_keys: np.ndarray | None = None,
) -> RankingResult:
    """Vectorized equivalent of :meth:`RankingResult.from_values`.

    Replaces the Python comparison sort with one ``np.lexsort`` over the
    same ``(-key, -score, str(tid))`` triple — both sorts are stable and
    compare floats and strings identically, so the resulting order is
    the same; only the constant factor changes.  The score and tid sort
    columns are cached on the entry, which any backend's cached dataset
    (``ordered`` + ``extras``) supports.

    Columnar entries take an item-free path: the ranking is computed as
    a permutation array and wrapped in a lazy
    :class:`~repro.core.result.ColumnarRankingResult`; tid strings are
    only built (for the third sort key) when a ``(key, score)`` pair
    actually ties, which the common distinct-scores case never hits.
    """
    if isinstance(entry, CachedColumnar):
        return _columnar_result(entry, values, name, sort_keys)
    ordered = entry.ordered
    if not ordered:
        return RankingResult([], name=name)
    keys = (
        np.abs(np.asarray(values))
        if sort_keys is None
        else np.asarray(sort_keys, dtype=float)
    )
    scores, tids = sort_columns(entry)
    order = np.lexsort((tids, -scores, -keys))
    value_list = values.tolist()
    items = [
        RankedItem(position=position + 1, item=ordered[i], value=value_list[i])
        for position, i in enumerate(order)
    ]
    return RankingResult(items, name=name)


def _columnar_result(
    entry: CachedColumnar,
    values: np.ndarray,
    name: str,
    sort_keys: np.ndarray | None,
) -> RankingResult:
    """Array-only ranking over a columnar entry (``values`` in sorted order)."""
    relation = entry.relation
    if not len(relation):
        return RankingResult([], name=name)
    values = np.asarray(values)
    keys = (
        np.abs(values) if sort_keys is None else np.asarray(sort_keys, dtype=float)
    )
    scores = relation.sorted_scores()
    order = np.lexsort((-scores, -keys))
    ranked_keys = keys[order]
    ranked_scores = scores[order]
    if np.any(
        (ranked_keys[1:] == ranked_keys[:-1]) & (ranked_scores[1:] == ranked_scores[:-1])
    ):
        # Only genuinely tied (key, score) pairs need the tid string
        # column; the two-key sort is stable, so when no pair ties the
        # three-key order is identical and the strings are never built.
        _, tids = entry.sort_columns()
        order = np.lexsort((tids, -scores, -keys))
    original = relation.order()[order]
    return ColumnarRankingResult(relation, original, values[order], name=name)


class RankingBackend(ABC):
    """Pluggable per-correlation-model execution strategy of the engine.

    Subclasses implement the abstract hooks against the engine's shared
    :class:`~repro.engine.cache.RelationCache`; the planner guarantees
    every ``data`` argument satisfies :meth:`handles`.
    """

    #: Correlation-model tag reported by :meth:`Engine.plan`.
    model: str = ""

    def __init__(self, engine: "Engine") -> None:
        # The engine's cache and batch ceiling, not the engine: a backend
        # referring back to its engine would put every engine in a
        # reference cycle, so a dropped engine and all its cached matrices
        # would stay allocated until a full cyclic garbage collection.
        self._cache = engine.cache
        self._max_batch_elements = engine.max_batch_elements

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
        """Top ``k`` of the ranking, with early termination where supported.

        Returns ``(result, report)``: the first ``k`` items of the full
        ranking (identical tuples, values and positions) and a
        :class:`~repro.engine.topk.TopKReport` recording how much of the
        dataset was examined.  This default ranks fully and truncates;
        backends with a PRFe early-termination path override it and fall
        back here whenever :func:`~repro.engine.topk.prunable` rejects
        the spec or ``k`` covers the whole dataset.
        """
        k = validated_k(k)
        del store
        result = self.rank(data, rf, name=name)
        n = len(result)
        return result[:k], TopKReport(k=k, n=n, examined=n, pruned=False)

    # -- derived queries ---------------------------------------------------
    @abstractmethod
    def positional_matrix(
        self, data, max_rank: int | None = None
    ) -> tuple[list[Tuple], np.ndarray]:
        """``(sorted_tuples, matrix)`` with ``matrix[i, j-1] = Pr(r(t_i) = j)``."""

    @abstractmethod
    def marginal_probabilities(self, data) -> dict[Any, float]:
        """Marginal existence probability per tuple identifier."""

    def sorted_tuples(self, data) -> list[Tuple]:
        """Score-descending tuples (cached order, caller's tuple objects)."""
        return list(self.entry(data).ordered)

    def rank_distribution(self, data, tid: Any, max_rank: int | None = None) -> np.ndarray:
        """Rank distribution ``Pr(r(t) = j)`` of one tuple (index 0 unused).

        The default serves a cached positional matrix row; backends with a
        cheaper single-tuple path override this for the cache-cold case.
        """
        ordered, matrix = self.positional_matrix(data, max_rank=max_rank)
        return distribution_row(ordered, matrix, tid, matrix.shape[1])

    @staticmethod
    def _clamped_limit(n: int, max_rank: int | None) -> int:
        """``max_rank`` (or a weight horizon) clamped into ``[0, n]``."""
        return n if max_rank is None else min(int(max_rank), n)

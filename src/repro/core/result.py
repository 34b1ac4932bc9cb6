"""Ranking result containers shared by all algorithms."""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from .tuples import Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import numpy as np

    from .columnar import RelationColumns

__all__ = ["RankedItem", "RankingResult", "ColumnarRankingResult", "TupleRows"]


@dataclass(frozen=True)
class RankedItem:
    """One entry of a ranked result: the tuple, its ranking value, and its position."""

    position: int
    item: Tuple
    value: complex

    @property
    def tid(self) -> Any:
        return self.item.tid

    @property
    def magnitude(self) -> float:
        """``|value|`` — the quantity the top-k query actually sorts by."""
        return abs(self.value)


class RankingResult:
    """A full ranking of the tuples of a probabilistic dataset.

    A top-k query over a PRF function returns the ``k`` tuples with the
    largest ``|Upsilon(t)|`` (Definition 3).  :class:`RankingResult` holds
    the complete ordering so callers can slice any prefix, compare
    rankings with the metrics in :mod:`repro.metrics`, or inspect the raw
    ranking values.

    Items are stored in ranking order (best first).
    """

    def __init__(self, items: Sequence[RankedItem], name: str = "") -> None:
        self._items = list(items)
        self.name = name

    @classmethod
    def from_values(
        cls,
        tuples: Sequence[Tuple],
        values: Sequence[complex],
        name: str = "",
        sort_keys: Sequence[float] | None = None,
    ) -> "RankingResult":
        """Build a result by sorting ``tuples`` by decreasing ``|value|``.

        Ties in ``|value|`` are broken by descending score and then by tuple
        id string to keep results deterministic.

        ``sort_keys`` optionally overrides the quantity used for ordering
        (larger is better) while ``values`` are still stored verbatim; the
        PRFe fast path uses this to order by log-magnitudes, which stay
        finite when the raw values underflow on very large datasets.
        """
        if len(tuples) != len(values):
            raise ValueError("tuples and values must have equal length")
        if sort_keys is not None and len(sort_keys) != len(values):
            raise ValueError("sort_keys must have the same length as values")
        keys = [abs(v) for v in values] if sort_keys is None else list(sort_keys)
        order = sorted(
            range(len(tuples)),
            key=lambda i: (-keys[i], -tuples[i].score, str(tuples[i].tid)),
        )
        items = [
            RankedItem(position=pos + 1, item=tuples[i], value=values[i])
            for pos, i in enumerate(order)
        ]
        return cls(items, name=name)

    def renamed(self, name: str) -> "RankingResult":
        """The same ranking under another name, sharing this one's storage.

        Keeps the class, so a lazy :class:`ColumnarRankingResult` stays
        lazy instead of materializing every item.
        """
        clone = copy.copy(self)
        clone.name = name
        return clone

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[RankedItem]:
        return iter(self._items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RankingResult(self._items[index], name=self.name)
        return self._items[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        label = f" {self.name!r}" if self.name else ""
        return f"<RankingResult{label} n={len(self)}>"

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def top_k(self, k: int) -> list[Any]:
        """Identifiers of the top ``k`` tuples (best first)."""
        return [item.tid for item in self._items[:k]]

    def tids(self) -> list[Any]:
        """All tuple identifiers in ranking order."""
        return [item.tid for item in self._items]

    def values(self) -> dict[Any, complex]:
        """Mapping from tuple id to its ranking value."""
        return {item.tid: item.value for item in self._items}

    def value_of(self, tid: Any) -> complex:
        """Ranking value of a specific tuple."""
        for item in self._items:
            if item.tid == tid:
                return item.value
        raise KeyError(f"tuple {tid!r} not present in result")

    def position_of(self, tid: Any) -> int:
        """1-based position of a specific tuple in the ranking."""
        for item in self._items:
            if item.tid == tid:
                return item.position
        raise KeyError(f"tuple {tid!r} not present in result")


class TupleRows:
    """Positions into a tree's or network's tuple sequence: a lazy result's rows.

    Exposes the two methods :class:`ColumnarRankingResult` reads of a
    relation, :meth:`tuples_at` and :meth:`tid_values`, over the caller's
    own tuple sequence (an and/xor tree's ``tuples()``, a Markov
    network's ``tuples``), so a correlated ranking's items are the
    caller's :class:`Tuple` objects.  It holds nothing else, so a lazy
    result pickles with its dataset's tuples only.
    """

    def __init__(self, tuples: Sequence[Tuple]) -> None:
        self._tuples = tuples

    def tuples_at(self, indices: "np.ndarray") -> list[Tuple]:
        """The tuples at the given positions of the sequence."""
        tuples = self._tuples
        return [tuples[i] for i in indices.tolist()]

    def tid_values(self, indices: "np.ndarray") -> list[Any]:
        """The identifiers of the tuples at the given positions."""
        tuples = self._tuples
        return [tuples[i].tid for i in indices.tolist()]


class ColumnarRankingResult(RankingResult):
    """A full ranking backed by a position permutation and a value array.

    Every full ranking the engine returns is one: of a tuple-independent
    relation (the rows are the relation's columns) and of an and/xor tree
    or Markov network (the rows are a :class:`TupleRows` over the
    caller's tuples).  Instead of eagerly building one :class:`RankedItem`
    per tuple, the result stores the ranking as a permutation of original
    positions plus the aligned value array.  Identifier queries
    (:meth:`top_k`, :meth:`tids`, :meth:`position_of`) are answered
    straight from the arrays; :class:`RankedItem` objects are
    materialized only if a caller actually iterates or indexes the
    result, from ``relation.tuples_at`` (so a tuple-list relation's,
    tree's or network's items are the caller's own :class:`Tuple`
    objects), and then behave exactly like the eager container.
    """

    def __init__(
        self,
        relation: "RelationColumns | TupleRows",
        original_indices: "np.ndarray",
        values: "np.ndarray",
        name: str = "",
    ) -> None:
        # ``original_indices[pos]`` is the original position of the tuple
        # ranked at 0-based ``pos``; ``values`` is aligned with it.
        if len(original_indices) != len(values):
            raise ValueError("original_indices and values must have equal length")
        self.name = name
        self._relation = relation
        self._original = original_indices
        self._value_array = values
        self._item_cache: list[RankedItem] | None = None
        self._position_index: dict[Any, int] | None = None

    # ------------------------------------------------------------------
    # Zero-copy accessors
    # ------------------------------------------------------------------
    @property
    def relation(self) -> "RelationColumns | TupleRows":
        """The rows this ranking refers into.

        The caller's own relation object, or the :class:`TupleRows` over
        a tree's or network's tuples.
        """
        return self._relation

    def original_indices(self) -> "np.ndarray":
        """Original tuple positions in ranking order (best first)."""
        return self._original

    def values_array(self) -> "np.ndarray":
        """Ranking values aligned with :meth:`original_indices`."""
        return self._value_array

    # ------------------------------------------------------------------
    # Lazy item materialization
    # ------------------------------------------------------------------
    @property
    def _items(self) -> list[RankedItem]:
        if self._item_cache is None:
            self._item_cache = self._items_at(range(len(self)))
        return self._item_cache

    def _items_at(self, positions: Sequence[int]) -> list[RankedItem]:
        """The items at the given 0-based ranking positions, built in one pass."""
        positions = list(positions)
        tuples = self._relation.tuples_at(self._original[positions])
        values = self._value_array[positions].tolist()
        return [
            RankedItem(position=pos + 1, item=item, value=value)
            for pos, item, value in zip(positions, tuples, values)
        ]

    # ------------------------------------------------------------------
    # Container protocol / views (array-backed fast paths)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._original)

    def __getitem__(self, index):
        if self._item_cache is not None:
            return super().__getitem__(index)
        if isinstance(index, slice):
            return RankingResult(self._items_at(range(len(self))[index]), name=self.name)
        return self._items_at([range(len(self))[index]])[0]

    def top_k(self, k: int) -> list[Any]:
        """Identifiers of the top ``k`` tuples (best first)."""
        return self._relation.tid_values(self._original[:k])

    def tids(self) -> list[Any]:
        """All tuple identifiers in ranking order."""
        return self._relation.tid_values(self._original)

    def values(self) -> dict[Any, complex]:
        """Mapping from tuple id to its ranking value."""
        return dict(zip(self.tids(), self._value_array.tolist()))

    def _positions(self) -> dict[Any, int]:
        if self._position_index is None:
            self._position_index = {
                tid: pos for pos, tid in enumerate(self.tids())
            }
        return self._position_index

    def value_of(self, tid: Any) -> complex:
        """Ranking value of a specific tuple."""
        pos = self._positions().get(tid)
        if pos is None:
            raise KeyError(f"tuple {tid!r} not present in result")
        return self._value_array[pos].item()

    def position_of(self, tid: Any) -> int:
        """1-based position of a specific tuple in the ranking."""
        pos = self._positions().get(tid)
        if pos is None:
            raise KeyError(f"tuple {tid!r} not present in result")
        return pos + 1

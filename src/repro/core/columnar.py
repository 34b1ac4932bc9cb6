"""Columnar storage for tuple-independent relations, and the column protocol.

Every PRF algorithm over tuple-independent data (Section 3.1 of the
paper) starts from the score-ordered probability vector.
:class:`RelationColumns` implements that view once for both storage
forms; the engine's independent backend, cache and result builders
speak only this protocol.  :class:`ColumnarRelation` stores the two
columns as contiguous float64 arrays;
:class:`~repro.core.tuples.ProbabilisticRelation` keeps its caller's
``Tuple`` list as the identifier and attribute side table and builds its
columns from it once, on first use.

Design notes
------------
* **Implicit identifiers.**  When no ``tids`` are supplied, identifiers
  are the virtual sequence ``"t1", "t2", ...`` — exactly what
  :meth:`ProbabilisticRelation.from_pairs` generates — and nothing is
  stored.  ``tid_of(i)`` synthesizes the string on demand, so a
  ten-million-tuple relation costs 16 MB (two float64 columns), not
  hundreds of MB of Python strings.
* **Sorted order as a permutation.**  The canonical score-descending
  order (ties broken by insertion position) comes from one stable
  argsort of the negated scores and is cached, read-only, with the
  gathered score/probability columns.
* **Tuples on demand.**  :meth:`~RelationColumns.tuples_at` returns the
  caller's own ``Tuple`` objects for a tuple-list relation and builds
  them for a columnar one, only when a consumer asks (a ``tuple_factor``
  spec, iterating a result, a positional-matrix query, CSV export).

Arrays handed to the :class:`ColumnarRelation` constructor are adopted
without copying whenever they already are C-contiguous float64 (this is
what makes memory-mapped relations from
:func:`repro.datasets.io.load_columnar` zero-copy); they must not be
mutated afterwards.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - tuples.py imports this module
    from .tuples import ProbabilisticRelation, Tuple

__all__ = ["RelationColumns", "ColumnarRelation"]

_PROB_TOLERANCE = 1e-9


def _normalize_tid(value: Any) -> Any:
    """Unwrap numpy scalars so ``repr(tid)`` matches the plain-Python form."""
    return value.item() if isinstance(value, np.generic) else value


def _positions(indices: Iterable[int]) -> list[int]:
    """Original positions as a list of Python ints."""
    return indices.tolist() if isinstance(indices, np.ndarray) else list(indices)


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` marked read-only (derived columns are shared, never written)."""
    array.flags.writeable = False
    return array


class RelationColumns:
    """The column protocol of a tuple-independent relation, in either form.

    Subclasses implement :meth:`scores`, :meth:`probabilities`,
    :meth:`tuples_at` and ``__len__``, and set ``_tids`` to the
    identifier list (``None`` for the virtual ``"t1", "t2", ...``
    sequence).  Everything derived from those — the score-descending
    order and columns, the materialized ``Tuple`` order, identifier
    strings — is built here on first use and cached on the object.
    """

    _tids: list[Any] | None
    # Derived caches, built on first use.
    _order: np.ndarray | None = None
    _sorted_scores: np.ndarray | None = None
    _sorted_probabilities: np.ndarray | None = None
    _sorted_cache: "list[Tuple] | None" = None

    def __len__(self) -> int:
        raise NotImplementedError

    def scores(self) -> np.ndarray:
        """Scores in insertion order."""
        raise NotImplementedError

    def probabilities(self) -> np.ndarray:
        """Existence probabilities in insertion order."""
        raise NotImplementedError

    def tuples_at(self, indices: Iterable[int]) -> "list[Tuple]":
        """The :class:`Tuple` objects at the given original positions."""
        raise NotImplementedError

    def attribute_maps(self) -> "list[Mapping[str, Any]] | None":
        """Per-tuple attribute payloads in insertion order; ``None`` when none has any."""
        return None

    def expected_world_size(self) -> float:
        """Expected number of present tuples, ``C = sum_i Pr(t_i)``."""
        return float(self.probabilities().sum())

    # ------------------------------------------------------------------
    # Canonical score-descending order
    # ------------------------------------------------------------------
    def order(self) -> np.ndarray:
        """Permutation of original positions in score-descending order.

        A stable argsort of the negated scores: ties are broken by
        insertion position, the earlier tuple ranking higher.
        """
        if self._order is None:
            self._order = _frozen(np.argsort(-self.scores(), kind="stable"))
        return self._order

    def sorted_scores(self) -> np.ndarray:
        """Scores gathered into score-descending order (cached)."""
        if self._sorted_scores is None:
            self._sorted_scores = _frozen(self.scores()[self.order()])
        return self._sorted_scores

    def sorted_probabilities(self) -> np.ndarray:
        """Probabilities gathered into score-descending order (cached)."""
        if self._sorted_probabilities is None:
            self._sorted_probabilities = _frozen(self.probabilities()[self.order()])
        return self._sorted_probabilities

    def sorted_by_score(self) -> "list[Tuple]":
        """The tuples in the canonical score-descending order (cached).

        The ranking kernels use :meth:`sorted_probabilities` and
        :meth:`sorted_scores` instead.
        """
        if self._sorted_cache is None:
            self._sorted_cache = self.tuples_at(self.order())
        return list(self._sorted_cache)

    def score_rank_index(self) -> dict[Any, int]:
        """Map tuple id -> 0-based position in the score-descending order."""
        return {tid: position for position, tid in enumerate(self.tid_values(self.order()))}

    # ------------------------------------------------------------------
    # Identifiers
    # ------------------------------------------------------------------
    @property
    def has_implicit_tids(self) -> bool:
        """Whether identifiers are the virtual ``"t1", "t2", ...`` sequence."""
        return self._tids is None

    def tid_of(self, index: int) -> Any:
        """The identifier of the tuple at original position ``index``."""
        if self._tids is None:
            return f"t{index + 1}"
        return self._tids[index]

    def tid_values(self, indices: Iterable[int] | None = None) -> list[Any]:
        """Identifiers for the given original positions (all, when omitted)."""
        if indices is None:
            if self._tids is not None:
                return list(self._tids)
            return [f"t{i}" for i in range(1, len(self) + 1)]
        positions = _positions(indices)
        if self._tids is None:
            return [f"t{i + 1}" for i in positions]
        tids = self._tids
        return [tids[i] for i in positions]

    def tid_strings_for(self, indices: Iterable[int]) -> np.ndarray:
        """``str(tid)`` for the given original positions, as a unicode array.

        This feeds ``np.lexsort`` tie-breaking; for implicit identifiers
        it is fully vectorized.
        """
        if self._tids is None:
            numbers = np.asarray(indices, dtype=np.int64) + 1
            return np.char.add("t", numbers.astype("U20"))
        return np.array([str(tid) for tid in self.tid_values(indices)], dtype=str)


class ColumnarRelation(RelationColumns):
    """A tuple-independent relation stored as contiguous columns.

    Parameters
    ----------
    scores:
        Relevance scores in insertion order (finite floats).
    probabilities:
        Existence probabilities in insertion order; values within
        ``1e-9`` outside ``[0, 1]`` are clamped, exactly like
        :class:`Tuple` does.
    tids:
        Optional explicit tuple identifiers (unique, any hashable).
        Omitted, identifiers are the virtual ``"t1", "t2", ...``
        sequence and occupy no memory.
    name:
        Optional human-readable name.
    validate:
        Skip the finite/range scan when ``False`` — used by loaders of
        already-validated on-disk data, where touching every page of a
        memory-mapped column would defeat the mapping.
    """

    _tid_index: dict[Any, int] | None = None

    def __init__(
        self,
        scores: Sequence[float] | np.ndarray,
        probabilities: Sequence[float] | np.ndarray,
        tids: Sequence[Any] | None = None,
        name: str = "",
        validate: bool = True,
    ) -> None:
        scores = np.ascontiguousarray(scores, dtype=np.float64)
        probabilities = np.ascontiguousarray(probabilities, dtype=np.float64)
        if scores.ndim != 1 or probabilities.ndim != 1:
            raise ValueError(
                f"scores and probabilities must be 1-D, "
                f"got shapes {scores.shape} and {probabilities.shape}"
            )
        if scores.shape != probabilities.shape:
            raise ValueError(
                f"scores and probabilities must have equal length, "
                f"got {scores.shape} and {probabilities.shape}"
            )
        if validate:
            if not np.isfinite(scores).all():
                raise ValueError("scores must be finite")
            if probabilities.size and not (
                (probabilities >= -_PROB_TOLERANCE).all()
                and (probabilities <= 1.0 + _PROB_TOLERANCE).all()
            ):
                raise ValueError("probabilities must lie in [0, 1]")
            if probabilities.size and (
                (probabilities < 0.0).any() or (probabilities > 1.0).any()
            ):
                probabilities = np.clip(probabilities, 0.0, 1.0)
        self._scores = scores
        self._probabilities = probabilities
        self.name = name
        if tids is None:
            self._tids = None
        else:
            tid_list = [_normalize_tid(t) for t in tids]
            if len(tid_list) != scores.size:
                raise ValueError(
                    f"expected {scores.size} tids, got {len(tid_list)}"
                )
            if len(set(tid_list)) != len(tid_list):
                raise ValueError("duplicate tuple identifiers")
            self._tids = tid_list

    # ------------------------------------------------------------------
    # Container protocol (Tuple-compatible)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._scores.size

    def __iter__(self) -> "Iterator[Tuple]":
        from .tuples import Tuple

        scores = self._scores
        probabilities = self._probabilities
        for i in range(scores.size):
            yield Tuple(self.tid_of(i), scores[i], probabilities[i])

    def __getitem__(self, index: int) -> "Tuple":
        i = range(len(self))[index]  # normalizes negatives, raises IndexError
        return self.tuples_at([i])[0]

    def __contains__(self, tid: Any) -> bool:
        return tid in self._index()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        label = f" {self.name!r}" if self.name else ""
        return f"<ColumnarRelation{label} n={len(self)}>"

    # ------------------------------------------------------------------
    # Column accessors (zero-copy)
    # ------------------------------------------------------------------
    def scores(self) -> np.ndarray:
        """Scores in insertion order — the stored column itself, no copy."""
        return self._scores

    def probabilities(self) -> np.ndarray:
        """Existence probabilities in insertion order — the stored column itself."""
        return self._probabilities

    def tuples_at(self, indices: Iterable[int]) -> "list[Tuple]":
        """:class:`Tuple` objects for the given original positions, built now."""
        from .tuples import Tuple

        index = np.asarray(indices, dtype=np.intp)
        return [
            Tuple(tid, score, probability)
            for tid, score, probability in zip(
                self.tid_values(index),
                self._scores[index].tolist(),
                self._probabilities[index].tolist(),
            )
        ]

    # ------------------------------------------------------------------
    # Identifiers
    # ------------------------------------------------------------------
    def get(self, tid: Any) -> "Tuple":
        """Return the tuple with identifier ``tid`` (materialized on demand)."""
        return self[self._index()[tid]]

    def _index(self) -> dict[Any, int]:
        if self._tid_index is None:
            self._tid_index = {tid: i for i, tid in enumerate(self.tid_values())}
        return self._tid_index

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    @property
    def tuples(self) -> "Sequence[Tuple]":
        """The tuples in insertion order, materialized."""
        return tuple(self)

    def to_relation(self) -> "ProbabilisticRelation":
        """Materialize as a tuple-list :class:`ProbabilisticRelation`.

        The result fingerprints identically, so both representations hit
        the same service-level dedup key.
        """
        from .tuples import ProbabilisticRelation

        return ProbabilisticRelation(list(self), name=self.name)

    @classmethod
    def from_relation(cls, relation: "ProbabilisticRelation") -> "ColumnarRelation":
        """Convert a tuple-list relation to columns.

        Raises
        ------
        ValueError
            If any tuple carries attributes — the columnar form has no
            attribute storage, and dropping them silently would change
            the relation's fingerprint and ``tuple_factor`` behaviour.
        """
        if relation.attribute_maps() is not None:
            raise ValueError(
                "cannot convert a relation with tuple attributes to columnar form"
            )
        return cls(
            relation.scores(),
            relation.probabilities(),
            tids=relation.tid_values(),
            name=relation.name,
        )

    def subset(self, tids, name: str = "") -> "ColumnarRelation":
        """A new columnar relation restricted to ``tids`` (order preserved)."""
        index = self._index()
        wanted = set(tids)
        missing = wanted - set(index)
        if missing:
            raise KeyError(f"unknown tuple identifiers: {sorted(map(repr, missing))}")
        keep = np.array(
            sorted(index[tid] for tid in wanted), dtype=np.int64
        ) if wanted else np.empty(0, dtype=np.int64)
        return ColumnarRelation(
            self._scores[keep],
            self._probabilities[keep],
            tids=self.tid_values(keep),
            name=name or self.name,
        )

"""Columnar storage for tuple-independent relations.

:class:`ColumnarRelation` is the array-native twin of
:class:`~repro.core.tuples.ProbabilisticRelation`: scores and existence
probabilities live in two contiguous float64 arrays instead of a list of
:class:`~repro.core.tuples.Tuple` objects.  The engine's independent
backend, the fingerprint cache and the top-k streaming kernels consume
these arrays zero-copy — no per-call ``Tuple``-list materialization, no
object->array conversion on the hot path.  At n = 10^6 and beyond this
is the difference between microseconds and seconds per ``rank_batch``
call.

Design notes
------------
* **Implicit identifiers.**  When no ``tids`` are supplied, identifiers
  are the virtual sequence ``"t1", "t2", ...`` — exactly what
  :meth:`ProbabilisticRelation.from_pairs` generates — and nothing is
  stored.  ``tid_of(i)`` synthesizes the string on demand, so a
  ten-million-tuple relation costs 16 MB (two float64 columns), not
  hundreds of MB of Python strings.
* **Sorted order as a permutation.**  The canonical score-descending
  order (ties broken by insertion position, matching
  :meth:`ProbabilisticRelation.sorted_by_score`) is cached as an integer
  permutation array from one stable argsort, and the gathered
  score/probability columns are cached alongside it.
* **Tuple compatibility.**  Iteration, indexing and
  :meth:`sorted_by_score` still yield real :class:`Tuple` objects, built
  lazily, so legacy code paths (general-weight streaming, correlated
  models, CSV export) keep working unchanged — they just pay the
  materialization cost that the hot paths avoid.

Arrays handed to the constructor are adopted without copying whenever
they already are C-contiguous float64 (this is what makes memory-mapped
relations from :func:`repro.datasets.io.load_columnar` zero-copy); they
must not be mutated afterwards.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from .tuples import _PROB_TOLERANCE, ProbabilisticRelation, Tuple

__all__ = ["ColumnarRelation"]


def _normalize_tid(value: Any) -> Any:
    """Unwrap numpy scalars so ``repr(tid)`` matches the plain-Python form."""
    return value.item() if isinstance(value, np.generic) else value


class ColumnarRelation:
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
            self._tids: list[Any] | None = None
        else:
            tid_list = [_normalize_tid(t) for t in tids]
            if len(tid_list) != scores.size:
                raise ValueError(
                    f"expected {scores.size} tids, got {len(tid_list)}"
                )
            if len(set(tid_list)) != len(tid_list):
                raise ValueError("duplicate tuple identifiers")
            self._tids = tid_list
        # Lazily built caches (all derived, all deterministic).
        self._order: np.ndarray | None = None
        self._sorted_scores: np.ndarray | None = None
        self._sorted_probabilities: np.ndarray | None = None
        self._sorted_cache: list[Tuple] | None = None
        self._tid_index: dict[Any, int] | None = None

    # ------------------------------------------------------------------
    # Container protocol (Tuple-compatible)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._scores.size

    def __iter__(self) -> Iterator[Tuple]:
        scores = self._scores
        probabilities = self._probabilities
        for i in range(scores.size):
            yield Tuple(self.tid_of(i), scores[i], probabilities[i])

    def __getitem__(self, index: int) -> Tuple:
        i = range(len(self))[index]  # normalizes negatives, raises IndexError
        return Tuple(self.tid_of(i), self._scores[i], self._probabilities[i])

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

    @property
    def nbytes(self) -> int:
        """Bytes held by the two stored columns (derived caches excluded)."""
        return self._scores.nbytes + self._probabilities.nbytes

    def expected_world_size(self) -> float:
        """Expected number of present tuples, ``C = sum_i Pr(t_i)``."""
        return float(self._probabilities.sum())

    # ------------------------------------------------------------------
    # Canonical score-descending order
    # ------------------------------------------------------------------
    def order(self) -> np.ndarray:
        """Permutation of original positions in score-descending order.

        A stable argsort of the negated scores reproduces the
        ``(-score, insertion position)`` tie-break of
        :meth:`ProbabilisticRelation.sorted_by_score` exactly.
        """
        if self._order is None:
            self._order = np.argsort(-self._scores, kind="stable")
        return self._order

    def sorted_scores(self) -> np.ndarray:
        """Scores gathered into score-descending order (cached)."""
        if self._sorted_scores is None:
            self._sorted_scores = self._scores[self.order()]
        return self._sorted_scores

    def sorted_probabilities(self) -> np.ndarray:
        """Probabilities gathered into score-descending order (cached)."""
        if self._sorted_probabilities is None:
            self._sorted_probabilities = self._probabilities[self.order()]
        return self._sorted_probabilities

    def sorted_by_score(self) -> list[Tuple]:
        """Materialized :class:`Tuple` list in the canonical order.

        Compatibility path for consumers that need tuple objects
        (``tuple_factor`` specs, the legacy ``rank_independent``, exports);
        the hot kernels use :meth:`sorted_probabilities` /
        :meth:`sorted_scores` instead.
        """
        if self._sorted_cache is None:
            scores = self._scores
            probabilities = self._probabilities
            self._sorted_cache = [
                Tuple(self.tid_of(i), scores[i], probabilities[i])
                for i in self.order().tolist()
            ]
        return list(self._sorted_cache)

    def score_rank_index(self) -> dict[Any, int]:
        """Map tuple id -> 0-based position in the score-descending order."""
        return {
            self.tid_of(i): position
            for position, i in enumerate(self.order().tolist())
        }

    # ------------------------------------------------------------------
    # Identifiers
    # ------------------------------------------------------------------
    def tid_of(self, index: int) -> Any:
        """The identifier of the tuple at original position ``index``."""
        if self._tids is None:
            return f"t{index + 1}"
        return self._tids[index]

    def tid_values(self, indices: np.ndarray | None = None) -> list[Any]:
        """Identifiers for the given original positions (all, when omitted)."""
        if indices is None:
            if self._tids is not None:
                return list(self._tids)
            return [f"t{i}" for i in range(1, len(self) + 1)]
        positions = indices.tolist() if isinstance(indices, np.ndarray) else list(indices)
        if self._tids is None:
            return [f"t{i + 1}" for i in positions]
        tids = self._tids
        return [tids[i] for i in positions]

    def tid_strings_for(self, indices: np.ndarray) -> np.ndarray:
        """``str(tid)`` for the given original positions, as a unicode array.

        This feeds ``np.lexsort`` tie-breaking; for implicit identifiers
        it is fully vectorized.
        """
        if self._tids is None:
            numbers = np.asarray(indices, dtype=np.int64) + 1
            return np.char.add("t", numbers.astype("U20"))
        tids = self._tids
        positions = indices.tolist() if isinstance(indices, np.ndarray) else list(indices)
        return np.array([str(tids[i]) for i in positions], dtype=str)

    def get(self, tid: Any) -> Tuple:
        """Return the tuple with identifier ``tid`` (materialized on demand)."""
        return self[self._index()[tid]]

    def _index(self) -> dict[Any, int]:
        if self._tid_index is None:
            if self._tids is None:
                self._tid_index = {f"t{i + 1}": i for i in range(len(self))}
            else:
                self._tid_index = {t: i for i, t in enumerate(self._tids)}
        return self._tid_index

    @property
    def has_implicit_tids(self) -> bool:
        """Whether identifiers are the virtual ``"t1", "t2", ...`` sequence."""
        return self._tids is None

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    @property
    def tuples(self) -> Sequence[Tuple]:
        """The tuples in insertion order, materialized."""
        return tuple(self)

    def to_relation(self) -> ProbabilisticRelation:
        """Materialize as a tuple-list :class:`ProbabilisticRelation`.

        The result fingerprints identically, so both representations hit
        the same service-level dedup key.
        """
        return ProbabilisticRelation(list(self), name=self.name)

    @classmethod
    def from_relation(cls, relation: ProbabilisticRelation) -> "ColumnarRelation":
        """Convert a tuple-list relation to columns.

        Raises
        ------
        ValueError
            If any tuple carries attributes — the columnar form has no
            attribute storage, and dropping them silently would change
            the relation's fingerprint and ``tuple_factor`` behaviour.
        """
        tuples = list(relation)
        if any(t.attributes for t in tuples):
            raise ValueError(
                "cannot convert a relation with tuple attributes to columnar form"
            )
        return cls(
            np.array([t.score for t in tuples], dtype=np.float64),
            np.array([t.probability for t in tuples], dtype=np.float64),
            tids=[t.tid for t in tuples],
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

"""Probabilistic tuples and tuple-uncertainty relations.

This module provides the base data model of the reproduction: a
:class:`Tuple` carries a score and an existence probability, and a
:class:`ProbabilisticRelation` is an ordered collection of mutually
independent tuples (the ``tuple-independent`` model of the paper,
Section 3.1).  Correlated models are layered on top of this one:
:class:`repro.andxor.tree.AndXorTree` re-uses :class:`Tuple` for its
leaves, and :mod:`repro.graphical` attaches a Markov network over the
tuple indicator variables.

The paper assumes scores are distinct (ties are broken by adding a tiny
amount of noise before ranking).  We instead make tie-breaking explicit
and deterministic: whenever tuples are sorted by score, ties are broken
by the tuple's position in the relation (earlier tuples are considered
to have "higher" score).  Every algorithm in the package uses
:meth:`ProbabilisticRelation.sorted_by_score` so that the tie-break rule
is applied uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .columnar import _PROB_TOLERANCE, ColumnarRelation, RelationColumns, _frozen, _positions

__all__ = ["Tuple", "ProbabilisticRelation"]


@dataclass(frozen=True)
class Tuple:
    """A single uncertain tuple.

    Parameters
    ----------
    tid:
        Identifier of the tuple.  Must be unique within a relation.  Any
        hashable value is accepted; strings and integers are typical.
    score:
        The (deterministic) relevance score used for ranking.  Higher is
        better.  When the score itself is uncertain, use
        :func:`repro.algorithms.attribute_uncertainty.expand_score_distribution`
        to reduce to this representation.
    probability:
        Existence probability ``Pr(t)`` in ``[0, 1]``.
    attributes:
        Optional free-form payload (the "value attributes" of the paper);
        it never influences ranking.
    """

    tid: Any
    score: float
    probability: float
    attributes: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.score):
            raise ValueError(f"tuple {self.tid!r}: score must be finite, got {self.score!r}")
        if not (-_PROB_TOLERANCE <= self.probability <= 1.0 + _PROB_TOLERANCE):
            raise ValueError(
                f"tuple {self.tid!r}: probability must lie in [0, 1], got {self.probability!r}"
            )
        # Clamp tiny numerical overshoots so downstream code can rely on [0, 1].
        clamped = min(1.0, max(0.0, float(self.probability)))
        object.__setattr__(self, "probability", clamped)
        object.__setattr__(self, "score", float(self.score))

    def with_probability(self, probability: float) -> "Tuple":
        """Return a copy of this tuple with a different existence probability."""
        return Tuple(self.tid, self.score, probability, self.attributes)

    def with_score(self, score: float) -> "Tuple":
        """Return a copy of this tuple with a different score."""
        return Tuple(self.tid, score, self.probability, self.attributes)


class ProbabilisticRelation(RelationColumns):
    """A relation of mutually independent uncertain tuples.

    The relation preserves insertion order and keeps the caller's
    :class:`Tuple` objects as its identifier and attribute side table.
    Its score and probability columns (numpy arrays) are built from them
    once, on first use, and are read-only; the canonical score-descending
    order used by every ranking algorithm comes from the shared column
    protocol (:class:`~repro.core.columnar.RelationColumns`).

    Parameters
    ----------
    tuples:
        The tuples of the relation.  Tuple identifiers must be unique.
    name:
        Optional human-readable name (used in reports and benchmarks).
    """

    _scores: np.ndarray | None = None
    _probabilities: np.ndarray | None = None

    def __init__(self, tuples: Iterable[Tuple], name: str = "") -> None:
        self._tuples: list[Tuple] = list(tuples)
        self.name = name
        by_tid: dict[Any, Tuple] = {}
        for t in self._tuples:
            if not isinstance(t, Tuple):
                raise TypeError(f"expected Tuple instances, got {type(t).__name__}")
            if t.tid in by_tid:
                raise ValueError(f"duplicate tuple identifier {t.tid!r}")
            by_tid[t.tid] = t
        self._by_tid = by_tid
        self._tids = list(by_tid)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._tuples)

    def __getitem__(self, index: int) -> Tuple:
        return self._tuples[index]

    def __contains__(self, tid: Any) -> bool:
        return tid in self._by_tid

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        label = f" {self.name!r}" if self.name else ""
        return f"<ProbabilisticRelation{label} n={len(self)}>"

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def tuples(self) -> Sequence[Tuple]:
        """The tuples in insertion order."""
        return tuple(self._tuples)

    def get(self, tid: Any) -> Tuple:
        """Return the tuple with identifier ``tid``.

        Raises
        ------
        KeyError
            If no tuple with that identifier exists.
        """
        return self._by_tid[tid]

    def scores(self) -> np.ndarray:
        """Scores in insertion order as a read-only float array (built once)."""
        if self._scores is None:
            self._scores = _frozen(np.array([t.score for t in self._tuples], dtype=float))
        return self._scores

    def probabilities(self) -> np.ndarray:
        """Existence probabilities in insertion order, read-only (built once)."""
        if self._probabilities is None:
            self._probabilities = _frozen(
                np.array([t.probability for t in self._tuples], dtype=float)
            )
        return self._probabilities

    def tuples_at(self, indices: Iterable[int]) -> list[Tuple]:
        """The caller's own :class:`Tuple` objects at the given original positions."""
        tuples = self._tuples
        return [tuples[i] for i in _positions(indices)]

    def attribute_maps(self) -> list[Mapping[str, Any]] | None:
        """Per-tuple attribute payloads in insertion order; ``None`` when none has any."""
        maps = [t.attributes for t in self._tuples]
        return maps if any(maps) else None

    # ------------------------------------------------------------------
    # Columnar interop
    # ------------------------------------------------------------------
    def to_columnar(self) -> ColumnarRelation:
        """This relation as a :class:`~repro.core.columnar.ColumnarRelation`.

        The columnar twin fingerprints identically and ranks
        bit-identically; relations whose tuples carry attributes cannot
        be converted (columns have no attribute storage).
        """
        return ColumnarRelation.from_relation(self)

    @classmethod
    def from_columnar(cls, columnar: ColumnarRelation) -> "ProbabilisticRelation":
        """Materialize a columnar relation back into tuple-list form."""
        return columnar.to_relation()

    # ------------------------------------------------------------------
    # Derivation helpers
    # ------------------------------------------------------------------
    def subset(self, tids: Iterable[Any], name: str = "") -> "ProbabilisticRelation":
        """Return a new relation restricted to the given tuple identifiers.

        The insertion order of the original relation is preserved.
        """
        wanted = set(tids)
        missing = wanted - set(self._by_tid)
        if missing:
            raise KeyError(f"unknown tuple identifiers: {sorted(map(repr, missing))}")
        return ProbabilisticRelation(
            [t for t in self._tuples if t.tid in wanted], name=name or self.name
        )

    def sample(
        self, size: int, rng: np.random.Generator | int | None = None, name: str = ""
    ) -> "ProbabilisticRelation":
        """Return a uniform random sample (without replacement) of ``size`` tuples.

        Used by the learning experiments (Section 5.2 of the paper), where
        ranking features must be computed on a small sample of the data.
        """
        if size < 0 or size > len(self):
            raise ValueError(f"sample size must be in [0, {len(self)}], got {size}")
        generator = np.random.default_rng(rng)
        indices = sorted(generator.choice(len(self), size=size, replace=False).tolist())
        return ProbabilisticRelation(
            [self._tuples[i] for i in indices], name=name or f"{self.name}-sample{size}"
        )

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[tuple[float, float]],
        name: str = "",
        tid_prefix: str = "t",
    ) -> "ProbabilisticRelation":
        """Build a relation from ``(score, probability)`` pairs.

        Tuple identifiers are generated as ``f"{tid_prefix}{i+1}"`` in input
        order, matching the paper's ``t1, t2, ...`` convention.
        """
        tuples = [
            Tuple(f"{tid_prefix}{i + 1}", score, probability)
            for i, (score, probability) in enumerate(pairs)
        ]
        return cls(tuples, name=name)

    @classmethod
    def from_arrays(
        cls,
        scores: Sequence[float] | np.ndarray,
        probabilities: Sequence[float] | np.ndarray,
        name: str = "",
        tid_prefix: str = "t",
    ) -> "ProbabilisticRelation":
        """Build a relation from parallel score / probability arrays."""
        scores = np.asarray(scores, dtype=float)
        probabilities = np.asarray(probabilities, dtype=float)
        if scores.shape != probabilities.shape:
            raise ValueError(
                f"scores and probabilities must have equal length, "
                f"got {scores.shape} and {probabilities.shape}"
            )
        return cls.from_pairs(zip(scores.tolist(), probabilities.tolist()),
                              name=name, tid_prefix=tid_prefix)

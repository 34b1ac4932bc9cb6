"""Ranking over Markov chains (Section 9.3 of the paper).

A Markov chain is the simplest non-trivial graphical model: each tuple's
existence indicator depends only on its predecessor in the chain.  The
paper gives an O(m^2)-per-tuple dynamic program for the rank
distribution; this module implements it directly (without going through
a junction tree), plus conversions to the general
:class:`~repro.graphical.model.MarkovNetworkRelation` so the two
algorithms can be cross-checked.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from ..core.result import RankingResult
from ..core.prf import RankingFunction
from ..core.tuples import Tuple
from .factors import Factor
from .model import MarkovNetworkRelation

__all__ = ["MarkovChainRelation"]


class MarkovChainRelation:
    """Scored tuples whose existence indicators form a Markov chain.

    Parameters
    ----------
    tuples:
        The tuples, *in chain order* (which is unrelated to score order).
    initial:
        ``Pr(X_1 = 1)`` for the first tuple of the chain.
    transitions:
        One ``2 x 2`` row-stochastic matrix per chain edge:
        ``transitions[j][y, y'] = Pr(X_{j+2} = y' | X_{j+1} = y)`` (0-based
        list index ``j`` covers the edge between chain positions ``j`` and
        ``j + 1``).
    name:
        Optional label.
    """

    def __init__(
        self,
        tuples: Iterable[Tuple],
        initial: float,
        transitions: Sequence[np.ndarray | Sequence[Sequence[float]]],
        name: str = "",
    ) -> None:
        self._tuples = list(tuples)
        self.name = name
        if not (0.0 <= initial <= 1.0):
            raise ValueError(f"initial probability must be in [0, 1], got {initial}")
        self.initial = float(initial)
        self.transitions = [np.asarray(matrix, dtype=float) for matrix in transitions]
        if len(self.transitions) != max(len(self._tuples) - 1, 0):
            raise ValueError(
                f"expected {max(len(self._tuples) - 1, 0)} transition matrices, "
                f"got {len(self.transitions)}"
            )
        for index, matrix in enumerate(self.transitions):
            if matrix.shape != (2, 2):
                raise ValueError(f"transition {index} must be 2x2, got {matrix.shape}")
            if np.any(matrix < -1e-12) or np.any(np.abs(matrix.sum(axis=1) - 1.0) > 1e-6):
                raise ValueError(f"transition {index} must have non-negative rows summing to 1")
        seen: set[Any] = set()
        for t in self._tuples:
            if t.tid in seen:
                raise ValueError(f"duplicate tuple identifier {t.tid!r}")
            seen.add(t.tid)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tuples)

    @property
    def tuples(self) -> Sequence[Tuple]:
        return tuple(self._tuples)

    def sorted_tuples(self) -> list[Tuple]:
        """Tuples sorted by descending score with deterministic tie-breaking."""
        indexed = list(enumerate(self._tuples))
        indexed.sort(key=lambda pair: (-pair[1].score, pair[0]))
        return [t for _, t in indexed]

    def marginals(self) -> dict[Any, float]:
        """``Pr(X_j = 1)`` for every chain position, by forward propagation."""
        result: dict[Any, float] = {}
        distribution = np.array([1.0 - self.initial, self.initial])
        result[self._tuples[0].tid] = float(distribution[1])
        for index, matrix in enumerate(self.transitions):
            distribution = distribution @ matrix
            result[self._tuples[index + 1].tid] = float(distribution[1])
        return result

    def to_markov_network(self) -> MarkovNetworkRelation:
        """The equivalent general Markov-network relation (for cross-checks)."""
        factors = [Factor.bernoulli(self._tuples[0].tid, self.initial)]
        for index, matrix in enumerate(self.transitions):
            factors.append(
                Factor(
                    (self._tuples[index].tid, self._tuples[index + 1].tid),
                    matrix,
                )
            )
        return MarkovNetworkRelation(self._tuples, factors, name=self.name)

    @classmethod
    def homogeneous(
        cls,
        tuples: Iterable[Tuple],
        initial: float,
        stay_present: float,
        stay_absent: float,
        name: str = "",
    ) -> "MarkovChainRelation":
        """Build a chain with identical transitions on every edge.

        ``stay_present = Pr(X_{j+1} = 1 | X_j = 1)`` and
        ``stay_absent = Pr(X_{j+1} = 0 | X_j = 0)``.
        """
        tuples = list(tuples)
        matrix = np.array(
            [[stay_absent, 1.0 - stay_absent], [1.0 - stay_present, stay_present]]
        )
        transitions = [matrix.copy() for _ in range(max(len(tuples) - 1, 0))]
        return cls(tuples, initial, transitions, name=name)

    # ------------------------------------------------------------------
    # Rank distributions (the Section 9.3 dynamic program)
    # ------------------------------------------------------------------
    def rank_distribution(self, tid: Any, max_rank: int | None = None) -> np.ndarray:
        """``Pr(r(t) = j)`` for the tuple with identifier ``tid``.

        Returns an array of length ``limit + 1`` with index 0 unused.
        """
        chain_index = next(
            (i for i, t in enumerate(self._tuples) if t.tid == tid), None
        )
        if chain_index is None:
            raise KeyError(f"no tuple with identifier {tid!r}")
        ordered = self.sorted_tuples()
        outranks = set()
        for t in ordered:
            if t.tid == tid:
                break
            outranks.add(t.tid)
        deltas = [1 if t.tid in outranks else 0 for t in self._tuples]

        m = len(self._tuples)
        limit = m if max_rank is None else min(int(max_rank), m)
        # forward[y, c] = Pr(X_1..X_j consistent with evidence, X_j = y,
        #                    count of outranking present tuples so far = c)
        forward = np.zeros((2, m + 1), dtype=float)
        forward[0, 0] = 1.0 - self.initial
        forward[1, deltas[0]] = self.initial
        if chain_index == 0:
            forward[0, :] = 0.0
        for j in range(1, m):
            matrix = self.transitions[j - 1]
            updated = np.zeros_like(forward)
            for new_value in (0, 1):
                shift = deltas[j] * new_value
                incoming = forward[0] * matrix[0, new_value] + forward[1] * matrix[1, new_value]
                if shift:
                    updated[new_value, shift:] += incoming[:-shift]
                else:
                    updated[new_value] += incoming
            if j == chain_index:
                updated[0, :] = 0.0
            forward = updated
        counts = forward.sum(axis=0)
        distribution = np.zeros(limit + 1, dtype=float)
        upto = min(limit, m)
        distribution[1 : upto + 1] = counts[:upto]
        return distribution

    def positional_probabilities(
        self, max_rank: int | None = None
    ) -> tuple[list[Tuple], np.ndarray]:
        """Positional probabilities of every tuple, aligned to score order."""
        ordered = self.sorted_tuples()
        limit = len(ordered) if max_rank is None else min(int(max_rank), len(ordered))
        matrix = np.zeros((len(ordered), limit), dtype=float)
        for i, t in enumerate(ordered):
            matrix[i, :] = self.rank_distribution(t.tid, max_rank=limit)[1:]
        return ordered, matrix

    def prf_values(self, rf: RankingFunction) -> tuple[list[Tuple], np.ndarray]:
        """PRF values of every tuple under ``rf``."""
        ordered, matrix = self.positional_probabilities(max_rank=rf.weight.horizon)
        return ordered, rf.evaluate_positional(ordered, matrix)

    def rank(self, rf: RankingFunction, name: str = "") -> RankingResult:
        """Rank the chain's tuples by a PRF-family ranking function."""
        ordered, values = self.prf_values(rf)
        return RankingResult.from_values(ordered, values.tolist(), name=name or self.name)

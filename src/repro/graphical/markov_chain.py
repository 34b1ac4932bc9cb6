"""Markov-chain relations (Section 9.3 of the paper).

A Markov chain is the simplest non-trivial graphical model: each tuple's
existence indicator depends only on its predecessor in the chain.  This
module builds chains and converts them to the general
:class:`~repro.graphical.model.MarkovNetworkRelation`, which the engine
ranks through its junction tree.  The paper's O(m^2)-per-tuple forward
dynamic program for the rank distribution is the test suite's Section 9.3
reference (``tests/references.py``), cross-checked against the junction
tree and the possible-worlds oracle.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

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

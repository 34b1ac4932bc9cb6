"""Discrete factors over binary tuple-indicator variables.

The graphical-model substrate (Section 9 of the paper) represents the
joint distribution of the tuple existence indicators ``X_t`` as a product
of factors.  :class:`Factor` is a small dense-table implementation of the
standard operations (product, marginalization, evidence reduction,
normalization) specialized to binary variables, sufficient for junction
tree calibration and for the rank-distribution dynamic programs.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

__all__ = ["Factor"]


class Factor:
    """A non-negative table over an ordered set of binary variables."""

    def __init__(self, variables: Sequence[Any], table: np.ndarray | Sequence) -> None:
        self.variables: tuple[Any, ...] = tuple(variables)
        array = np.asarray(table, dtype=float)
        expected_shape = (2,) * len(self.variables)
        if array.shape != expected_shape:
            array = array.reshape(expected_shape)
        if np.any(array < -1e-12):
            raise ValueError("factor tables must be non-negative")
        self.table = np.clip(array, 0.0, None)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variables in factor: {self.variables}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, variables: Sequence[Any]) -> "Factor":
        """The all-ones factor over the given variables."""
        return cls(variables, np.ones((2,) * len(tuple(variables))))

    @classmethod
    def bernoulli(cls, variable: Any, probability: float) -> "Factor":
        """A single-variable factor ``[1 - p, p]``."""
        if not (0.0 <= probability <= 1.0):
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return cls((variable,), np.array([1.0 - probability, probability]))

    @classmethod
    def evidence(cls, variable: Any, value: int) -> "Factor":
        """An indicator factor pinning ``variable`` to ``value``."""
        if value not in (0, 1):
            raise ValueError(f"binary evidence value must be 0 or 1, got {value}")
        table = np.zeros(2)
        table[value] = 1.0
        return cls((variable,), table)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Factor(vars={self.variables}, sum={self.table.sum():.6g})"

    def copy(self) -> "Factor":
        return Factor(self.variables, self.table.copy())

    def total(self) -> float:
        """Sum of all table entries."""
        return float(self.table.sum())

    def value(self, assignment: Mapping[Any, int]) -> float:
        """Table entry for a full assignment of this factor's variables."""
        index = tuple(int(assignment[v]) for v in self.variables)
        return float(self.table[index])

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def expand(self, variables: Sequence[Any]) -> np.ndarray:
        """The table broadcast-ready for the axis order ``variables`` (a superset).

        The returned array has one axis per target variable: length 2 for the
        factor's own variables (in the target order) and length 1 elsewhere,
        so it broadcasts against any other factor expanded to the same scope.
        """
        variables = tuple(variables)
        if variables == self.variables:
            return self.table
        missing = set(self.variables) - set(variables)
        if missing:
            raise ValueError(f"target scope is missing variables {sorted(map(str, missing))}")
        positions = [variables.index(v) for v in self.variables]
        # Reorder our axes so they follow the target order, then interleave
        # broadcast axes of length 1 for the variables we do not carry.
        permutation = np.argsort(positions)
        transposed = np.transpose(self.table, permutation) if self.variables else self.table
        own = set(self.variables)
        full_shape = [2 if v in own else 1 for v in variables]
        return transposed.reshape(full_shape)

    def multiply(self, other: "Factor") -> "Factor":
        """Factor product."""
        variables = tuple(dict.fromkeys(self.variables + other.variables))
        table = self.expand(variables) * other.expand(variables)
        return Factor(variables, np.broadcast_to(table, (2,) * len(variables)).copy())

    def marginalize(self, keep: Iterable[Any]) -> "Factor":
        """Sum out every variable not in ``keep`` (result axis order follows ``keep``)."""
        keep = tuple(keep)
        unknown = set(keep) - set(self.variables)
        if unknown:
            raise ValueError(f"cannot keep unknown variables {sorted(map(str, unknown))}")
        drop_axes = tuple(
            axis for axis, variable in enumerate(self.variables) if variable not in keep
        )
        table = self.table.sum(axis=drop_axes) if drop_axes else self.table
        remaining = tuple(v for v in self.variables if v in keep)
        factor = Factor(remaining, table)
        return factor.reorder(keep) if remaining != keep else factor

    def reorder(self, variables: Sequence[Any]) -> "Factor":
        """Permute the axes into the given variable order (same variable set)."""
        variables = tuple(variables)
        if set(variables) != set(self.variables):
            raise ValueError("reorder requires the same variable set")
        permutation = [self.variables.index(v) for v in variables]
        return Factor(variables, np.transpose(self.table, permutation))

    def reduce(self, evidence: Mapping[Any, int]) -> "Factor":
        """Condition on evidence: slice the table and drop the pinned variables."""
        relevant = {v: int(value) for v, value in evidence.items() if v in self.variables}
        if not relevant:
            return self.copy()
        slicer = tuple(
            relevant[v] if v in relevant else slice(None) for v in self.variables
        )
        remaining = tuple(v for v in self.variables if v not in relevant)
        return Factor(remaining, self.table[slicer])

    def divide(self, other: "Factor") -> "Factor":
        """Factor division with the 0/0 = 0 convention (used by message passing)."""
        variables = tuple(dict.fromkeys(self.variables + other.variables))
        numerator = np.broadcast_to(self.expand(variables), (2,) * len(variables))
        denominator = np.broadcast_to(other.expand(variables), (2,) * len(variables))
        with np.errstate(divide="ignore", invalid="ignore"):
            table = np.where(denominator > 0.0, numerator / np.where(denominator > 0, denominator, 1.0), 0.0)
        return Factor(variables, table)

    def normalize(self) -> "Factor":
        """Scale the table to sum to one (no-op for an all-zero table)."""
        total = self.total()
        if total <= 0.0:
            return self.copy()
        return Factor(self.variables, self.table / total)

"""The parameterized ranking function (PRF) family.

These classes are *declarative specifications* of ranking functions:
they bundle a rank-weight function ``omega(i)`` (and optionally a
per-tuple factor, to express functions such as E-Score whose weight
depends on the tuple itself) together with metadata that lets the
ranking algorithms pick the fastest evaluation strategy:

* :class:`PRF` — the fully general ``Upsilon_omega`` of Definition 3,
  evaluated in O(n^2) on independent relations (or via tree / junction
  tree dynamic programs on correlated data);
* :class:`PRFOmega` — PRFomega(h): tuple-independent weights that vanish
  after a horizon ``h``, evaluated in O(n h);
* :class:`PRFe` — PRFe(alpha): the exponential weight ``alpha**i``,
  evaluated in O(n log n) (O(n) once sorted), including on and/xor trees;
* :class:`PRFLinear` — PRF-ell with ``omega(i) = -i`` (negated expected
  rank restricted to worlds containing the tuple);
* :class:`LinearCombinationPRFe` — ``sum_l u_l PRFe(alpha_l)``, the form
  produced by the DFT-based approximation of Section 5.1.

Ranking by any of these specs is performed by :func:`repro.core.ranking.rank`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tuples import Tuple
from .weights import (
    ExponentialWeight,
    LinearWeight,
    TabulatedWeight,
    WeightFunction,
)

__all__ = [
    "RankingFunction",
    "PRF",
    "PRFOmega",
    "PRFe",
    "PRFLinear",
    "LinearCombinationPRFe",
]


class RankingFunction:
    """Base class of all PRF-style ranking-function specifications."""

    #: The rank-weight function omega(i).
    weight: WeightFunction

    #: Optional per-tuple multiplicative factor g(t); the effective weight is
    #: ``omega(t, i) = g(t) * omega(i)``.  ``None`` means ``g(t) = 1``.
    tuple_factor: Callable[[Tuple], float] | None = None

    def weight_array(self, n: int) -> np.ndarray:
        """Tabulated weights ``[0, omega(1), ..., omega(n)]``."""
        return self.weight.as_array(n)

    def factor(self, t: Tuple) -> float:
        """The per-tuple factor ``g(t)`` (1 when no factor was supplied)."""
        if self.tuple_factor is None:
            return 1.0
        return float(self.tuple_factor(t))

    def is_real(self) -> bool:
        """Whether the ranking values are guaranteed real."""
        return self.weight.is_real()

    def evaluate_positional(self, ordered: Sequence[Tuple], matrix: np.ndarray) -> np.ndarray:
        """``Upsilon(t_i) = g(t_i) sum_j omega(j) Pr(r(t_i) = j)`` for every row.

        Definition 3 applied to positional probabilities
        ``matrix[i, j - 1] = Pr(r(ordered[i]) = j)``; columns past the
        matrix's width count as zero (a horizon, or ``max_rank``).  The
        and/xor and Markov evaluators of every spec they do not run as a
        closed form end here.
        """
        dtype = float if self.is_real() else complex
        weights = self.weight.as_array(matrix.shape[1])[1:].astype(dtype)
        values = matrix.astype(dtype) @ weights
        factors = np.array([self.factor(t) for t in ordered], dtype=float)
        return values * factors

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.weight!r})"


class PRF(RankingFunction):
    """The general parameterized ranking function ``Upsilon_omega``.

    Parameters
    ----------
    weight:
        A :class:`~repro.core.weights.WeightFunction`, a plain callable
        ``omega(i)`` over 1-based ranks, or a sequence of tabulated weights.
    tuple_factor:
        Optional per-tuple multiplier ``g(t)``; the effective weight becomes
        ``omega(t, i) = g(t) * omega(i)``.  This is how E-Score
        (``g(t) = score(t)``, ``omega = 1``) and k-selection
        (``g(t) = score(t)``, ``omega(i) = delta(i = 1)``) are expressed.
    """

    def __init__(
        self,
        weight: WeightFunction | Callable[[int], complex] | Sequence[complex],
        tuple_factor: Callable[[Tuple], float] | None = None,
    ) -> None:
        self.weight = _coerce_weight(weight)
        self.tuple_factor = tuple_factor


class PRFOmega(RankingFunction):
    """PRFomega(h): tuple-independent weights ``w_1, ..., w_h`` (zero beyond h).

    Parameters
    ----------
    weights:
        The weight vector ``[w_1, ..., w_h]`` (1-based positions).  A
        :class:`~repro.core.weights.WeightFunction` with a finite
        ``horizon`` is also accepted.
    """

    def __init__(self, weights: Sequence[float] | np.ndarray | WeightFunction) -> None:
        if isinstance(weights, WeightFunction):
            if weights.horizon is None:
                raise ValueError(
                    "PRFOmega requires a weight function with a finite horizon; "
                    "use PRF for unbounded weights"
                )
            self.weight = weights
        else:
            self.weight = TabulatedWeight(weights)
        self.tuple_factor = None

    @property
    def h(self) -> int:
        """The horizon beyond which all weights are zero."""
        assert self.weight.horizon is not None
        return self.weight.horizon


class PRFe(RankingFunction):
    """PRFe(alpha): the exponential weight ``omega(i) = alpha**i``.

    ``alpha`` may be real (the usual case, ``0 <= alpha <= 1``) or complex
    (used as a building block of the DFT approximation).
    """

    def __init__(self, alpha: complex) -> None:
        self.weight = ExponentialWeight(alpha)
        self.tuple_factor = None

    @property
    def alpha(self) -> complex:
        return self.weight.alpha

    def __repr__(self) -> str:
        return f"PRFe(alpha={self.alpha!r})"


class PRFLinear(RankingFunction):
    """PRF-ell: ``omega(i) = -i``; ranks by the negated conditional expected rank."""

    def __init__(self) -> None:
        self.weight = LinearWeight()
        self.tuple_factor = None

    def __repr__(self) -> str:
        return "PRFLinear()"


class LinearCombinationPRFe(RankingFunction):
    """A linear combination ``Upsilon(t) = sum_l u_l * PRFe(alpha_l)(t)``.

    This is the output representation of the DFT-based approximation of an
    arbitrary PRFomega function (Section 5.1): each term is an individual
    PRFe evaluation (linear time), so the combination costs O(n L) after
    sorting.

    Parameters
    ----------
    coefficients:
        The complex coefficients ``u_l``.
    alphas:
        The complex bases ``alpha_l`` (same length as ``coefficients``).
    """

    def __init__(self, coefficients: Sequence[complex], alphas: Sequence[complex]) -> None:
        coefficients = np.asarray(coefficients, dtype=complex)
        alphas = np.asarray(alphas, dtype=complex)
        if coefficients.shape != alphas.shape or coefficients.ndim != 1:
            raise ValueError("coefficients and alphas must be 1-D arrays of equal length")
        if coefficients.size == 0:
            raise ValueError("at least one exponential term is required")
        self.coefficients = coefficients
        self.alphas = alphas
        # The equivalent omega(i) = sum_l u_l alpha_l^i, exposed so the generic
        # O(n^2) path and the brute-force oracle can evaluate the same function.
        self.weight = _CombinationWeight(coefficients, alphas)
        self.tuple_factor = None

    def __len__(self) -> int:
        return int(self.coefficients.size)

    def terms(self) -> list[tuple[complex, complex]]:
        """The ``(u_l, alpha_l)`` pairs of the combination."""
        return list(zip(self.coefficients.tolist(), self.alphas.tolist()))

    def omega(self, ranks: np.ndarray | Sequence[int]) -> np.ndarray:
        """Vectorized evaluation of the represented weight function."""
        ranks = np.asarray(ranks, dtype=float)
        return (self.coefficients[None, :] * self.alphas[None, :] ** ranks[:, None]).sum(axis=1)

    def __repr__(self) -> str:
        return f"LinearCombinationPRFe(L={len(self)})"


class _CombinationWeight(WeightFunction):
    """omega(i) = sum_l u_l alpha_l^i — internal weight of LinearCombinationPRFe."""

    def __init__(self, coefficients: np.ndarray, alphas: np.ndarray) -> None:
        self._coefficients = coefficients
        self._alphas = alphas

    def __call__(self, rank: int) -> complex:
        if rank < 1:
            raise ValueError(f"ranks are 1-based, got {rank}")
        return complex((self._coefficients * self._alphas ** rank).sum())

    def is_real(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"_CombinationWeight(L={self._coefficients.size})"


def _coerce_weight(
    weight: WeightFunction | Callable[[int], complex] | Sequence[complex],
) -> WeightFunction:
    """Normalize the accepted weight representations to a WeightFunction."""
    if isinstance(weight, WeightFunction):
        return weight
    if callable(weight):
        from .weights import CallableWeight

        return CallableWeight(weight)
    return TabulatedWeight(weight)

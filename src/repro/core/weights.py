"""Weight functions ``omega(i)`` over ranks.

A :class:`WeightFunction` maps a 1-based rank ``i`` to a (possibly
complex) weight.  Together with the positional probabilities
``Pr(r(t) = i)`` they define the PRF family of ranking functions
(Definition 3 of the paper):

    Upsilon_omega(t) = sum_{i > 0} omega(i) * Pr(r(t) = i)

The concrete weight functions below reproduce every special case
discussed in Section 3.3 of the paper:

========================  =====================================
Weight function           Equivalent ranking semantics
========================  =====================================
``ConstantWeight``        ranking by existence probability
``StepWeight(h)``         PT(h) / Global-Top-k
``PositionWeight(j)``     the rank-``j`` component of U-Rank
``LinearWeight``          PRF-ell, the negated expected rank
``ExponentialWeight(a)``  PRFe(alpha)
``NDCGDiscountWeight``    the ln2/ln(i+1) IR discount
``TabulatedWeight``       arbitrary learned / approximated weights
========================  =====================================

All weight functions are immutable, hashable where practical, and expose
``as_array(n)`` which tabulates the first ``n`` weights as a numpy array —
the vectorized form the ranking algorithms consume.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "WeightFunction",
    "ConstantWeight",
    "StepWeight",
    "PositionWeight",
    "LinearWeight",
    "ExponentialWeight",
    "NDCGDiscountWeight",
    "TabulatedWeight",
    "CallableWeight",
    "clamped_limit",
]


def clamped_limit(n: int, max_rank: int | None) -> int:
    """Rank columns to materialize: ``min(max_rank, n)``, or ``n`` for ``None``.

    The one ``max_rank`` check of the engine's backends and the
    model-level positional-probability functions.

    Raises
    ------
    ValueError
        If ``max_rank`` is negative or not integral.
    """
    if max_rank is None:
        return n
    limit = int(max_rank)
    if limit != max_rank:
        raise ValueError(f"max_rank must be an integer, got {max_rank!r}")
    if limit < 0:
        raise ValueError(f"max_rank must be non-negative, got {max_rank}")
    return min(limit, n)


class WeightFunction:
    """Base class for rank-weight functions ``omega(i)`` (``i`` is 1-based)."""

    #: Horizon after which the weight is guaranteed to be zero, or ``None``
    #: if the weight has unbounded support.  Algorithms use this to switch
    #: to the faster O(n h) evaluation path.
    horizon: int | None = None

    def __call__(self, rank: int) -> complex:
        raise NotImplementedError

    def as_array(self, n: int, dtype=None) -> np.ndarray:
        """Tabulate ``omega(1), ..., omega(n)`` as an array of length ``n + 1``.

        Index 0 is unused and set to zero so that ``array[i]`` is
        ``omega(i)`` for 1-based ranks, mirroring the paper's notation.
        """
        values = [0.0] + [self(i) for i in range(1, n + 1)]
        array = np.asarray(values)
        if dtype is not None:
            array = array.astype(dtype)
        elif np.iscomplexobj(array):
            array = array.astype(complex)
        else:
            array = array.astype(float)
        return array

    def is_real(self) -> bool:
        """Whether all weights are real-valued (enables real-only fast paths)."""
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}()"


class ConstantWeight(WeightFunction):
    """``omega(i) = c`` for all ranks; with ``c = 1`` this ranks by probability."""

    def __init__(self, value: float = 1.0) -> None:
        self.value = float(value)

    def __call__(self, rank: int) -> float:
        if rank < 1:
            raise ValueError(f"ranks are 1-based, got {rank}")
        return self.value

    def as_array(self, n: int, dtype=None) -> np.ndarray:
        array = np.full(n + 1, self.value, dtype=float)
        array[0] = 0.0
        return array.astype(dtype) if dtype is not None else array

    def __repr__(self) -> str:
        return f"ConstantWeight({self.value})"


class StepWeight(WeightFunction):
    """``omega(i) = 1`` for ``i <= h`` and ``0`` otherwise — the PT(h) weight."""

    def __init__(self, h: int) -> None:
        if h < 1:
            raise ValueError(f"step horizon h must be >= 1, got {h}")
        self.h = int(h)
        self.horizon = self.h

    def __call__(self, rank: int) -> float:
        if rank < 1:
            raise ValueError(f"ranks are 1-based, got {rank}")
        return 1.0 if rank <= self.h else 0.0

    def as_array(self, n: int, dtype=None) -> np.ndarray:
        array = np.zeros(n + 1, dtype=float)
        array[1 : min(self.h, n) + 1] = 1.0
        return array.astype(dtype) if dtype is not None else array

    def __repr__(self) -> str:
        return f"StepWeight(h={self.h})"


class PositionWeight(WeightFunction):
    """``omega(i) = 1`` iff ``i == j`` — the rank-``j`` component of U-Rank."""

    def __init__(self, position: int) -> None:
        if position < 1:
            raise ValueError(f"position must be >= 1, got {position}")
        self.position = int(position)
        self.horizon = self.position

    def __call__(self, rank: int) -> float:
        if rank < 1:
            raise ValueError(f"ranks are 1-based, got {rank}")
        return 1.0 if rank == self.position else 0.0

    def as_array(self, n: int, dtype=None) -> np.ndarray:
        array = np.zeros(n + 1, dtype=float)
        if self.position <= n:
            array[self.position] = 1.0
        return array.astype(dtype) if dtype is not None else array

    def __repr__(self) -> str:
        return f"PositionWeight(position={self.position})"


class LinearWeight(WeightFunction):
    """``omega(i) = -i`` (PRF-ell); ranking by it is ranking by negated expected rank."""

    def __call__(self, rank: int) -> float:
        if rank < 1:
            raise ValueError(f"ranks are 1-based, got {rank}")
        return -float(rank)

    def as_array(self, n: int, dtype=None) -> np.ndarray:
        array = -np.arange(n + 1, dtype=float)
        array[0] = 0.0
        return array.astype(dtype) if dtype is not None else array

    def __repr__(self) -> str:
        return "LinearWeight()"


class ExponentialWeight(WeightFunction):
    """``omega(i) = alpha**i`` with real or complex ``alpha`` — the PRFe weight."""

    def __init__(self, alpha: complex) -> None:
        self.alpha = complex(alpha) if isinstance(alpha, complex) else float(alpha)

    def __call__(self, rank: int) -> complex:
        if rank < 1:
            raise ValueError(f"ranks are 1-based, got {rank}")
        return self.alpha ** rank

    def is_real(self) -> bool:
        return not isinstance(self.alpha, complex) or self.alpha.imag == 0.0

    def __repr__(self) -> str:
        return f"ExponentialWeight(alpha={self.alpha!r})"


class NDCGDiscountWeight(WeightFunction):
    """The information-retrieval discount ``omega(i) = ln 2 / ln(i + 1)``."""

    def __call__(self, rank: int) -> float:
        if rank < 1:
            raise ValueError(f"ranks are 1-based, got {rank}")
        return math.log(2.0) / math.log(rank + 1.0)

    def __repr__(self) -> str:
        return "NDCGDiscountWeight()"


class TabulatedWeight(WeightFunction):
    """A weight function given by an explicit table ``[omega(1), ..., omega(h)]``.

    Ranks beyond the table are given weight zero, so a tabulated weight is
    always a PRFomega(h) weight with ``h = len(values)``.
    """

    def __init__(self, values: Sequence[complex] | np.ndarray) -> None:
        array = np.asarray(values)
        if array.ndim != 1 or array.size == 0:
            raise ValueError("TabulatedWeight requires a non-empty 1-D sequence")
        self.values = array.astype(complex) if np.iscomplexobj(array) else array.astype(float)
        self.horizon = int(array.size)

    def __call__(self, rank: int) -> complex:
        if rank < 1:
            raise ValueError(f"ranks are 1-based, got {rank}")
        if rank > self.values.size:
            return 0.0
        value = self.values[rank - 1]
        return complex(value) if np.iscomplexobj(self.values) else float(value)

    def as_array(self, n: int, dtype=None) -> np.ndarray:
        array = np.zeros(n + 1, dtype=self.values.dtype)
        used = min(self.values.size, n)
        array[1 : used + 1] = self.values[:used]
        return array.astype(dtype) if dtype is not None else array

    def is_real(self) -> bool:
        return not np.iscomplexobj(self.values)

    def __repr__(self) -> str:
        return f"TabulatedWeight(h={self.horizon})"


class CallableWeight(WeightFunction):
    """Adapter wrapping an arbitrary ``omega(i)`` callable.

    Parameters
    ----------
    func:
        Callable mapping a 1-based rank to a weight.
    horizon:
        Optional index after which the function is known to be zero;
        providing it unlocks the O(n h) PRFomega evaluation path.
    real:
        Whether the callable is real-valued (defaults to True).
    """

    def __init__(self, func: Callable[[int], complex], horizon: int | None = None,
                 real: bool = True) -> None:
        self._func = func
        self.horizon = horizon
        self._real = bool(real)

    def __call__(self, rank: int) -> complex:
        if rank < 1:
            raise ValueError(f"ranks are 1-based, got {rank}")
        return self._func(rank)

    def is_real(self) -> bool:
        return self._real

    def __repr__(self) -> str:
        return f"CallableWeight(horizon={self.horizon})"

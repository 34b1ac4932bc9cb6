"""Polynomial-expansion toolbox (Appendix B of the paper).

The and/xor-tree ranking algorithms repeatedly multiply and expand
polynomials.  Appendix B of the paper discusses three strategies, all of
which are implemented here so that they can be benchmarked against each
other (``benchmarks/bench_ablation_algorithms.py::test_ablation_polynomial_product``):

* :func:`multiply_naive` / :func:`product_naive` — schoolbook
  multiplication, O(n^2) for a product of total degree n;
* :func:`product_divide_and_conquer` — the divide-and-conquer scheme of
  Appendix B.1 that balances factor degrees and multiplies halves with
  FFT-based convolution, O(n log^2 n);
* :func:`expand_expression` — expansion of a *nested* polynomial
  expression (Appendix B.2, Algorithm 2) by evaluating the expression at
  the (n+1)-th roots of unity and applying an inverse DFT, O(n^2) total
  but with only O(n) evaluations of the expression.

Polynomials are represented as 1-D numpy coefficient arrays in increasing
degree order (``poly[d]`` is the coefficient of ``x**d``).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "trim",
    "multiply_naive",
    "multiply_fft",
    "multiply",
    "product_naive",
    "product_divide_and_conquer",
    "evaluate",
    "expand_expression",
    "PolynomialExpression",
]

_FFT_THRESHOLD = 64
_TRIM_TOLERANCE = 1e-12


def trim(poly: np.ndarray, tolerance: float = _TRIM_TOLERANCE) -> np.ndarray:
    """Drop trailing (highest-degree) coefficients that are numerically zero."""
    poly = np.asarray(poly)
    if poly.size == 0:
        return np.zeros(1, dtype=float)
    nonzero = np.nonzero(np.abs(poly) > tolerance)[0]
    if nonzero.size == 0:
        return np.zeros(1, dtype=poly.dtype)
    return poly[: nonzero[-1] + 1]


def multiply_naive(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Schoolbook polynomial multiplication via :func:`numpy.convolve`."""
    a = np.atleast_1d(np.asarray(a))
    b = np.atleast_1d(np.asarray(b))
    return np.convolve(a, b)


def multiply_fft(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """FFT-based polynomial multiplication (circular-convolution free).

    Real inputs produce real outputs; complex inputs are handled with the
    complex FFT.  Tiny imaginary residues from round-off are removed for
    real inputs.
    """
    a = np.atleast_1d(np.asarray(a))
    b = np.atleast_1d(np.asarray(b))
    result_size = a.size + b.size - 1
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        fa = np.fft.fft(a, result_size)
        fb = np.fft.fft(b, result_size)
        return np.fft.ifft(fa * fb)
    fa = np.fft.rfft(a, result_size)
    fb = np.fft.rfft(b, result_size)
    return np.fft.irfft(fa * fb, result_size)


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply two polynomials choosing naive vs FFT by output size."""
    a = np.atleast_1d(np.asarray(a))
    b = np.atleast_1d(np.asarray(b))
    if a.size + b.size - 1 <= _FFT_THRESHOLD:
        return multiply_naive(a, b)
    return multiply_fft(a, b)


def product_naive(polys: Sequence[np.ndarray]) -> np.ndarray:
    """Multiply a list of polynomials left-to-right with schoolbook products."""
    result = np.ones(1, dtype=float)
    for poly in polys:
        result = multiply_naive(result, poly)
    return result


def product_divide_and_conquer(polys: Sequence[np.ndarray]) -> np.ndarray:
    """Multiply a list of polynomials with the Appendix B.1 strategy.

    Factors are recursively partitioned into two groups of roughly equal
    total degree; each group is multiplied recursively and the two halves
    are combined with an FFT product.  The resulting running time is
    O(n log^2 n) where n is the total degree.
    """
    polys = [np.atleast_1d(np.asarray(p)) for p in polys if np.asarray(p).size > 0]
    if not polys:
        return np.ones(1, dtype=float)
    return _product_dc(polys)


def _product_dc(polys: list[np.ndarray]) -> np.ndarray:
    if len(polys) == 1:
        return polys[0]
    if len(polys) == 2:
        return multiply(polys[0], polys[1])
    total_degree = sum(p.size - 1 for p in polys)
    # A single very large factor: peel it off and recurse on the rest,
    # mirroring the first case of the paper's scheme.
    largest_index = max(range(len(polys)), key=lambda i: polys[i].size)
    if polys[largest_index].size - 1 >= total_degree / 3 and len(polys) > 2:
        rest = polys[:largest_index] + polys[largest_index + 1:]
        return multiply(_product_dc(rest), polys[largest_index])
    # Otherwise split into two groups of balanced total degree.
    first: list[np.ndarray] = []
    second: list[np.ndarray] = []
    accumulated = 0
    for poly in polys:
        if accumulated < total_degree / 2:
            first.append(poly)
            accumulated += poly.size - 1
        else:
            second.append(poly)
    if not second:  # All degree concentrated early; force a split.
        second.append(first.pop())
    return multiply(_product_dc(first), _product_dc(second))


def evaluate(poly: np.ndarray, x: complex) -> complex:
    """Evaluate a coefficient-array polynomial at a point (Horner's rule)."""
    poly = np.atleast_1d(np.asarray(poly))
    result: complex = 0.0
    for coefficient in poly[::-1]:
        result = result * x + coefficient
    return complex(result)


class PolynomialExpression:
    """A nested polynomial expression over one variable ``x`` (Appendix B.2).

    Expressions are built compositionally from constants, the variable,
    sums and products, and can be either *evaluated* at a point in linear
    time (in the expression size) or *expanded* into standard coefficient
    form with :func:`expand_expression`.

    Examples
    --------
    >>> x = PolynomialExpression.variable()
    >>> expr = (PolynomialExpression.constant(1) + x) * (x * x)
    >>> expand_expression(expr, max_degree=3).tolist()
    [0.0, 0.0, 1.0, 1.0]
    """

    __slots__ = ("_kind", "_value", "_children")

    def __init__(self, kind: str, value: complex | None, children: tuple) -> None:
        self._kind = kind
        self._value = value
        self._children = children

    # -- constructors ---------------------------------------------------
    @classmethod
    def constant(cls, value: complex) -> "PolynomialExpression":
        return cls("const", value, ())

    @classmethod
    def variable(cls) -> "PolynomialExpression":
        return cls("var", None, ())

    # -- composition ----------------------------------------------------
    def __add__(self, other: "PolynomialExpression") -> "PolynomialExpression":
        other = _coerce_expression(other)
        return PolynomialExpression("add", None, (self, other))

    __radd__ = __add__

    def __mul__(self, other: "PolynomialExpression") -> "PolynomialExpression":
        other = _coerce_expression(other)
        return PolynomialExpression("mul", None, (self, other))

    __rmul__ = __mul__

    # -- evaluation -----------------------------------------------------
    def __call__(self, x: complex) -> complex:
        if self._kind == "const":
            return self._value
        if self._kind == "var":
            return x
        left, right = self._children
        if self._kind == "add":
            return left(x) + right(x)
        return left(x) * right(x)

    def degree_bound(self) -> int:
        """An upper bound on the degree of the expanded polynomial."""
        if self._kind == "const":
            return 0
        if self._kind == "var":
            return 1
        left, right = self._children
        if self._kind == "add":
            return max(left.degree_bound(), right.degree_bound())
        return left.degree_bound() + right.degree_bound()


def _coerce_expression(value) -> PolynomialExpression:
    if isinstance(value, PolynomialExpression):
        return value
    if isinstance(value, (int, float, complex)):
        return PolynomialExpression.constant(value)
    raise TypeError(f"cannot combine PolynomialExpression with {type(value).__name__}")


def expand_expression(
    expression: PolynomialExpression | Callable[[complex], complex],
    max_degree: int | None = None,
) -> np.ndarray:
    """Expand a nested polynomial expression into coefficient form.

    Implements "Algorithm 2" of Appendix B.2: the expression is evaluated
    at the ``(n + 1)``-th roots of unity and the coefficients are recovered
    with an inverse DFT.  This touches the expression only O(n) times and
    needs no symbolic manipulation.

    Parameters
    ----------
    expression:
        A :class:`PolynomialExpression` (whose degree bound is derived
        automatically) or a plain callable, in which case ``max_degree``
        must be supplied.
    max_degree:
        Upper bound on the degree of the result.

    Returns
    -------
    numpy.ndarray
        Real coefficient array of length ``max_degree + 1`` (imaginary
        round-off is discarded; supply complex coefficients through a
        :class:`PolynomialExpression` of complex constants if needed).
    """
    if max_degree is None:
        if not isinstance(expression, PolynomialExpression):
            raise ValueError("max_degree is required when expanding a plain callable")
        max_degree = expression.degree_bound()
    size = int(max_degree) + 1
    points = np.exp(-2j * np.pi * np.arange(size) / size)
    samples = np.array([expression(point) for point in points], dtype=complex)
    # Evaluating at these roots of unity makes `samples` the forward DFT of the
    # coefficient vector, so the inverse FFT recovers the coefficients.
    coefficients = np.fft.ifft(samples)
    if np.max(np.abs(coefficients.imag)) < 1e-8 * max(1.0, np.max(np.abs(coefficients.real))):
        return coefficients.real.copy()
    return coefficients

"""Generating functions over probabilistic and/xor trees (Theorem 1).

Given an and/xor tree and an assignment of variables to its leaves, the
tree's generating function is built bottom-up:

* a leaf contributes its assigned variable (or the constant 1),
* an xor node contributes ``(1 - sum_i p_i) + sum_i p_i F_i``,
* an and node contributes ``prod_i F_i``.

Theorem 1 states that the coefficient of a monomial records the total
probability of the worlds with exactly that many leaves of each variable.
The ranking algorithms only ever need two variables — ``x`` for the
tuples that outscore the tuple of interest and ``y`` for the tuple
itself — and the ``y`` degree never exceeds one, so polynomials are
represented as a pair ``(A, B)`` of univariate coefficient arrays with
``F(x, y) = A(x) + B(x) * y``.

:func:`positional_distribution` builds one tuple's labelling this way.
:func:`positional_probabilities_tree` builds all ``n`` labellings in one
post-order walk instead: every node carries stacked arrays ``(A, B)``
holding every labelling's coefficients side by side, so the tree is
walked once rather than once per tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import numpy as np

from ..algorithms.polynomials import multiply, trim
from ..core.tuples import Tuple
from ..core.weights import clamped_limit
from .tree import AndNode, AndXorTree, LeafNode, Node, XorNode

__all__ = [
    "BivariatePolynomial",
    "generating_function",
    "world_size_distribution",
    "subset_size_distribution",
    "positional_distribution",
    "positional_probabilities_tree",
]

#: Leaf labels accepted by :func:`generating_function`.
LABEL_X = "x"
LABEL_Y = "y"
LABEL_ONE = 1

#: Bound on ``rows * limit`` of one stacked build in
#: :func:`positional_probabilities_tree`: taller matrices are built in row
#: chunks, so each stacked array holds at most this many elements.
_STACK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class BivariatePolynomial:
    """``F(x, y) = A(x) + B(x) * y`` with coefficient arrays ``a`` and ``b``."""

    a: np.ndarray
    b: np.ndarray

    def evaluate(self, x: complex, y: complex) -> complex:
        """Evaluate the polynomial at a point."""
        powers_a = x ** np.arange(self.a.size)
        powers_b = x ** np.arange(self.b.size)
        return complex(np.dot(self.a, powers_a) + y * np.dot(self.b, powers_b))

    def x_coefficients_of_y(self) -> np.ndarray:
        """Coefficients ``c_j`` such that the ``x^j y`` coefficient is ``c_j``."""
        return self.b.copy()


def _truncate(poly: np.ndarray, max_degree: int | None) -> np.ndarray:
    if max_degree is not None and poly.size > max_degree + 1:
        return poly[: max_degree + 1]
    return poly


def _combine_xor(
    node: XorNode,
    child_polys: Iterable[BivariatePolynomial],
    max_degree: int | None,
) -> BivariatePolynomial:
    children = list(zip(node.children, child_polys))
    size_a = max([1] + [poly.a.size for _, poly in children])
    size_b = max([1] + [poly.b.size for _, poly in children])
    a = np.zeros(size_a, dtype=float)
    b = np.zeros(size_b, dtype=float)
    a[0] = node.none_probability
    for (probability, _), poly in children:
        a[: poly.a.size] += probability * poly.a
        b[: poly.b.size] += probability * poly.b
    return BivariatePolynomial(_truncate(trim(a), max_degree), _truncate(trim(b), max_degree))


def _combine_and(
    child_polys: Iterable[BivariatePolynomial],
    max_degree: int | None,
) -> BivariatePolynomial:
    a = np.ones(1, dtype=float)
    b = np.zeros(1, dtype=float)
    for poly in child_polys:
        # (a + b y)(pa + pb y) = a*pa + (a*pb + b*pa) y  [y^2 dropped: at most
        # one leaf carries the y label in every use of this module].
        new_a = multiply(a, poly.a)
        new_b = multiply(a, poly.b)
        cross = multiply(b, poly.a)
        if cross.size > new_b.size:
            cross[: new_b.size] += new_b
            new_b = cross
        else:
            new_b = new_b.copy()
            new_b[: cross.size] += cross
        a = _truncate(trim(new_a), max_degree)
        b = _truncate(trim(new_b), max_degree)
    return BivariatePolynomial(a, b)


def generating_function(
    tree_or_node: AndXorTree | Node,
    labels: Mapping[Any, object],
    max_degree: int | None = None,
) -> BivariatePolynomial:
    """Build the generating function of a tree under a leaf-label assignment.

    Parameters
    ----------
    tree_or_node:
        The tree (or a subtree root) to process.
    labels:
        Mapping from leaf tuple identifier to ``"x"``, ``"y"`` or the
        constant ``1``.  Missing identifiers default to ``1``.  At most one
        leaf may be labelled ``"y"`` (the representation drops ``y^2``
        terms).
    max_degree:
        Optional truncation of the ``x`` degree; coefficients beyond it are
        never needed when only ranks up to ``max_degree + 1`` matter.
    """
    node = tree_or_node.root if isinstance(tree_or_node, AndXorTree) else tree_or_node
    y_count = sum(1 for value in labels.values() if value == LABEL_Y)
    if y_count > 1:
        raise ValueError("at most one leaf may carry the 'y' label")
    return _build(node, labels, max_degree)


def _build(
    node: Node, labels: Mapping[Any, object], max_degree: int | None
) -> BivariatePolynomial:
    if isinstance(node, LeafNode):
        label = labels.get(node.tid, LABEL_ONE)
        if label == LABEL_X:
            return BivariatePolynomial(np.array([0.0, 1.0]), np.array([0.0]))
        if label == LABEL_Y:
            return BivariatePolynomial(np.array([0.0]), np.array([1.0]))
        return BivariatePolynomial(np.array([1.0]), np.array([0.0]))
    child_polys = [_build(child, labels, max_degree) for child in node.children_nodes()]
    if isinstance(node, XorNode):
        return _combine_xor(node, child_polys, max_degree)
    assert isinstance(node, AndNode)
    return _combine_and(child_polys, max_degree)


def world_size_distribution(tree: AndXorTree) -> np.ndarray:
    """``Pr(|pw| = i)`` for ``i = 0 .. n`` (Example 2 of the paper)."""
    labels = {t.tid: LABEL_X for t in tree.tuples()}
    poly = generating_function(tree, labels)
    sizes = np.zeros(len(tree) + 1, dtype=float)
    sizes[: poly.a.size] = poly.a
    return sizes


def subset_size_distribution(tree: AndXorTree, tids: Iterable[Any]) -> np.ndarray:
    """``Pr(|pw intersect S| = i)`` for a subset ``S`` of leaves (Example 3)."""
    subset = set(tids)
    labels = {tid: LABEL_X for tid in subset}
    poly = generating_function(tree, labels)
    sizes = np.zeros(len(subset) + 1, dtype=float)
    sizes[: min(poly.a.size, sizes.size)] = poly.a[: sizes.size]
    return sizes


def positional_distribution(
    tree: AndXorTree,
    tid: Any,
    max_rank: int | None = None,
) -> np.ndarray:
    """Rank distribution ``Pr(r(t) = j)`` of one leaf tuple.

    The leaf of interest is labelled ``y``, leaves with strictly higher
    score (under the package-wide tie-breaking) are labelled ``x``, all
    other leaves are constants; the coefficient of ``x^{j-1} y`` is the
    probability of rank ``j`` (Section 4.2).

    Returns an array of length ``limit + 1`` with index 0 unused.
    """
    ordered = tree.sorted_tuples()
    try:
        position = next(i for i, t in enumerate(ordered) if t.tid == tid)
    except StopIteration:
        raise KeyError(f"no leaf with identifier {tid!r}") from None
    labels: dict[Any, object] = {t.tid: LABEL_X for t in ordered[:position]}
    labels[tid] = LABEL_Y
    limit = clamped_limit(len(ordered), max_rank)
    poly = generating_function(tree, labels, max_degree=max(limit - 1, 0))
    distribution = np.zeros(limit + 1, dtype=float)
    coefficients = poly.x_coefficients_of_y()
    upto = min(coefficients.size, limit)
    distribution[1 : upto + 1] = coefficients[:upto]
    return distribution


def positional_probabilities_tree(
    tree: AndXorTree,
    max_rank: int | None = None,
) -> tuple[list[Tuple], np.ndarray]:
    """Positional probabilities of every leaf of an and/xor tree.

    Returns ``(sorted_tuples, matrix)`` with
    ``matrix[i, j - 1] = Pr(r(sorted_tuples[i]) = j)``, mirroring
    :func:`repro.algorithms.independent.positional_probabilities`.

    Row ``i`` is the labelling of :func:`positional_distribution` for
    ``sorted_tuples[i]``; all rows are built in one stacked walk of the
    tree (see :func:`_build_stacked`).  Every coefficient below
    ``limit`` is summed from the same terms in the same order at any
    ``max_rank``, so a column slice of a wide matrix is bit-identical to
    a fresh narrow one.  Rows are built in chunks of at most
    ``_STACK_ELEMENTS // limit``; rows never mix, so the chunking changes
    no bit either.
    """
    ordered = tree.sorted_tuples()
    n = len(ordered)
    limit = clamped_limit(n, max_rank)
    matrix = np.zeros((n, limit), dtype=float)
    if limit == 0:
        return ordered, matrix
    position = {t.tid: i for i, t in enumerate(ordered)}
    bounds: dict[int, int] = {}
    _degree_bound(tree.root, bounds)
    step = max(1, _STACK_ELEMENTS // limit)
    for start in range(0, n, step):
        stop = min(start + step, n)
        rows = np.arange(start, stop)
        _, b = _build_stacked(tree.root, rows, position, bounds, limit)
        matrix[start:stop, : b.shape[0]] = b.T
    return ordered, matrix


def _degree_bound(node: Node, bounds: dict[int, int]) -> int:
    """Untruncated ``x``-degree bound of every node, keyed by ``id(node)``.

    A leaf has bound 1, an and node the sum of its children's bounds and
    an xor node their maximum.  The bound fixes a node's stacked width
    independently of the rows and of ``limit``.
    """
    if isinstance(node, LeafNode):
        bound = 1
    else:
        child_bounds = [_degree_bound(child, bounds) for child in node.children_nodes()]
        bound = max(child_bounds) if isinstance(node, XorNode) else sum(child_bounds)
    bounds[id(node)] = bound
    return bound


def _build_stacked(
    node: Node,
    rows: np.ndarray,
    position: Mapping[Any, int],
    bounds: Mapping[int, int],
    limit: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ``(A, B)`` of ``node`` for the labellings ``rows``.

    Labelling ``rows[r]`` labels the leaves at sorted positions
    ``< rows[r]`` ``x``, the leaf at ``rows[r]`` ``y`` and the rest ``1``.
    Both arrays are coefficient-major, of shape
    ``(min(limit, bound + 1), rows.size)``: column ``r`` holds labelling
    ``rows[r]``'s coefficients, so every coefficient is one contiguous
    row of the stack.
    """
    shape = (min(limit, bounds[id(node)] + 1), rows.size)
    if isinstance(node, LeafNode):
        at = position[node.tid]
        a = np.zeros(shape, dtype=float)
        b = np.zeros(shape, dtype=float)
        a[0] = rows < at
        if shape[0] > 1:
            a[1] = rows > at
        b[0] = rows == at
        return a, b
    if isinstance(node, XorNode):
        a = np.zeros(shape, dtype=float)
        b = np.zeros(shape, dtype=float)
        a[0] = node.none_probability
        for probability, child in node.children:
            child_a, child_b = _build_stacked(child, rows, position, bounds, limit)
            a[: child_a.shape[0]] += probability * child_a
            b[: child_b.shape[0]] += probability * child_b
        return a, b
    assert isinstance(node, AndNode)
    first, *rest = node.children
    a, b = _build_stacked(first, rows, position, bounds, limit)
    bound = bounds[id(first)]
    for child in rest:
        child_a, child_b = _build_stacked(child, rows, position, bounds, limit)
        child_bound = bounds[id(child)]
        # (a + b y)(a' + b' y) = a a' + (a b' + b a') y  [no y^2: one y leaf].
        # The loop runs over the operand with the smaller untruncated bound,
        # a choice ``limit`` cannot change.
        if bound <= child_bound:
            short_a, short_b, long_a, long_b = a, b, child_a, child_b
        else:
            short_a, short_b, long_a, long_b = child_a, child_b, a, b
        bound += child_bound
        shape = (min(limit, bound + 1), rows.size)
        a = np.zeros(shape, dtype=float)
        b = np.zeros(shape, dtype=float)
        _add_product(a, short_a, long_a)
        _add_product(b, short_a, long_b)
        _add_product(b, short_b, long_a)
    return a, b


def _add_product(out: np.ndarray, short: np.ndarray, long: np.ndarray) -> None:
    """``out += short * long`` per labelling, truncated to ``out``'s width.

    A schoolbook product looping over ``short``'s coefficients, so each
    output coefficient accumulates its terms in ascending index of
    ``short`` whatever the truncation.
    """
    width = out.shape[0]
    term = np.empty((min(long.shape[0], width), out.shape[1]), dtype=float)
    for j in range(min(short.shape[0], width)):
        span = min(long.shape[0], width - j)
        out[j : j + span] += np.multiply(short[j], long[:span], out=term[:span])

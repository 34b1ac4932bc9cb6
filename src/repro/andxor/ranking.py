"""Ranking algorithms over probabilistic and/xor trees (Sections 4.2 and 4.3).

Two evaluation strategies are provided:

* :func:`prf_values_tree` — the general ``ANDXOR-PRF-RANK`` path: positional
  probabilities are obtained from the tree's generating function and
  combined with the weight vector.  All ``n`` tuples' generating
  functions are built in one stacked walk of the tree
  (:func:`~repro.andxor.generating.positional_probabilities_tree`):
  every numpy operation covers all ``n`` tuples, and an and node's
  product takes one operation per coefficient of its lower-degree
  operand, truncated at the horizon ``h``.
* :func:`prfe_values_tree` — the incremental ``ANDXOR-PRFe-RANK`` algorithm
  (Algorithm 3): per inner node the numerical values ``F_v(alpha, alpha)``
  and ``F_v(alpha, 0)`` are maintained and only the two root-paths touched
  by a relabelling are updated each iteration, giving
  O(sum_i depth(t_i) + n log n) overall.

Both return values aligned to the score-descending tuple order;
:func:`rank_tree` wraps them in a :class:`~repro.core.result.RankingResult`
and dispatches on the ranking-function type exactly like the
independent-tuple entry point.
"""

from __future__ import annotations

import heapq
import math
from typing import Any

import numpy as np

from ..core.prf import LinearCombinationPRFe, PRFe, RankingFunction
from ..core.result import RankingResult
from ..core.tuples import Tuple
from .generating import positional_probabilities_tree
from .tree import AndNode, AndXorTree, LeafNode, Node, XorNode

__all__ = [
    "prf_values_tree",
    "prfe_values_tree",
    "prfe_topk_values_tree",
    "prfe_values_tree_recompute",
    "rank_tree",
]

# ---------------------------------------------------------------------------
# General PRF evaluation through positional probabilities
# ---------------------------------------------------------------------------
def prf_values_tree(
    tree: AndXorTree,
    rf: RankingFunction,
    positional: tuple[list[Tuple], np.ndarray] | None = None,
) -> tuple[list[Tuple], np.ndarray]:
    """PRF values of every leaf via the tree's positional probabilities.

    ``positional`` optionally supplies a precomputed ``(ordered, matrix)``
    pair (the engine's cached matrix); it must equal what
    :func:`positional_probabilities_tree` would return for the ranking
    function's horizon.
    """
    if positional is None:
        horizon = rf.weight.horizon
        ordered, matrix = positional_probabilities_tree(tree, max_rank=horizon)
    else:
        ordered, matrix = positional
    limit = matrix.shape[1]
    weights = rf.weight.as_array(limit)[1:]
    dtype = float if rf.is_real() else complex
    weights = weights.astype(dtype)
    values = matrix.astype(dtype) @ weights
    factors = np.array([rf.factor(t) for t in ordered], dtype=float)
    return ordered, values * factors


# ---------------------------------------------------------------------------
# Incremental PRFe evaluation (Algorithm 3)
# ---------------------------------------------------------------------------
class _IndexedTree:
    """Mutable, array-indexed view of an and/xor tree for incremental updates."""

    KIND_LEAF = 0
    KIND_AND = 1
    KIND_XOR = 2

    def __init__(self, tree: AndXorTree) -> None:
        self.kinds: list[int] = []
        self.parents: list[int] = []
        self.edge_probability: list[float] = []  # probability on the edge to the parent
        self.children: list[list[int]] = []
        self.leaf_index: dict[Any, int] = {}
        self.none_probability: list[float] = []
        self._build(tree.root, parent=-1, probability=1.0)

    def _build(self, node: Node, parent: int, probability: float) -> int:
        index = len(self.kinds)
        if isinstance(node, LeafNode):
            kind = self.KIND_LEAF
        elif isinstance(node, AndNode):
            kind = self.KIND_AND
        else:
            kind = self.KIND_XOR
        self.kinds.append(kind)
        self.parents.append(parent)
        self.edge_probability.append(probability)
        self.children.append([])
        self.none_probability.append(
            node.none_probability if isinstance(node, XorNode) else 0.0
        )
        if isinstance(node, LeafNode):
            self.leaf_index[node.tid] = index
        elif isinstance(node, AndNode):
            for child in node.children:
                child_index = self._build(child, index, 1.0)
                self.children[index].append(child_index)
        else:
            assert isinstance(node, XorNode)
            for edge_probability, child in node.children:
                child_index = self._build(child, index, edge_probability)
                self.children[index].append(child_index)
        return index


_SCALE = 2.0**256
_SCALE_INV = 2.0**-256


class _GuardedProduct:
    """Product of child values that tolerates zeros and extreme magnitudes.

    And nodes update their value by multiplying in the new child value
    and dividing out the old one.  Two hazards guard this arithmetic:

    * an exactly-zero child would poison the product, so zeros are
      counted separately and the stored product only covers the non-zero
      factors.  Classification is exact (``value == 0``): the previous
      absolute ``1e-300`` cutoff also swallowed tiny *non-zero* values,
      erasing every PRFe value downstream of a deep subtree with tiny
      leaf probabilities; the guard is now relative to the running
      magnitude instead, via the mantissa/scale split below.
    * a long run of small (or large) factors would under- or overflow
      the stored double, silently collapsing the product to ``0.0`` (or
      ``inf``) in a way later divisions can never undo.  The product is
      therefore kept in normalized form ``mantissa * 2**(256 * scale)``:
      factors and the mantissa are rescaled by exact powers of two into
      ``[2**-256, 2**256]`` before combining, so no intermediate ever
      leaves the representable range.

    Power-of-two rescaling is exact in binary floating point, so
    whenever the true product is representable the value returned is
    bit-identical to the unguarded computation.
    """

    __slots__ = ("mantissa", "scale", "zero_count")

    def __init__(self) -> None:
        self.mantissa: complex = 1.0
        self.scale: int = 0
        self.zero_count: int = 0

    @staticmethod
    def _normalized(value: complex) -> tuple[complex, int]:
        """``value`` rescaled into ``[2**-256, 2**256]`` plus its scale offset."""
        offset = 0
        magnitude = abs(value)
        if not math.isfinite(magnitude):
            return value, 0
        while magnitude > _SCALE:
            value *= _SCALE_INV
            offset += 1
            magnitude = abs(value)
        while magnitude < _SCALE_INV:
            value *= _SCALE
            offset -= 1
            magnitude = abs(value)
        return value, offset

    def _renormalize(self) -> None:
        if not (_SCALE_INV <= abs(self.mantissa) <= _SCALE):
            self.mantissa, offset = self._normalized(self.mantissa)
            self.scale += offset

    def multiply(self, value: complex) -> None:
        if value == 0:
            self.zero_count += 1
            return
        value, offset = self._normalized(value)
        self.mantissa *= value
        self.scale += offset
        self._renormalize()

    def divide(self, value: complex) -> None:
        if value == 0:
            self.zero_count -= 1
            return
        value, offset = self._normalized(value)
        self.mantissa /= value
        self.scale -= offset
        self._renormalize()

    def value(self) -> complex:
        if self.zero_count > 0:
            return 0.0
        result = self.mantissa
        # Re-apply the scale stepwise; readout may under- or overflow, but
        # only when the true product itself lies outside double range.
        for _ in range(abs(self.scale)):
            result *= _SCALE if self.scale > 0 else _SCALE_INV
            if result == 0:
                break
        return result


def _prfe_alpha_value(alpha: complex) -> tuple[complex, type]:
    # Same normalization the pre-refactor prfe_values_tree applied inline:
    # a real (or zero-imaginary-complex) alpha runs the float arithmetic.
    use_complex = isinstance(alpha, complex) and alpha.imag != 0.0
    alpha_value: complex = complex(alpha) if use_complex else float(np.real(alpha))
    return alpha_value, (complex if use_complex else float)


def _prfe_steps(tree: AndXorTree, ordered: list[Tuple], alpha_value, dtype):
    """Per-iteration stream of Algorithm 3 over ``ordered``.

    Yields one ``(value, prefix_expectation)`` pair per score-sorted leaf:
    ``value = F^i(alpha, alpha) - F^i(alpha, 0)`` is the leaf's PRFe value
    and ``prefix_expectation = F^i(alpha, alpha)`` — the root value with
    every leaf of the examined prefix labelled ``alpha`` — equals
    ``E[alpha^{C_{i+1}}]`` where ``C_{i+1}`` counts the present tuples
    among the ``i + 1`` highest-score leaves.  The full evaluator sums the
    stream to the end; the top-k evaluator stops once the running k-th
    best value beats ``alpha * prefix_expectation``, the upper bound on
    every unexamined leaf's value.  The arithmetic per iteration is
    exactly the pre-refactor loop body, so consumed prefixes are
    bit-identical to prefixes of the full evaluation.
    """
    indexed = _IndexedTree(tree)

    num_nodes = len(indexed.kinds)
    # node_value[s][v] with s = 0 for the (alpha, alpha) evaluation and
    # s = 1 for the (alpha, 0) evaluation.
    node_value = [np.ones(num_nodes, dtype=dtype) for _ in range(2)]
    and_products = [
        [
            _GuardedProduct() if kind == _IndexedTree.KIND_AND else None
            for kind in indexed.kinds
        ]
        for _ in range(2)
    ]

    # Initial pass: every leaf carries the constant label 1 (value 1 at both
    # evaluation points).  Nodes are indexed in pre-order, so children have
    # larger indices than their parent and a decreasing-index sweep visits
    # children before parents.
    for index in range(num_nodes - 1, -1, -1):
        kind = indexed.kinds[index]
        if kind == _IndexedTree.KIND_LEAF:
            for s in range(2):
                node_value[s][index] = 1.0
            continue
        if kind == _IndexedTree.KIND_AND:
            for s in range(2):
                product = and_products[s][index]
                for child in indexed.children[index]:
                    product.multiply(node_value[s][child])
                node_value[s][index] = product.value()
            continue
        # xor node
        for s in range(2):
            total = indexed.none_probability[index]
            for child in indexed.children[index]:
                total += indexed.edge_probability[child] * node_value[s][child]
            node_value[s][index] = total

    def update_path(leaf: int, new_values: tuple[complex, complex]) -> None:
        """Propagate a leaf relabelling along its root path."""
        old_values = [node_value[s][leaf] for s in range(2)]
        for s in range(2):
            node_value[s][leaf] = new_values[s]
        child = leaf
        parent = indexed.parents[leaf]
        child_old = old_values
        child_new = list(new_values)
        while parent >= 0:
            parent_old = [node_value[s][parent] for s in range(2)]
            if indexed.kinds[parent] == _IndexedTree.KIND_AND:
                for s in range(2):
                    product = and_products[s][parent]
                    product.divide(child_old[s])
                    product.multiply(child_new[s])
                    node_value[s][parent] = product.value()
            else:  # xor
                probability = indexed.edge_probability[child]
                for s in range(2):
                    node_value[s][parent] = node_value[s][parent] + probability * (
                        child_new[s] - child_old[s]
                    )
            child_old = parent_old
            child_new = [node_value[s][parent] for s in range(2)]
            child = parent
            parent = indexed.parents[parent]

    root = 0
    for i, t in enumerate(ordered):
        if i > 0:
            previous_leaf = indexed.leaf_index[ordered[i - 1].tid]
            update_path(previous_leaf, (alpha_value, alpha_value))
        leaf = indexed.leaf_index[t.tid]
        update_path(leaf, (alpha_value, 0.0))
        yield node_value[0][root] - node_value[1][root], node_value[0][root]


def prfe_values_tree(
    tree: AndXorTree, alpha: complex
) -> tuple[list[Tuple], np.ndarray]:
    """PRFe(alpha) values of every leaf by the incremental Algorithm 3.

    Returns ``(sorted_tuples, values)`` with
    ``values[i] = F^i(alpha, alpha) - F^i(alpha, 0)``, i.e. the PRFe value
    of the i-th tuple in descending-score order.
    """
    ordered = tree.sorted_tuples()
    alpha_value, dtype = _prfe_alpha_value(alpha)
    values = np.zeros(len(ordered), dtype=dtype)
    for i, (value, _) in enumerate(_prfe_steps(tree, ordered, alpha_value, dtype)):
        values[i] = value
    return ordered, values


def prfe_topk_values_tree(
    tree: AndXorTree, alpha: float, k: int, safety: float = 1.0 + 1e-9
) -> tuple[list[Tuple], np.ndarray, int, float]:
    """Early-terminated Algorithm 3 for a real-alpha top-k query.

    Consumes :func:`_prfe_steps` leaf by leaf and stops once the k-th
    largest confirmed ``|value|`` strictly exceeds ``safety * alpha *
    F^i(alpha, alpha)`` — an upper bound on every unexamined leaf's value
    (any such leaf requires its ``D >= C_{i+1}`` higher-score leaves
    present, and ``alpha < 1`` decays geometrically in the count).  The
    ``safety`` inflation absorbs the guarded-product rounding of the
    bound itself.  Returns ``(sorted_tuples, values_prefix, examined,
    bound)`` with ``bound`` the last bound evaluated (an upper bound on
    every leaf beyond the examined prefix, reusable to certify other
    ``k`` against the same prefix); the prefix values are bit-identical
    to the same slice of :func:`prfe_values_tree`.
    """
    ordered = tree.sorted_tuples()
    n = len(ordered)
    alpha_value, dtype = _prfe_alpha_value(alpha)
    values = np.zeros(n, dtype=dtype)
    best: list[float] = []
    examined = 0
    bound = math.inf
    for i, (value, prefix_expectation) in enumerate(
        _prfe_steps(tree, ordered, alpha_value, dtype)
    ):
        values[i] = value
        examined = i + 1
        magnitude = abs(float(value))
        if len(best) < k:
            heapq.heappush(best, magnitude)
        elif magnitude > best[0]:
            heapq.heapreplace(best, magnitude)
        if len(best) == k and examined < n:
            bound = safety * float(alpha_value) * float(prefix_expectation)
            if best[0] > bound:
                break
    return ordered, values[:examined], examined, bound


def prfe_values_tree_recompute(
    tree: AndXorTree, alpha: complex
) -> tuple[list[Tuple], np.ndarray]:
    """Non-incremental PRFe evaluation used as the ablation baseline.

    For every tuple the full generating function is re-evaluated at
    ``(alpha, alpha)`` and ``(alpha, 0)`` — an O(n * |tree|) strategy that
    Algorithm 3 improves on by sharing work across iterations.
    """
    ordered = tree.sorted_tuples()
    use_complex = isinstance(alpha, complex) and alpha.imag != 0.0
    alpha_value: complex = complex(alpha) if use_complex else float(np.real(alpha))
    dtype = complex if use_complex else float
    values = np.zeros(len(ordered), dtype=dtype)
    labels: dict[Any, object] = {}

    def evaluate(node: Node, y_value: complex) -> complex:
        if isinstance(node, LeafNode):
            label = labels.get(node.tid, 1)
            if label == "x":
                return alpha_value
            if label == "y":
                return y_value
            return 1.0
        if isinstance(node, AndNode):
            result: complex = 1.0
            for child in node.children:
                result *= evaluate(child, y_value)
            return result
        assert isinstance(node, XorNode)
        total: complex = node.none_probability
        for probability, child in node.children:
            total += probability * evaluate(child, y_value)
        return total

    for i, t in enumerate(ordered):
        labels[t.tid] = "y"
        values[i] = evaluate(tree.root, alpha_value) - evaluate(tree.root, 0.0)
        labels[t.tid] = "x"
    return ordered, values


# ---------------------------------------------------------------------------
# Top-level entry point
# ---------------------------------------------------------------------------
def rank_tree(tree: AndXorTree, rf: RankingFunction, name: str = "") -> RankingResult:
    """Rank the leaves of an and/xor tree by any PRF-family ranking function."""
    if isinstance(rf, PRFe):
        ordered, values = prfe_values_tree(tree, rf.alpha)
        return RankingResult.from_values(ordered, values.tolist(), name=name or tree.name)
    if isinstance(rf, LinearCombinationPRFe):
        ordered = tree.sorted_tuples()
        total = np.zeros(len(ordered), dtype=complex)
        for coefficient, alpha in rf.terms():
            _, values = prfe_values_tree(tree, alpha)
            total = total + coefficient * values.astype(complex)
        return RankingResult.from_values(ordered, total.tolist(), name=name or tree.name)
    ordered, values = prf_values_tree(tree, rf)
    return RankingResult.from_values(ordered, values.tolist(), name=name or tree.name)

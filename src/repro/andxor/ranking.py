"""Ranking algorithms over probabilistic and/xor trees (Sections 4.2 and 4.3).

Two evaluation strategies exist:

* the general ``ANDXOR-PRF-RANK`` path: positional probabilities are
  obtained from the tree's generating function
  (:func:`~repro.andxor.generating.positional_probabilities_tree`, all
  ``n`` tuples in one stacked walk of the tree) and combined with the
  weight vector by
  :meth:`~repro.core.prf.RankingFunction.evaluate_positional`;
* :func:`prfe_values_tree` / :func:`prfe_values_stacked` —
  ``ANDXOR-PRFe-RANK`` (Algorithm 3): the PRFe value of the i-th tuple is
  ``F^i(alpha, alpha) - F^i(alpha, 0)``, the tree's generating function
  evaluated at numbers under the i-th labelling.  Every labelling row and
  every alpha are evaluated in one post-order walk of the tree, the nodes
  of one height and kind together.  A node's value only changes at the
  rows where a leaf below it changes label (a leaf changes at its own
  row and the next), so each node stores its value at those rows only:
  ``O(nodes + n * depth)`` slots per alpha, Algorithm 3's bound, instead
  of the dense ``n * nodes``.  Xor nodes add up their children's changes
  with a segmented running sum; and nodes multiply up their children's
  change ratios with an exact zero count and a mantissa/exponent split
  (see :func:`_and_values`).  Both running scans double their stride
  each step, so the work is ``O(log n)`` numpy passes over those slots.
  :func:`prfe_topk_values_stacked` runs the same walk on growing row
  prefixes for top-k queries.

Values are aligned to the score-descending tuple order.  The engine's
and/xor backend picks the strategy per ranking function and caches what
it builds; :func:`rank_tree` is an engine call.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..core.prf import RankingFunction
from ..core.result import RankingResult
from ..core.tuples import Tuple
from .tree import AndNode, AndXorTree, LeafNode, Node, XorNode

__all__ = [
    "PRFeLayout",
    "prfe_values_stacked",
    "prfe_values_tree",
    "prfe_topk_values_stacked",
    "prfe_values_tree_recompute",
    "rank_tree",
]

# ---------------------------------------------------------------------------
# Stacked PRFe evaluation (Algorithm 3 over rows x alpha)
# ---------------------------------------------------------------------------
_LEAF, _AND, _XOR = 0, 1, 2

#: Bound on ``slots * 2 * alphas`` of one stacked evaluation: longer alpha
#: lists run in alpha chunks.  Alphas never mix, so chunking changes no bit.
_STACK_ELEMENTS = 1 << 22

#: Smallest row prefix :func:`prfe_topk_values_stacked` evaluates; later
#: prefixes double until the bound certifies or every row is covered.
_TOPK_MIN_ROWS = 64

#: Doubling-scan steps between renormalizations of an and node's mantissas.
_RENORMALIZE_STEPS = 8


class PRFeLayout:
    """The alpha-independent flat form of an and/xor tree for stacked PRFe.

    Nodes are numbered by ``(height, kind, pre-order)``: leaves (height 1)
    come first in tree order, and the inner nodes of one height and kind
    form a contiguous id range evaluated together.  Per node the layout
    keeps the parent, the probability on the edge to it and the initial
    value ``F_v(1, 1)`` (every leaf labelled 1, the state before row 0);
    per leaf its position in descending score order, ties broken by tree
    order as in :meth:`AndXorTree.sorted_tuples`.  :meth:`plan` adds the
    row structure of a prefix of the labelling rows.
    """

    def __init__(self, tree: AndXorTree) -> None:
        kinds: list[int] = []
        parents: list[int] = []
        edges: list[float] = []
        initial: list[float] = []
        depths: list[int] = []
        scores: list[float] = []
        stack: list[tuple[Node, int, float]] = [(tree.root, -1, 1.0)]
        while stack:
            node, parent, probability = stack.pop()
            index = len(kinds)
            parents.append(parent)
            edges.append(probability)
            depths.append(depths[parent] + 1 if parent >= 0 else 0)
            if isinstance(node, LeafNode):
                kinds.append(_LEAF)
                initial.append(1.0)
                scores.append(node.item.score)
            elif isinstance(node, AndNode):
                kinds.append(_AND)
                initial.append(1.0)
                stack.extend((child, index, 1.0) for child in reversed(node.children))
            else:
                assert isinstance(node, XorNode)
                kinds.append(_XOR)
                initial.append(node.none_probability)
                stack.extend((child, index, p) for p, child in reversed(node.children))
        kind = np.array(kinds, dtype=np.int64)
        parent = np.array(parents, dtype=np.int64)
        probability = np.array(edges, dtype=float)
        value = np.array(initial, dtype=float)
        depth = np.array(depths, dtype=np.int64)
        height = np.ones(kind.size, dtype=np.int64)
        # Deepest nodes first; siblings in tree order, so every initial
        # value accumulates its children in the order a post-order walk would.
        for level in range(int(depth.max()), 0, -1):
            nodes = np.flatnonzero(depth == level)
            up = parent[nodes]
            np.maximum.at(height, up, height[nodes] + 1)
            xor = kind[up] == _XOR
            np.add.at(value, up[xor], probability[nodes[xor]] * value[nodes[xor]])
            np.multiply.at(value, up[~xor], value[nodes[~xor]])
        new_to_old = np.lexsort((np.arange(kind.size), kind, height))
        old_to_new = np.empty_like(new_to_old)
        old_to_new[new_to_old] = np.arange(kind.size)
        parent = parent[new_to_old]
        self.kind = kind[new_to_old]
        self.parent = np.where(parent >= 0, old_to_new[parent], -1)
        self.probability = probability[new_to_old]
        self.initial = value[new_to_old]
        self.root = int(old_to_new[0])
        self.n = len(scores)
        order = np.argsort(-np.array(scores, dtype=float), kind="stable")
        self.position = np.empty(self.n, dtype=np.int64)
        self.position[order] = np.arange(self.n)
        key = height[new_to_old] * 3 + self.kind
        bounds = np.append(np.flatnonzero(np.diff(key, prepend=-1)), key.size)
        #: ``(kind, first id, stop id)`` of every inner group, by ascending height.
        self.groups = [
            (int(self.kind[first]), int(first), int(stop))
            for first, stop in zip(bounds[:-1], bounds[1:])
            if self.kind[first] != _LEAF
        ]
        self._plans: dict[int, _RowPlan] = {}

    @property
    def nbytes(self) -> int:
        """Bytes held by the layout, its kept plans included."""
        arrays = (self.kind, self.parent, self.probability, self.initial, self.position)
        plans = sum(plan.nbytes for plan in list(self._plans.values()))
        return sum(array.nbytes for array in arrays) + plans

    def plan(self, rows: int) -> "_RowPlan":
        """The row structure of labelling rows ``0 .. rows - 1``, built once per ``rows``.

        Callers ask for ``n`` rows and for power-of-two prefixes, so the
        kept plans hold at most about twice the full plan's indices.
        """
        plan = self._plans.get(rows)
        if plan is None:
            plan = self._plans.setdefault(rows, _RowPlan(self, rows))
        return plan


@dataclass(frozen=True)
class _Group:
    """The inner nodes of one height and kind: slots ``[lo, hi)`` of the stack.

    ``src`` lists the (absolute) slot of every child breakpoint, ``dst``
    its parent's slot at the same row, relative to ``lo``, and ``weight``
    the child's edge probability.  The events are sorted into rounds,
    ``rounds[r]:rounds[r + 1]`` holding each parent slot's ``r``-th event
    by child order (a row relabels two leaves, so there are at most two
    rounds); a parent slot's events apply round by round.  ``init`` and
    ``initial`` give each node's initial slot (relative) and value,
    ``owner`` every slot's node's initial slot, and ``masks[s]`` flags the
    slots at least ``2**s`` after their node's initial slot (the
    doubling-scan steps; ``None`` when every slot from ``2**s`` on is
    flagged).
    """

    xor: bool
    lo: int
    hi: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    rounds: list[int]
    init: np.ndarray
    initial: np.ndarray
    owner: np.ndarray
    masks: list[np.ndarray | None]


class _RowPlan:
    """Where every node's value changes over the labelling rows ``0 .. rows - 1``.

    Row ``i`` labels the leaves at sorted positions ``< i`` with ``x``, the
    leaf at ``i`` with ``y`` and the rest with 1, so a leaf changes value
    only at rows ``pos`` and ``pos + 1`` (its *breakpoints*) and an inner
    node only at its leaves' breakpoints.  Each node owns one slot for its
    initial value followed by one per breakpoint, ascending by row:
    storage is ``O(nodes + rows * depth)``, Algorithm 3's bound, not
    ``rows * nodes``.  Every breakpoint of a non-root node is an *event*
    of its parent: at that row the child moves from the slot before to its
    own.  A plan of a row prefix holds exactly the full plan's slots of
    rows below it, in the same order.
    """

    def __init__(self, layout: PRFeLayout, rows: int) -> None:
        n = layout.n
        nodes = np.concatenate([np.arange(n), np.arange(n)])
        at = np.concatenate([layout.position, layout.position + 1])
        keep = at < rows
        nodes, at = nodes[keep], at[keep]
        parts = []
        while nodes.size:
            parts.append(nodes * rows + at)
            up = layout.parent[nodes]
            keep = up >= 0
            nodes, at = up[keep], at[keep]
        keys = np.unique(np.concatenate(parts))
        node, row = np.divmod(keys, rows)
        count = layout.kind.size
        # Breakpoint ``u`` sits after the initial slots of nodes ``0 ..
        # node[u]`` and the ``u`` breakpoints before it.
        start = np.arange(count) + np.searchsorted(node, np.arange(count))
        slot = np.arange(keys.size) + node + 1
        self.slots = count + keys.size
        leaf = node < n
        pos = layout.position[node[leaf]]
        #: Leaf slots: initial (value 1), own row (``(alpha, 0)``), next row
        #: (``(alpha, alpha)``).
        self.leaf_start = start[:n]
        self.leaf_y = slot[leaf][row[leaf] == pos]
        self.leaf_x = slot[leaf][row[leaf] != pos]
        #: The root's slot at every row (the root changes at each one).
        self.root = start[layout.root] + 1 + np.arange(rows)
        up = layout.parent[node]
        event = up >= 0
        up, src = up[event], slot[event]
        dst = np.searchsorted(keys, up * rows + row[event]) + up + 1
        weight = layout.probability[node[event]]
        order = np.lexsort((src, dst))
        src, dst, weight = src[order], dst[order], weight[order]
        # Each event's rank among its parent slot's events.
        first = np.flatnonzero(np.diff(dst, prepend=-1))
        rounds = np.arange(dst.size) - np.repeat(first, np.diff(np.append(first, dst.size)))
        bounds = np.append(start, self.slots)
        self.groups = []
        for kind, first_id, stop_id in layout.groups:
            lo, hi = int(bounds[first_id]), int(bounds[stop_id])
            a, b = np.searchsorted(dst, [lo, hi])
            slots = np.arange(lo, hi)
            owner = start[np.searchsorted(start, slots, side="right") - 1]
            offset = slots - owner
            chosen = a + np.argsort(rounds[a:b], kind="stable")
            counts = np.bincount(rounds[a:b])
            masks = []
            step = 1
            while step <= offset.max():
                mask = offset[step:] >= step
                masks.append(None if mask.all() else mask[:, None, None])
                step *= 2
            self.groups.append(
                _Group(
                    xor=kind == _XOR,
                    lo=lo,
                    hi=hi,
                    src=src[chosen],
                    dst=dst[chosen] - lo,
                    weight=weight[chosen],
                    rounds=[0, *np.cumsum(counts).tolist()],
                    init=start[first_id:stop_id] - lo,
                    initial=layout.initial[first_id:stop_id],
                    owner=owner - lo,
                    masks=masks,
                )
            )
        arrays = [self.leaf_start, self.leaf_y, self.leaf_x, self.root]
        for group in self.groups:
            arrays += [group.src, group.dst, group.weight, group.init, group.owner]
            arrays += [mask for mask in group.masks if mask is not None]
        #: Bytes held by the plan's index arrays.
        self.nbytes = sum(array.nbytes for array in arrays)


def _split(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``values = mantissa * 2**exponent``, the mantissa's larger part in [0.5, 1).

    Complex values share one exponent between their real and imaginary
    parts.  Scaling by a power of two is exact, so nothing is rounded.
    """
    if not np.iscomplexobj(values):
        return np.frexp(values)
    _, exponent = np.frexp(np.maximum(np.abs(values.real), np.abs(values.imag)))
    mantissa = np.empty_like(values)
    mantissa.real = np.ldexp(values.real, -exponent)
    mantissa.imag = np.ldexp(values.imag, -exponent)
    return mantissa, exponent


def _join(mantissa: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """``mantissa * 2**exponent``, rounded once (to a subnormal, zero or inf if it must)."""
    if not np.iscomplexobj(mantissa):
        return np.ldexp(mantissa, exponent)
    value = np.empty_like(mantissa)
    value.real = np.ldexp(mantissa.real, exponent)
    value.imag = np.ldexp(mantissa.imag, exponent)
    return value


def _xor_values(group: _Group, stack: np.ndarray) -> np.ndarray:
    """Xor nodes: the initial value plus the running sum of ``p * (new - old)``.

    The running sum is a segmented Hillis–Steele scan: step ``2**s`` adds
    to every slot the one ``2**s`` before it in the same node.  A slot's
    result depends only on its node's slots up to it and on its offset,
    so a row-prefix plan reproduces the full plan's bits, and every alpha
    column goes through the same elementwise operations whatever else is
    stacked.
    """
    values = np.empty((group.hi - group.lo, *stack.shape[1:]), dtype=stack.dtype)
    values[group.init] = group.initial[:, None, None]
    change = group.weight[:, None, None] * (stack[group.src] - stack[group.src - 1])
    for r, (a, b) in enumerate(zip(group.rounds, group.rounds[1:])):
        if r:
            values[group.dst[a:b]] += change[a:b]
        else:
            values[group.dst[a:b]] = change[a:b]
    for step, mask in enumerate(group.masks):
        shift = 1 << step
        values[shift:] += values[:-shift] if mask is None else np.where(mask, values[:-shift], 0)
    return values


def _and_values(group: _Group, stack: np.ndarray) -> np.ndarray:
    """And nodes: the running product of the children's ``new / old`` ratios.

    Two hazards guard the product.  An exactly-zero child would poison
    it, so zeros are counted per slot, exactly, in integers, and left out
    of the product.  A long run of small (or large) factors would under-
    or overflow a plain running product, so it is kept as a mantissa and
    an integer exponent.  Every slot's mantissa starts within ``2**±3`` (at most two
    ratios of mantissas from :func:`_split`), and a scan step multiplies
    two slots, so ``k`` steps after the mantissas were last all
    renormalized each is a product of at most ``2**k`` such factors.
    Renormalizing every slot with :func:`_split` every
    ``_RENORMALIZE_STEPS`` (8) steps keeps them inside ``2**±768``, where
    power-of-two scaling is exact, so the schedule changes no bit.  The
    value is rebuilt once per slot, exact to rounding whenever the true
    product is representable.  The scan is the doubling scan of
    :func:`_xor_values`.
    """
    shape = (group.hi - group.lo, *stack.shape[1:])
    mantissa = np.empty(shape, dtype=stack.dtype)
    exponent = np.empty(shape, dtype=np.int64)
    zeros = np.zeros(shape, dtype=np.int64)
    initial_mantissa, initial_exponent = np.frexp(group.initial)
    mantissa[group.init] = initial_mantissa[:, None, None]
    exponent[group.init] = initial_exponent[:, None, None]
    new, old = stack[group.src], stack[group.src - 1]
    new_zero, old_zero = new == 0, old == 0
    new_mantissa, new_exponent = _split(np.where(new_zero, 1, new))
    old_mantissa, old_exponent = _split(np.where(old_zero, 1, old))
    ratio = new_mantissa / old_mantissa
    scale = new_exponent - old_exponent
    count = new_zero.astype(np.int64) - old_zero
    for r, (a, b) in enumerate(zip(group.rounds, group.rounds[1:])):
        dst = group.dst[a:b]
        if r:
            mantissa[dst] *= ratio[a:b]
            exponent[dst] += scale[a:b]
            zeros[dst] += count[a:b]
        else:
            mantissa[dst] = ratio[a:b]
            exponent[dst] = scale[a:b]
            zeros[dst] = count[a:b]
    # Zero counts are integers: a plain running sum per node is exact.
    zeros = np.cumsum(zeros, axis=0)
    zeros -= zeros[group.owner]
    for step, mask in enumerate(group.masks):
        shift = 1 << step
        product = mantissa[:-shift] * mantissa[shift:]
        total = exponent[:-shift] + exponent[shift:]
        if mask is None:
            mantissa[shift:], exponent[shift:] = product, total
        else:
            mantissa[shift:] = np.where(mask, product, mantissa[shift:])
            exponent[shift:] = np.where(mask, total, exponent[shift:])
        if step % _RENORMALIZE_STEPS == _RENORMALIZE_STEPS - 1:
            mantissa, carry = _split(mantissa)
            exponent += carry
    return np.where(zeros > 0, 0, _join(mantissa, exponent))


def _root_values(plan: _RowPlan, alphas: np.ndarray) -> np.ndarray:
    """``(rows, 2, A)``: ``F^i(alpha, alpha)`` and ``F^i(alpha, 0)`` at the root.

    One post-order walk over the plan's groups, every row and every
    alpha of ``alphas`` (one dtype) at once.
    """
    stack = np.empty((plan.slots, 2, alphas.size), dtype=alphas.dtype)
    stack[plan.leaf_start] = 1.0
    stack[plan.leaf_y, 0] = alphas
    stack[plan.leaf_y, 1] = 0.0
    stack[plan.leaf_x] = alphas
    for group in plan.groups:
        evaluate = _xor_values if group.xor else _and_values
        stack[group.lo : group.hi] = evaluate(group, stack)
    return stack[plan.root]


def _alpha_value(alpha: complex) -> complex:
    """The arithmetic ``alpha`` runs in: float unless its imaginary part is nonzero."""
    if isinstance(alpha, complex) and alpha.imag != 0.0:
        return complex(alpha)
    return float(np.real(alpha))


def prfe_values_stacked(layout: PRFeLayout, alphas: Sequence[complex]) -> list[np.ndarray]:
    """PRFe values of every score-sorted leaf, one array per alpha.

    ``values[i] = F^i(alpha, alpha) - F^i(alpha, 0)``.  Real alphas (and
    complex ones with zero imaginary part) run in float arithmetic, the
    others in complex; each kind runs in one stacked evaluation (alpha
    chunks bounded by ``_STACK_ELEMENTS``).  A column's arithmetic does not
    depend on the other alphas, so every alpha gets the same bits alone
    or stacked.
    """
    values = [_alpha_value(alpha) for alpha in alphas]
    columns = [np.zeros(0, dtype=type(value)) for value in values]
    if layout.n == 0:
        return columns
    plan = layout.plan(layout.n)
    step = max(1, _STACK_ELEMENTS // (2 * plan.slots))
    for dtype in (float, complex):
        indices = [i for i, value in enumerate(values) if type(value) is dtype]
        for chunk in range(0, len(indices), step):
            part = indices[chunk : chunk + step]
            root = _root_values(plan, np.array([values[i] for i in part], dtype=dtype))
            difference = root[:, 0] - root[:, 1]
            for column, i in enumerate(part):
                columns[i] = difference[:, column].copy()
    return columns


def prfe_values_tree(
    tree: AndXorTree, alpha: complex
) -> tuple[list[Tuple], np.ndarray]:
    """PRFe(alpha) values of every leaf by the stacked Algorithm 3.

    Returns ``(sorted_tuples, values)`` with
    ``values[i] = F^i(alpha, alpha) - F^i(alpha, 0)``, i.e. the PRFe value
    of the i-th tuple in descending-score order.
    """
    return tree.sorted_tuples(), prfe_values_stacked(PRFeLayout(tree), [alpha])[0]


def prfe_topk_values_stacked(
    layout: PRFeLayout, alpha: float, k: int, safety: float = 1.0 + 1e-9
) -> tuple[np.ndarray, int, float]:
    """Row-prefix evaluation of a real-alpha top-k query.

    Evaluates rows ``0 .. m - 1``, ``m`` the least power of two no smaller
    than ``k`` and ``_TOPK_MIN_ROWS``, then doubles ``m``.  After each
    prefix the new rows are scanned in order against the running k best
    ``|value|``, and the scan stops at the first row ``i`` where the k-th
    best strictly exceeds ``safety * alpha * F^i(alpha, alpha)`` — an
    upper bound on every later leaf's value (any such leaf requires its
    ``D >= C_{i+1}`` higher-score leaves present, and ``alpha < 1``
    decays geometrically in the count).  The ``safety`` inflation absorbs
    the rounding of the bound itself.  Returns
    ``(values_prefix, examined, bound)`` with ``bound`` the last bound
    evaluated (an upper bound on every leaf beyond the examined prefix,
    reusable to certify other ``k`` against the same prefix).  A prefix
    plan computes exactly the full plan's bits, so the values are the
    same slice of :func:`prfe_values_stacked`.
    """
    n = layout.n
    alpha_value = float(np.real(alpha))
    alphas = np.array([alpha_value])
    best: list[float] = []
    bound = math.inf
    values = np.zeros(0)
    # Power-of-two prefixes: the layout keeps one plan per prefix length.
    done, rows = 0, min(n, 1 << (max(k, _TOPK_MIN_ROWS) - 1).bit_length())
    while done < rows:
        root = _root_values(layout.plan(rows), alphas)[:, :, 0]
        values = root[:, 0] - root[:, 1]
        magnitudes = np.abs(values[done:]).tolist()
        expectations = root[done:, 0].tolist()
        for i, magnitude, expectation in zip(range(done, rows), magnitudes, expectations):
            if len(best) < k:
                heapq.heappush(best, magnitude)
            elif magnitude > best[0]:
                heapq.heapreplace(best, magnitude)
            if len(best) == k > 0 and i + 1 < n:
                bound = safety * alpha_value * expectation
                if best[0] > bound:
                    return values[: i + 1], i + 1, bound
        done, rows = rows, min(n, 2 * rows)
    return values, n, bound


def prfe_values_tree_recompute(
    tree: AndXorTree, alpha: complex
) -> tuple[list[Tuple], np.ndarray]:
    """Non-incremental PRFe evaluation used as the ablation baseline.

    For every tuple the full generating function is re-evaluated at
    ``(alpha, alpha)`` and ``(alpha, 0)`` — an O(n * |tree|) strategy that
    the stacked Algorithm 3 improves on by touching each node only at the
    rows where a leaf below it changes label.
    """
    ordered = tree.sorted_tuples()
    alpha_value = _alpha_value(alpha)
    values = np.zeros(len(ordered), dtype=type(alpha_value))
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
    """Rank the leaves of an and/xor tree by any PRF-family ranking function.

    ``Engine().rank(tree, rf, name=name)``.
    """
    # Imported here: the engine's and/xor backend imports this module.
    from ..engine import Engine

    return Engine().rank(tree, rf, name=name)

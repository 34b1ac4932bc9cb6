"""Synthetic dataset generators used by the paper's experiments (Section 8).

Five synthetic families are used in the evaluation:

* **Syn-IND** — independent tuples with uniform probabilities and scores;
* **Syn-XOR** — x-tuples: groups of mutually exclusive alternatives
  coexisting independently (an and/xor tree of height 2 below the root);
* **Syn-LOW / Syn-MED / Syn-HIGH** — random and/xor trees of increasing
  height, fan-out and xor/and mix, giving progressively stronger
  correlations.

The tree generators follow the paper's parameterization: the tree height
``L``, the maximum node degree ``d`` and the xor-to-and node ratio
``X/A``; scores are uniform in ``[0, 10000]``.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..andxor.tree import AndNode, AndXorTree, LeafNode, Node, XorNode
from ..core.columnar import ColumnarRelation
from ..core.tuples import ProbabilisticRelation, Tuple

__all__ = [
    "TreeShape",
    "generate_independent",
    "generate_x_tuples",
    "generate_random_tree",
    "syn_ind",
    "syn_xor",
    "syn_low",
    "syn_med",
    "syn_high",
    "SYNTHETIC_FAMILIES",
]

_SCORE_RANGE = (0.0, 10_000.0)


@dataclass(frozen=True)
class TreeShape:
    """Shape parameters of a random and/xor tree (paper notation L, d, X/A)."""

    height: int
    max_degree: int
    xor_to_and_ratio: float

    def xor_probability(self) -> float:
        """Probability that a generated inner node is an xor node."""
        if np.isinf(self.xor_to_and_ratio):
            return 1.0
        return self.xor_to_and_ratio / (1.0 + self.xor_to_and_ratio)


def _random_scores(count: int, rng: np.random.Generator) -> np.ndarray:
    low, high = _SCORE_RANGE
    return rng.uniform(low, high, size=count)


def generate_independent(
    n: int,
    rng: np.random.Generator | int | None = None,
    name: str = "Syn-IND",
    columnar: bool = False,
) -> ProbabilisticRelation | ColumnarRelation:
    """Syn-IND: ``n`` independent tuples, uniform scores and probabilities.

    With ``columnar`` set the drawn arrays are adopted directly into a
    :class:`~repro.core.columnar.ColumnarRelation` — no per-tuple Python
    objects are ever built, so ``n`` in the ``10**6``–``10**7`` range
    generates in array time and memory.  The columnar relation is
    fingerprint-identical to the tuple-backed one (same implicit
    ``t1..tn`` identifiers), so either form hits the same engine cache
    entries and ranks bit-identically.
    """
    generator = np.random.default_rng(rng)
    scores = _random_scores(n, generator)
    probabilities = generator.uniform(0.0, 1.0, size=n)
    if columnar:
        return ColumnarRelation(scores, probabilities, name=f"{name}-{n}")
    return ProbabilisticRelation.from_arrays(scores, probabilities, name=f"{name}-{n}")


def generate_x_tuples(
    n: int,
    group_size: int = 5,
    rng: np.random.Generator | int | None = None,
    name: str = "Syn-XOR",
) -> AndXorTree:
    """Syn-XOR: ``n`` tuples grouped into mutually exclusive blocks.

    Each group of up to ``group_size`` tuples is an xor node whose edge
    probabilities are drawn uniformly and scaled to sum to at most 1.  The
    tree is the one :meth:`AndXorTree.from_x_tuples` builds from those
    groups, assembled directly: leaves are created with probability 1
    rather than copied from tuples carrying their edge probability.
    """
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    generator = np.random.default_rng(rng)
    scores = _random_scores(n, generator)
    groups: list[XorNode] = []
    index = 0
    while index < n:
        size = min(group_size, n - index)
        raw = generator.uniform(0.0, 1.0, size=size)
        total = raw.sum()
        scale = generator.uniform(0.5, 1.0)
        probabilities = raw / total * scale if total > 0 else raw
        leaves = [
            LeafNode(Tuple(f"t{index + j + 1}", scores[index + j], 1.0)) for j in range(size)
        ]
        groups.append(XorNode(zip(probabilities.tolist(), leaves)))
        index += size
    return AndXorTree(AndNode(groups), name=f"{name}-{n}")


def generate_random_tree(
    n: int,
    shape: TreeShape,
    rng: np.random.Generator | int | None = None,
    name: str = "Syn-TREE",
) -> AndXorTree:
    """A random and/xor tree with ``n`` leaves and the given shape parameters.

    The root is always an and node (so that distinct subtrees coexist, as
    in the paper's figures); below it, inner nodes are xor with
    probability ``X/A / (1 + X/A)`` and and otherwise, fan-out is uniform
    in ``[2, max_degree]``, and leaves appear once the height budget is
    exhausted.  Xor edge probabilities are random and scaled to sum to at
    most 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if shape.height < 2:
        raise ValueError("tree height must be at least 2")
    generator = np.random.default_rng(rng)
    scores = _random_scores(n, generator)
    leaf_counter = iter(range(n))
    max_degree = max(shape.max_degree, 2)

    def make_leaf() -> LeafNode:
        index = next(leaf_counter)
        return LeafNode(Tuple(f"t{index + 1}", scores[index], 1.0))

    def subtree_capacity(depth: int) -> int:
        """Maximum number of leaves a node at this depth can still hold."""
        remaining_levels = max(shape.height - 1 - depth, 0)
        return max_degree ** remaining_levels if remaining_levels > 0 else 1

    def xor_edge_probabilities(count: int) -> np.ndarray:
        # A sparse Dirichlet split keeps some children (and hence some deep
        # leaves) at high marginal probability, which is what makes ignoring
        # the correlations actually hurt the top-k answer.
        split = generator.dirichlet(np.full(count, 0.5))
        return split * generator.uniform(0.8, 1.0)

    def build(remaining_leaves: int, depth: int) -> Node:
        """Build a subtree holding exactly ``remaining_leaves`` leaves."""
        if remaining_leaves == 1:
            return make_leaf()
        if depth >= shape.height - 1:
            # Height budget exhausted: attach the remaining leaves directly.
            children: list[Node] = [make_leaf() for _ in range(remaining_leaves)]
        else:
            child_capacity = subtree_capacity(depth + 1)
            minimum_degree = int(np.ceil(remaining_leaves / child_capacity))
            degree = int(generator.integers(2, max_degree + 1))
            degree = min(max(degree, minimum_degree), remaining_leaves)
            # Random composition of the leaves over the children, respecting
            # each child's capacity.
            counts = np.full(degree, 1)
            for _ in range(remaining_leaves - degree):
                open_children = np.nonzero(counts < child_capacity)[0]
                counts[generator.choice(open_children)] += 1
            children = [build(int(count), depth + 1) for count in counts]
        if generator.random() < shape.xor_probability():
            probabilities = xor_edge_probabilities(len(children))
            return XorNode(list(zip(probabilities.tolist(), children)))
        return AndNode(children)

    # The root is an and node; its children are as large as the height and
    # degree budgets allow, so correlations span big groups of tuples.
    top_level: list[Node] = []
    remaining = n
    top_capacity = subtree_capacity(1)
    while remaining > 0:
        take = min(remaining, top_capacity)
        top_level.append(build(take, depth=1))
        remaining -= take
    return AndXorTree(AndNode(top_level), name=f"{name}-{n}")


def syn_ind(
    n: int,
    rng: np.random.Generator | int | None = None,
    columnar: bool = False,
) -> ProbabilisticRelation | ColumnarRelation:
    """Syn-IND dataset of ``n`` independent tuples (optionally columnar)."""
    return generate_independent(n, rng=rng, name="Syn-IND", columnar=columnar)


def syn_xor(n: int, rng: np.random.Generator | int | None = None) -> AndXorTree:
    """Syn-XOR dataset: x-tuples with group size 5 (paper parameters L=2, d=5)."""
    return generate_x_tuples(n, group_size=5, rng=rng, name="Syn-XOR")


def syn_low(n: int, rng: np.random.Generator | int | None = None) -> AndXorTree:
    """Syn-LOW dataset (L=3, X/A=10, d=2): shallow, mostly-xor tree."""
    return generate_random_tree(
        n, TreeShape(height=3, max_degree=2, xor_to_and_ratio=10.0), rng=rng, name="Syn-LOW"
    )


def syn_med(n: int, rng: np.random.Generator | int | None = None) -> AndXorTree:
    """Syn-MED dataset (L=5, X/A=3, d=5): medium correlation."""
    return generate_random_tree(
        n, TreeShape(height=5, max_degree=5, xor_to_and_ratio=3.0), rng=rng, name="Syn-MED"
    )


def syn_high(n: int, rng: np.random.Generator | int | None = None) -> AndXorTree:
    """Syn-HIGH dataset (L=5, X/A=1, d=10): deep, strongly correlated tree."""
    return generate_random_tree(
        n, TreeShape(height=5, max_degree=10, xor_to_and_ratio=1.0), rng=rng, name="Syn-HIGH"
    )


#: Name -> generator mapping used by the experiment harness.
SYNTHETIC_FAMILIES = {
    "Syn-IND": syn_ind,
    "Syn-XOR": syn_xor,
    "Syn-LOW": syn_low,
    "Syn-MED": syn_med,
    "Syn-HIGH": syn_high,
}

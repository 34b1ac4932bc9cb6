"""Probabilistic and/xor trees (Section 3.1, Definition 2 of the paper).

An and/xor tree compactly encodes two kinds of correlations between
uncertain tuples: *mutual exclusivity* (xor nodes — at most one child
sub-result materializes, child ``i`` with probability ``p_i``) and
*co-existence* (and nodes — all child sub-results materialize together).
Leaves are :class:`~repro.core.tuples.Tuple` objects.

The tree defines a random subset of its leaves (a possible world) by the
independent top-down process of Definition 2.  This module provides

* the node classes and :class:`AndXorTree` container with validation,
* convenience constructors for the common special cases (independent
  tuples, x-tuples / block-independent-disjoint relations, an explicit
  list of possible worlds),
* exact world enumeration (exponential; used as a test oracle),
* world sampling (used by Monte-Carlo ranking), and
* marginal existence probabilities (used when deliberately *ignoring*
  correlations, as in the Figure 10 experiments).

Generating functions over trees live in :mod:`repro.andxor.generating`
and the ranking algorithms in :mod:`repro.andxor.ranking`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from ..core.possible_worlds import PossibleWorld
from ..core.tuples import ProbabilisticRelation, Tuple

__all__ = ["Node", "LeafNode", "AndNode", "XorNode", "AndXorTree"]

_PROB_TOLERANCE = 1e-9


class Node:
    """Base class of and/xor tree nodes."""

    def children_nodes(self) -> Sequence["Node"]:
        """Child nodes (without edge probabilities)."""
        return ()

    def iter_leaves(self) -> Iterator["LeafNode"]:
        """Yield the leaves of the subtree rooted at this node, in document order."""
        ordered: list[LeafNode] = []
        self._collect_leaves(ordered)
        yield from ordered

    def _collect_leaves(self, out: list["LeafNode"]) -> None:
        if isinstance(self, LeafNode):
            out.append(self)
            return
        for child in self.children_nodes():
            child._collect_leaves(out)

    def height(self) -> int:
        """Height of the subtree (a single leaf has height 1)."""
        children = self.children_nodes()
        if not children:
            return 1
        return 1 + max(child.height() for child in children)


@dataclass(frozen=True)
class LeafNode(Node):
    """A leaf holding one uncertain tuple."""

    item: Tuple

    @property
    def tid(self) -> Any:
        return self.item.tid


@dataclass(frozen=True)
class AndNode(Node):
    """A co-existence node: all child sub-results materialize together."""

    children: tuple[Node, ...]

    def __init__(self, children: Iterable[Node]) -> None:
        object.__setattr__(self, "children", tuple(children))
        if not self.children:
            raise ValueError("AndNode requires at least one child")

    def children_nodes(self) -> Sequence[Node]:
        return self.children


@dataclass(frozen=True)
class XorNode(Node):
    """A mutual-exclusivity node: child ``i`` materializes with probability ``p_i``.

    With probability ``1 - sum_i p_i`` none of the children materializes.
    """

    children: tuple[tuple[float, Node], ...] = field(default_factory=tuple)

    def __init__(self, children: Iterable[tuple[float, Node]]) -> None:
        normalized = tuple((float(p), child) for p, child in children)
        object.__setattr__(self, "children", normalized)
        total = sum(p for p, _ in normalized)
        if any(p < -_PROB_TOLERANCE for p, _ in normalized):
            raise ValueError("xor edge probabilities must be non-negative")
        if total > 1.0 + 1e-6:
            raise ValueError(
                f"xor edge probabilities must sum to at most 1, got {total:.6f}"
            )

    def children_nodes(self) -> Sequence[Node]:
        return tuple(child for _, child in self.children)

    @property
    def none_probability(self) -> float:
        """Probability that no child materializes."""
        return max(0.0, 1.0 - sum(p for p, _ in self.children))


class AndXorTree:
    """A probabilistic and/xor tree over a set of uncertain tuples.

    Parameters
    ----------
    root:
        The root node.  Leaf tuple identifiers must be unique across the
        tree (alternatives of the same logical tuple, as produced by the
        attribute-uncertainty reduction, must therefore carry distinct
        identifiers).
    name:
        Optional human-readable name.
    """

    def __init__(self, root: Node, name: str = "") -> None:
        self.root = root
        self.name = name
        self._leaves = list(root.iter_leaves())
        seen: set[Any] = set()
        for leaf in self._leaves:
            if leaf.tid in seen:
                raise ValueError(
                    f"duplicate leaf tuple identifier {leaf.tid!r}; "
                    "give score alternatives distinct identifiers"
                )
            seen.add(leaf.tid)
        self._marginals: dict[Any, float] | None = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._leaves)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        label = f" {self.name!r}" if self.name else ""
        return f"<AndXorTree{label} leaves={len(self)} height={self.height()}>"

    @property
    def leaves(self) -> list[LeafNode]:
        """All leaves in document order."""
        return list(self._leaves)

    def tuples(self) -> list[Tuple]:
        """The tuples stored at the leaves, in document order."""
        return [leaf.item for leaf in self._leaves]

    def get(self, tid: Any) -> Tuple:
        """Return the leaf tuple with the given identifier."""
        for leaf in self._leaves:
            if leaf.tid == tid:
                return leaf.item
        raise KeyError(f"no leaf with identifier {tid!r}")

    def height(self) -> int:
        """Tree height (a bare leaf counts as height 1)."""
        return self.root.height()

    def leaf_depths(self) -> dict[Any, int]:
        """Depth of every leaf (root is depth 0) keyed by tuple identifier."""
        depths: dict[Any, int] = {}

        def visit(node: Node, depth: int) -> None:
            if isinstance(node, LeafNode):
                depths[node.tid] = depth
                return
            for child in node.children_nodes():
                visit(child, depth + 1)

        visit(self.root, 0)
        return depths

    def sorted_tuples(self) -> list[Tuple]:
        """Leaf tuples sorted by descending score with deterministic tie-breaking."""
        indexed = list(enumerate(self.tuples()))
        indexed.sort(key=lambda pair: (-pair[1].score, pair[0]))
        return [t for _, t in indexed]

    # ------------------------------------------------------------------
    # Marginals / degenerate views
    # ------------------------------------------------------------------
    def marginal_probabilities(self) -> dict[Any, float]:
        """Marginal existence probability of every leaf.

        The marginal of a leaf is the product of the xor edge
        probabilities along its root path (and edges contribute factor 1).
        """
        if self._marginals is None:
            marginals: dict[Any, float] = {}

            def visit(node: Node, weight: float) -> None:
                if isinstance(node, LeafNode):
                    marginals[node.tid] = weight
                    return
                if isinstance(node, AndNode):
                    for child in node.children:
                        visit(child, weight)
                    return
                assert isinstance(node, XorNode)
                for probability, child in node.children:
                    visit(child, weight * probability)

            visit(self.root, 1.0)
            self._marginals = marginals
        return dict(self._marginals)

    def to_relation(self, name: str = "") -> ProbabilisticRelation:
        """The *independence approximation* of this tree.

        Returns a relation with one tuple per leaf whose probability is the
        leaf's marginal; all correlations are dropped.  Used to quantify
        the effect of ignoring correlations (Figure 10).
        """
        marginals = self.marginal_probabilities()
        tuples = [
            Tuple(t.tid, t.score, marginals[t.tid], t.attributes) for t in self.tuples()
        ]
        return ProbabilisticRelation(tuples, name=name or f"{self.name}-independent")

    # ------------------------------------------------------------------
    # Possible worlds
    # ------------------------------------------------------------------
    def enumerate_worlds(self, max_worlds: int = 200_000) -> list[PossibleWorld]:
        """Exact enumeration of the possible worlds of the tree.

        Exponential in general; intended as a correctness oracle for small
        trees.  Worlds with identical tuple sets are merged.
        """
        outcomes = self._enumerate_node(self.root, max_worlds)
        merged: dict[frozenset, float] = {}
        items_by_key: dict[frozenset, tuple[Tuple, ...]] = {}
        for items, probability in outcomes:
            key = frozenset(t.tid for t in items)
            merged[key] = merged.get(key, 0.0) + probability
            items_by_key.setdefault(key, items)
        return [
            PossibleWorld(items_by_key[key], probability)
            for key, probability in merged.items()
            if probability > 0.0
        ]

    def _enumerate_node(
        self, node: Node, max_worlds: int
    ) -> list[tuple[tuple[Tuple, ...], float]]:
        if isinstance(node, LeafNode):
            return [((node.item,), 1.0)]
        if isinstance(node, XorNode):
            outcomes: list[tuple[tuple[Tuple, ...], float]] = []
            none_probability = node.none_probability
            if none_probability > 0.0:
                outcomes.append(((), none_probability))
            for probability, child in node.children:
                if probability == 0.0:
                    continue
                for items, child_probability in self._enumerate_node(child, max_worlds):
                    outcomes.append((items, probability * child_probability))
            if len(outcomes) > max_worlds:
                raise ValueError(
                    f"world enumeration exceeded {max_worlds} intermediate outcomes"
                )
            return outcomes
        assert isinstance(node, AndNode)
        child_outcomes = [self._enumerate_node(child, max_worlds) for child in node.children]
        outcomes = []
        for combination in itertools.product(*child_outcomes):
            items: tuple[Tuple, ...] = tuple(
                itertools.chain.from_iterable(part for part, _ in combination)
            )
            probability = 1.0
            for _, part_probability in combination:
                probability *= part_probability
            outcomes.append((items, probability))
            if len(outcomes) > max_worlds:
                raise ValueError(
                    f"world enumeration exceeded {max_worlds} intermediate outcomes"
                )
        return outcomes

    def sample_world(self, rng: np.random.Generator | int | None = None) -> PossibleWorld:
        """Draw one world from the tree's distribution (probability left at 1.0)."""
        generator = np.random.default_rng(rng)
        items = tuple(self._sample_node(self.root, generator))
        return PossibleWorld(items, 1.0)

    def sample_worlds(
        self, num_samples: int, rng: np.random.Generator | int | None = None
    ) -> Iterator[PossibleWorld]:
        """Yield ``num_samples`` worlds, each weighted ``1 / num_samples``."""
        generator = np.random.default_rng(rng)
        weight = 1.0 / num_samples
        for _ in range(num_samples):
            items = tuple(self._sample_node(self.root, generator))
            yield PossibleWorld(items, weight)

    def _sample_node(self, node: Node, rng: np.random.Generator) -> list[Tuple]:
        if isinstance(node, LeafNode):
            return [node.item]
        if isinstance(node, XorNode):
            draw = rng.random()
            cumulative = 0.0
            for probability, child in node.children:
                cumulative += probability
                if draw < cumulative:
                    return self._sample_node(child, rng)
            return []
        assert isinstance(node, AndNode)
        items: list[Tuple] = []
        for child in node.children:
            items.extend(self._sample_node(child, rng))
        return items

    # ------------------------------------------------------------------
    # Constructors for common shapes
    # ------------------------------------------------------------------
    @classmethod
    def from_independent(cls, relation: ProbabilisticRelation, name: str = "") -> "AndXorTree":
        """Encode a tuple-independent relation as a height-3 and/xor tree.

        The root is an and node with one xor child per tuple; each xor node
        has a single leaf child carrying the tuple's existence probability.
        """
        children = [
            XorNode([(t.probability, LeafNode(t.with_probability(1.0)))]) for t in relation
        ]
        return cls(AndNode(children), name=name or relation.name)

    @classmethod
    def from_x_tuples(
        cls,
        groups: Iterable[Sequence[Tuple]],
        name: str = "",
    ) -> "AndXorTree":
        """Encode an x-tuple relation (mutually exclusive alternatives per group).

        Each group becomes one xor node whose edges carry the alternatives'
        probabilities; the groups coexist under an and root.  Alternative
        probabilities within a group must sum to at most 1.
        """
        children = []
        for group in groups:
            group = list(group)
            if not group:
                raise ValueError("x-tuple groups must be non-empty")
            children.append(
                XorNode([(t.probability, LeafNode(t.with_probability(1.0))) for t in group])
            )
        return cls(AndNode(children), name=name)

    @classmethod
    def from_possible_worlds(
        cls, worlds: Sequence[PossibleWorld], name: str = ""
    ) -> "AndXorTree":
        """Encode an explicit finite set of possible worlds (Figure 2 construction).

        The root is an xor node with one and child per world; leaf
        identifiers are suffixed with the world index so that the same
        logical tuple may appear in several worlds.
        """
        total = sum(w.probability for w in worlds)
        if total > 1.0 + 1e-6:
            raise ValueError(f"world probabilities sum to {total:.6f} > 1")
        children: list[tuple[float, Node]] = []
        for index, world in enumerate(worlds):
            leaves = [
                LeafNode(Tuple(f"{t.tid}@{index}", t.score, 1.0, t.attributes))
                for t in world.tuples
            ]
            if not leaves:
                # An empty world is represented implicitly by the xor
                # "none" probability; skip the empty and node.
                continue
            children.append((world.probability, AndNode(leaves)))
        return cls(XorNode(children), name=name)

"""Junction-tree construction and calibration.

Section 9 of the paper assumes a *calibrated* junction tree of the Markov
network: each clique potential equals the joint marginal over its
variables.  This module builds such a tree from an arbitrary factor list:

1. moralize — connect every pair of variables sharing a factor;
2. triangulate with the greedy min-fill heuristic, collecting the
   elimination cliques;
3. keep the maximal cliques and connect them with a maximum-weight
   spanning forest over separator sizes (Kruskal + union-find), which by
   the standard result yields the running-intersection property per
   connected component;
4. assign every factor to one clique covering it and calibrate with
   two-pass sum-product message passing (Shafer-Shenoy style, one
   message per directed edge, upward in post-order then downward).

Calibration optionally takes evidence (pinned variables).  The
evidence-free calibration is computed once per tree; a calibration with
evidence reuses its message on every edge whose source side holds no
evidence.  The ranking algorithm conditions on ``X_t = 1`` for many
tuples at once: :meth:`JunctionTree.calibrate_rows` runs the message
schedule once over tables with a leading row axis, row ``b`` conditioned
on its own variable, and returns the normalized clique marginals.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .factors import Factor

__all__ = ["JunctionTree", "CalibratedTree", "build_junction_tree", "min_fill_order"]


# ---------------------------------------------------------------------------
# Graph construction helpers
# ---------------------------------------------------------------------------
def _moral_graph(variables: Sequence[Hashable], factors: Sequence[Factor]) -> dict:
    adjacency: dict[Hashable, set] = {v: set() for v in variables}
    for factor in factors:
        scope = list(factor.variables)
        for i, u in enumerate(scope):
            for v in scope[i + 1:]:
                adjacency[u].add(v)
                adjacency[v].add(u)
    return adjacency


def min_fill_order(adjacency: Mapping[Hashable, set]) -> tuple[list, list[frozenset]]:
    """Greedy min-fill elimination order and the elimination cliques it induces."""
    graph = {v: set(neighbors) for v, neighbors in adjacency.items()}
    order: list = []
    cliques: list[frozenset] = []
    remaining = set(graph)
    while remaining:
        best_variable = None
        best_fill = None
        for variable in sorted(remaining, key=str):
            neighbors = graph[variable] & remaining
            fill = 0
            neighbor_list = sorted(neighbors, key=str)
            for i, u in enumerate(neighbor_list):
                for v in neighbor_list[i + 1:]:
                    if v not in graph[u]:
                        fill += 1
            if best_fill is None or fill < best_fill:
                best_fill = fill
                best_variable = variable
                if fill == 0:
                    break
        variable = best_variable
        neighbors = graph[variable] & remaining
        cliques.append(frozenset(neighbors | {variable}))
        neighbor_list = list(neighbors)
        for i, u in enumerate(neighbor_list):
            for v in neighbor_list[i + 1:]:
                graph[u].add(v)
                graph[v].add(u)
        order.append(variable)
        remaining.remove(variable)
    return order, cliques


def _maximal_cliques(cliques: Iterable[frozenset]) -> list[frozenset]:
    unique = list(dict.fromkeys(cliques))
    maximal = []
    for clique in unique:
        if not any(clique < other for other in unique if other != clique):
            maximal.append(clique)
    return maximal


class _UnionFind:
    def __init__(self, items: Iterable[int]) -> None:
        self.parent = {item: item for item in items}

    def find(self, item: int) -> int:
        while self.parent[item] != item:
            self.parent[item] = self.parent[self.parent[item]]
            item = self.parent[item]
        return item

    def union(self, a: int, b: int) -> bool:
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return False
        self.parent[root_a] = root_b
        return True


# ---------------------------------------------------------------------------
# Junction tree
# ---------------------------------------------------------------------------
class _RootedClique(NamedTuple):
    """One clique of a rooted junction-forest component (a post-order entry).

    ``variables`` is the clique's axis order (sorted by ``str``, the order
    every potential and belief of the tree carries).  ``children`` lists
    ``(child, child separator, shape)`` in neighbour order, the separator
    sorted the same way and ``shape`` laying a table over it out along
    ``variables`` (2 on separator axes, 1 elsewhere).  ``leaving`` names
    the ``(axis, variable)`` pairs not in the separator with ``parent``
    (all of them at the root) and ``drop_axes`` their axes.
    """

    index: int
    parent: int | None
    variables: tuple
    children: tuple
    leaving: tuple
    drop_axes: tuple


class JunctionTree:
    """The structural part of a junction tree (cliques, edges, factor assignment).

    Everything that does not depend on evidence is derived once, in the
    constructor: the forest components and a clique-to-component index,
    each variable's home clique (the first clique containing it), the
    sorted separators, a post-order of every component rooted at its
    first clique (the message schedule and the layout of the ranking
    dynamic program), each directed edge's row-stacked message layout
    (for :meth:`calibrate_rows`), and the evidence-free clique potentials.  The
    evidence-free calibration is computed on first use and published as
    one completed object, so a tree shared across threads is never seen
    half-built.
    """

    def __init__(
        self,
        cliques: Sequence[frozenset],
        edges: Sequence[tuple[int, int]],
        factors: Sequence[Factor],
        variables: Sequence[Hashable],
    ) -> None:
        self.cliques = list(cliques)
        self.edges = list(edges)
        self.variables = list(variables)
        self.neighbors: list[list[int]] = [[] for _ in self.cliques]
        for a, b in self.edges:
            self.neighbors[a].append(b)
            self.neighbors[b].append(a)
        self._base_factors = list(factors)
        self._assignment = self._assign_factors(self._base_factors)
        self._components = self._find_components()
        self._component_of = [0] * len(self.cliques)
        for position, component in enumerate(self._components):
            for node in component:
                self._component_of[node] = position
        self._home: dict[Hashable, int] = {}
        for index, clique in enumerate(self.cliques):
            for variable in clique:
                self._home.setdefault(variable, index)
        self._separators = {
            (a, b): sorted(self.separator(a, b), key=str)
            for a in range(len(self.cliques))
            for b in self.neighbors[a]
        }
        self._post_orders = [self._rooted(component) for component in self._components]
        # Every directed edge, each after the messages it depends on:
        # upward messages in post-order, then downward ones in reverse.
        self._schedule: list[tuple[int, int]] = []
        for rooted in self._post_orders:
            self._schedule += [(c.index, c.parent) for c in rooted if c.parent is not None]
            for clique in reversed(rooted):
                self._schedule += [(clique.index, child) for child, _, _ in clique.children]
        self._potentials = [self._potential(index) for index in range(len(self.cliques))]
        # Per directed edge (source, target): the source-clique axes summed
        # out of the message and the shape laying the message out along the
        # target clique's axes (the row-stacked calibration's layout).
        self._edge_layout: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        for (source, target), separator in self._separators.items():
            source_vars = sorted(self.cliques[source], key=str)
            target_vars = sorted(self.cliques[target], key=str)
            self._edge_layout[source, target] = (
                tuple(axis + 1 for axis, v in enumerate(source_vars) if v not in separator),
                tuple(2 if v in separator else 1 for v in target_vars),
            )
        self._evidence_free: CalibratedTree | None = None

    # -- structure metrics ------------------------------------------------
    def treewidth(self) -> int:
        """Largest clique size minus one."""
        return max((len(c) for c in self.cliques), default=1) - 1

    def separator(self, a: int, b: int) -> frozenset:
        return self.cliques[a] & self.cliques[b]

    def components(self) -> list[list[int]]:
        """Connected components of the junction forest (lists of clique indices)."""
        return [list(component) for component in self._components]

    def _find_components(self) -> list[tuple[int, ...]]:
        seen: set[int] = set()
        components: list[tuple[int, ...]] = []
        for start in range(len(self.cliques)):
            if start in seen:
                continue
            stack = [start]
            component = []
            seen.add(start)
            while stack:
                node = stack.pop()
                component.append(node)
                for neighbor in self.neighbors[node]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
            components.append(tuple(component))
        return components

    def _rooted(self, component: Sequence[int]) -> tuple[_RootedClique, ...]:
        """Post-order of ``component`` rooted at its first clique."""
        parent: dict[int, int | None] = {component[0]: None}
        preorder = []
        stack = [component[0]]
        while stack:
            node = stack.pop()
            preorder.append(node)
            for neighbor in self.neighbors[node]:
                if neighbor == parent[node]:
                    continue
                if neighbor in parent:
                    raise ValueError("the junction tree's edges form a cycle")
                parent[neighbor] = node
                stack.append(neighbor)
        rooted = []
        for node in reversed(preorder):
            variables = tuple(sorted(self.cliques[node], key=str))
            up = parent[node]
            separator = self._separators[(node, up)] if up is not None else ()
            children = []
            for child in self.neighbors[node]:
                if child == up:
                    continue
                child_separator = tuple(self._separators[(child, node)])
                shape = tuple(2 if v in child_separator else 1 for v in variables)
                children.append((child, child_separator, shape))
            leaving = tuple(
                (axis, v) for axis, v in enumerate(variables) if v not in separator
            )
            rooted.append(
                _RootedClique(
                    index=node,
                    parent=up,
                    variables=variables,
                    children=tuple(children),
                    leaving=leaving,
                    drop_axes=tuple(axis for axis, _ in leaving),
                )
            )
        return tuple(rooted)

    def _assign_factors(self, factors: Sequence[Factor]) -> list[list[Factor]]:
        assignment: list[list[Factor]] = [[] for _ in self.cliques]
        for factor in factors:
            scope = set(factor.variables)
            home = next(
                (i for i, clique in enumerate(self.cliques) if scope <= clique), None
            )
            if home is None:
                raise ValueError(
                    f"no clique covers factor scope {sorted(map(str, scope))}; "
                    "the junction tree was built for different factors"
                )
            assignment[home].append(factor)
        return assignment

    def _potential(self, index: int) -> Factor:
        """The evidence-free potential of one clique: its assigned factors' product."""
        potential = Factor.uniform(sorted(self.cliques[index], key=str))
        for factor in self._assignment[index]:
            potential = potential.multiply(factor)
        return potential

    # -- calibration -------------------------------------------------------
    def calibrate(self, evidence: Mapping[Hashable, int] | None = None) -> "CalibratedTree":
        """Run two-pass message passing and return calibrated clique beliefs.

        ``evidence`` pins variables to values (implemented by multiplying
        indicator factors into the affected cliques).  The returned
        beliefs are *unnormalized*: each clique belief sums to the
        probability of the evidence, so both conditional marginals and the
        evidence probability itself are available.

        The evidence-free calibration is computed once per tree and the
        same object is returned to every caller.  With evidence, only the
        messages leaving an evidence clique's side of each edge are
        recomputed, and only the beliefs of components that hold
        evidence; every other message and belief is the evidence-free
        one, which is exactly what recomputing it would produce.  Beliefs
        may therefore be shared between calibrations, so the
        evidence-free beliefs are read-only.
        """
        base = self._evidence_free
        if base is None:
            base = self._calibrate_from_scratch()
            self._evidence_free = base
        if not evidence:
            return base
        potentials = list(self._potentials)
        homes: set[int] = set()
        for variable, value in evidence.items():
            if variable not in self._home:
                raise KeyError(f"evidence variable {variable!r} is not in the network")
            home = self._home[variable]
            homes.add(home)
            potentials[home] = potentials[home].multiply(Factor.evidence(variable, value))
        # The messages whose source side holds evidence: every edge
        # directed away from an evidence clique.
        stale: set[tuple[int, int]] = set()
        for home in homes:
            seen = {home}
            stack = [home]
            while stack:
                node = stack.pop()
                for neighbor in self.neighbors[node]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        stale.add((node, neighbor))
                        stack.append(neighbor)
        messages = dict(base._messages)
        for source, target in self._schedule:
            if (source, target) in stale:
                messages[source, target] = self._message(potentials, messages, source, target)
        touched = {self._component_of[home] for home in homes}
        beliefs = [
            self._belief(potentials, messages, index)
            if self._component_of[index] in touched
            else base.beliefs[index]
            for index in range(len(self.cliques))
        ]
        return CalibratedTree(self, beliefs, evidence)

    def calibrate_rows(
        self, variables: Sequence[Hashable]
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Calibrate one copy of the tree per row, row ``b`` given ``variables[b] = 1``.

        Every potential, message and belief carries a leading row axis:
        the evidence-free potentials are broadcast to ``(B, 2, ...)`` and
        row ``b``'s evidence indicator is multiplied into its home clique,
        then the message schedule runs once.  Every message is recomputed
        for every row; a message whose source side holds no evidence comes
        out with the evidence-free bits, because it is computed from the
        same inputs in the same order as :meth:`calibrate`'s.

        Returns the normalized clique marginals, one ``(B,) + (2,) * |C|``
        array per clique (axes in sorted-variable order), and the
        ``(B, components)`` unnormalized component masses.  A row whose
        component mass is zero keeps its unnormalized (all-zero) beliefs,
        as :meth:`CalibratedTree.clique_marginal` does.
        """
        rows = len(variables)
        potentials = [
            np.broadcast_to(potential.table, (rows,) + potential.table.shape).copy()
            for potential in self._potentials
        ]
        for row, variable in enumerate(variables):
            if variable not in self._home:
                raise KeyError(f"evidence variable {variable!r} is not in the network")
            home = self._home[variable]
            clique_vars = sorted(self.cliques[home], key=str)
            indicator = Factor.evidence(variable, 1).expand(clique_vars)
            potentials[home][row] = potentials[home][row] * indicator
        messages: dict[tuple[int, int], np.ndarray] = {}
        for source, target in self._schedule:
            product = potentials[source]
            for neighbor in self.neighbors[source]:
                if neighbor != target:
                    product = product * self._laid_out(messages, neighbor, source, rows)
            drop_axes, _ = self._edge_layout[source, target]
            messages[source, target] = product.sum(axis=drop_axes) if drop_axes else product
        beliefs = []
        for index in range(len(self.cliques)):
            belief = potentials[index]
            for neighbor in self.neighbors[index]:
                belief = belief * self._laid_out(messages, neighbor, index, rows)
            beliefs.append(belief)
        masses = np.empty((rows, len(self._components)))
        for position, component in enumerate(self._components):
            root = beliefs[component[0]]
            masses[:, position] = root.sum(axis=tuple(range(1, root.ndim)))
        marginals = []
        for index, belief in enumerate(beliefs):
            mass = masses[:, self._component_of[index]]
            mass = np.where(mass > 0.0, mass, 1.0).reshape((rows,) + (1,) * (belief.ndim - 1))
            marginals.append(belief / mass)
        return marginals, masses

    def _laid_out(
        self, messages: Mapping[tuple[int, int], np.ndarray], source: int, target: int, rows: int
    ) -> np.ndarray:
        """The row-stacked message ``source -> target`` along the target clique's axes."""
        _, shape = self._edge_layout[source, target]
        return messages[source, target].reshape((rows,) + shape)

    def _calibrate_from_scratch(self) -> "CalibratedTree":
        """The evidence-free calibration, every message computed."""
        potentials = self._potentials
        messages: dict[tuple[int, int], Factor] = {}
        for source, target in self._schedule:
            messages[source, target] = self._message(potentials, messages, source, target)
        beliefs = [
            self._belief(potentials, messages, index) for index in range(len(self.cliques))
        ]
        for belief in beliefs:
            belief.table.flags.writeable = False
        calibrated = CalibratedTree(self, beliefs, {})
        calibrated._messages = messages
        return calibrated

    def _message(
        self,
        potentials: Sequence[Factor],
        messages: Mapping[tuple[int, int], Factor],
        source: int,
        target: int,
    ) -> Factor:
        product = potentials[source]
        for neighbor in self.neighbors[source]:
            if neighbor != target:
                product = product.multiply(messages[neighbor, source])
        return product.marginalize(self._separators[source, target])

    def _belief(
        self,
        potentials: Sequence[Factor],
        messages: Mapping[tuple[int, int], Factor],
        index: int,
    ) -> Factor:
        belief = potentials[index]
        for neighbor in self.neighbors[index]:
            belief = belief.multiply(messages[neighbor, index])
        return belief


class CalibratedTree:
    """A junction tree together with calibrated (unnormalized) clique beliefs.

    Normalized clique marginals are memoized per calibration (internally:
    :meth:`clique_marginal` hands out copies).
    """

    def __init__(
        self,
        tree: JunctionTree,
        beliefs: Sequence[Factor],
        evidence: Mapping[Hashable, int],
    ) -> None:
        self.tree = tree
        self.beliefs = list(beliefs)
        self.evidence = dict(evidence)
        # The messages behind the beliefs, kept by the tree's evidence-free
        # calibration so evidence calibrations can reuse them.
        self._messages: dict[tuple[int, int], Factor] = {}
        self._marginals: list[Factor | None] = [None] * len(self.beliefs)

    @property
    def nbytes(self) -> int:
        """Bytes held by the beliefs, kept messages and memoized marginals."""
        tables = list(self.beliefs) + list(self._messages.values())
        tables += [marginal for marginal in self._marginals if marginal is not None]
        return sum(factor.table.nbytes for factor in tables)

    def component_mass(self, component: Sequence[int]) -> float:
        """Unnormalized probability mass of one junction-forest component."""
        return self.beliefs[component[0]].total()

    def evidence_probability(self) -> float:
        """Probability of the evidence (product over forest components)."""
        probability = 1.0
        for component in self.tree._components:
            mass = self.component_mass(component)
            probability *= mass
        return probability

    def _marginal(self, index: int) -> Factor:
        """The memoized normalized clique marginal (shared; never mutate it)."""
        marginal = self._marginals[index]
        if marginal is None:
            tree = self.tree
            mass = self.component_mass(tree._components[tree._component_of[index]])
            belief = self.beliefs[index]
            if not mass:
                marginal = belief.copy()
            else:
                marginal = Factor(belief.variables, belief.table / mass)
            self._marginals[index] = marginal
        return marginal

    def clique_marginal(self, index: int) -> Factor:
        """Normalized joint marginal over one clique, given the evidence."""
        return self._marginal(index).copy()

    def variable_marginal(self, variable: Hashable) -> float:
        """``Pr(X = 1 | evidence)`` for a single variable."""
        index = self.tree._home.get(variable)
        if index is None:
            raise KeyError(f"variable {variable!r} is not in the network")
        marginal = self._marginal(index).marginalize([variable])
        return float(marginal.table[1])


def build_junction_tree(
    variables: Sequence[Hashable], factors: Sequence[Factor]
) -> JunctionTree:
    """Build a junction tree (forest) for the given factors."""
    adjacency = _moral_graph(variables, factors)
    _, elimination_cliques = min_fill_order(adjacency)
    cliques = _maximal_cliques(elimination_cliques)
    if not cliques:
        cliques = [frozenset(variables)] if variables else [frozenset()]
    candidate_edges = []
    for i in range(len(cliques)):
        for j in range(i + 1, len(cliques)):
            weight = len(cliques[i] & cliques[j])
            if weight > 0:
                candidate_edges.append((weight, i, j))
    candidate_edges.sort(key=lambda item: -item[0])
    union_find = _UnionFind(range(len(cliques)))
    edges: list[tuple[int, int]] = []
    for weight, i, j in candidate_edges:
        if union_find.union(i, j):
            edges.append((i, j))
    return JunctionTree(cliques, edges, factors, variables)

"""PRF computation over bounded-treewidth Markov networks (Section 9.4).

The algorithm computes, for each tuple ``t``, the distribution of the
number of higher-score tuples present in a random world *given that t is
present*:

1. the junction tree of the network is calibrated with the evidence
   ``X_t = 1``;
2. a bottom-up dynamic program over the (rooted) junction tree computes
   the joint distribution ``Pr(S, P_S)`` of each separator ``S`` with the
   partial sum ``P_S`` of the delta-weighted indicators strictly below
   it, convolving child distributions and folding in the variables that
   leave the separator at each clique;
3. the root distribution (over the empty separator) is the conditional
   count distribution; multiplying it by ``Pr(X_t = 1)`` and shifting by
   one gives the rank distribution ``Pr(r(t) = j)``.

The per-tuple cost is polynomial for bounded treewidth, matching the
paper's complexity analysis.  Only the tuple-dependent part runs per
tuple: the junction tree (cached on the model by
:func:`junction_tree_for`) holds its components, potentials, the DP's
per-component post-order layout and the evidence-free messages, so
conditioning on ``X_t = 1`` recomputes just the messages leaving the
tuple's home clique and the beliefs of its component.  The score order
and the outranking indicators are built once per network and advanced
tuple by tuple.
"""

from __future__ import annotations

from typing import Any, Hashable, Mapping, Sequence

import numpy as np

from ..core.prf import RankingFunction
from ..core.result import RankingResult
from ..core.tuples import Tuple
from .junction_tree import CalibratedTree, JunctionTree, build_junction_tree
from .model import MarkovNetworkRelation

__all__ = [
    "junction_tree_for",
    "rank_distribution_markov",
    "prefix_count_distribution",
    "positional_probabilities_markov",
    "prf_values_markov",
    "rank_markov_network",
]


def junction_tree_for(model: MarkovNetworkRelation) -> JunctionTree:
    """Build (and cache on the model instance) the junction tree of a network.

    The tree is shared by every engine and thread ranking the model: it
    is complete once constructed, and its evidence-free calibration is
    published as one finished object on first use.
    """
    cached = getattr(model, "_cached_junction_tree", None)
    if cached is None:
        cached = build_junction_tree(model.variables(), model.factors)
        model._cached_junction_tree = cached
    return cached


# ---------------------------------------------------------------------------
# Partial-sum dynamic program over a calibrated junction tree
# ---------------------------------------------------------------------------
def _component_count_distribution(
    calibrated: CalibratedTree,
    rooted: Sequence[Any],
    deltas: Mapping[Hashable, int],
) -> np.ndarray:
    """Distribution of ``sum_j delta_j X_j`` over one junction-forest component.

    ``rooted`` is the component's post-order layout (cliques before their
    parent, the root last).  The returned vector ``d`` satisfies ``d[c] =
    Pr(count = c | evidence)`` restricted to the component's variables;
    it sums to 1 unless the evidence has zero probability in this
    component, in which case the zero vector is returned.
    """
    root = rooted[-1]
    mass = calibrated.beliefs[root.index].total()
    if mass <= 0.0:
        return np.zeros(1, dtype=float)
    # Partial-sum distributions of finished cliques, keyed by clique.
    partial: dict[int, np.ndarray] = {}
    for clique in rooted:
        # Every belief of the tree carries its clique's variables in the
        # sorted axis order of ``clique.variables``.
        marginal = calibrated._marginal(clique.index)
        clique_vars = clique.variables
        # arr[assignment of clique_vars, c] = Pr(clique assignment, partial sum = c)
        arr = marginal.table[..., None].astype(float)
        for child, child_sep_vars, shape in clique.children:
            child_dist = partial.pop(child)
            separator_marginal = marginal.marginalize(child_sep_vars)
            denominator = separator_marginal.table[..., None]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(
                    denominator > 0.0,
                    child_dist / np.where(denominator > 0.0, denominator, 1.0),
                    0.0,
                )
            # Expand the ratio (indexed by the child separator variables) to
            # the clique's axis layout; both axis lists are sorted by str so a
            # plain reshape aligns them.
            ratio = ratio.reshape(shape + (ratio.shape[-1],))
            length_a = arr.shape[-1]
            length_b = ratio.shape[-1]
            if length_a == 1 or length_b == 1:
                # Every entry of the convolution is a single product (the
                # first child of a clique, or a one-entry distribution).
                arr = arr * ratio
                continue
            combined = np.zeros(arr.shape[:-1] + (length_a + length_b - 1,), dtype=float)
            for offset in range(length_b):
                combined[..., offset : offset + length_a] += arr * ratio[..., offset : offset + 1]
            arr = combined
        # Fold in the variables counted at this clique (those leaving the
        # parent separator) whose delta is 1.
        counted_axes = [axis for axis, v in clique.leaving if deltas.get(v, 0) == 1]
        if counted_axes:
            axes = len(clique_vars)
            flat = arr.reshape(-1, arr.shape[-1])
            indices = np.arange(flat.shape[0])
            shift = np.zeros(flat.shape[0], dtype=int)
            for axis in counted_axes:
                shift += (indices >> (axes - 1 - axis)) & 1
            shifted = np.zeros((flat.shape[0], flat.shape[1] + len(counted_axes)), dtype=float)
            for amount in range(len(counted_axes) + 1):
                rows = shift == amount
                if rows.any():
                    shifted[rows, amount : amount + flat.shape[1]] = flat[rows]
            arr = shifted.reshape(arr.shape[:-1] + (shifted.shape[-1],))
        if clique.drop_axes:
            arr = arr.sum(axis=clique.drop_axes)
        partial[clique.index] = arr
    return np.asarray(partial[root.index], dtype=float).reshape(-1)


def _count_distribution(
    calibrated: CalibratedTree, deltas: Mapping[Hashable, int]
) -> np.ndarray:
    """The count distribution over the whole forest (component convolution)."""
    distribution = np.ones(1, dtype=float)
    for rooted in calibrated.tree._post_orders:
        part = _component_count_distribution(calibrated, rooted, deltas)
        distribution = _convolve(distribution, part)
    return distribution


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.size == 0:
        return b
    if b.size == 0:
        return a
    return np.convolve(a, b)


def _rank_distribution(
    tree: JunctionTree,
    base: CalibratedTree,
    tid: Any,
    deltas: Mapping[Hashable, int],
    limit: int,
) -> np.ndarray:
    """``Pr(r(t) = j)`` for ``j <= limit`` given the tuple's outranking deltas."""
    present_probability = base.variable_marginal(tid)
    if present_probability <= 0.0:
        return np.zeros(limit + 1, dtype=float)
    count_distribution = _count_distribution(tree.calibrate(evidence={tid: 1}), deltas)
    distribution = np.zeros(limit + 1, dtype=float)
    upto = min(limit, count_distribution.size)
    distribution[1 : upto + 1] = present_probability * count_distribution[:upto]
    return distribution


def rank_distribution_markov(
    model: MarkovNetworkRelation,
    tid: Any,
    max_rank: int | None = None,
    tree: JunctionTree | None = None,
    base: CalibratedTree | None = None,
) -> np.ndarray:
    """``Pr(r(t) = j)`` for one tuple of a Markov-network relation.

    Returns an array of length ``limit + 1`` with index 0 unused.
    ``base`` optionally supplies the evidence-free calibration (shared by
    callers ranking many tuples of the same network, so the ``Pr(X_t =
    1)`` lookups share its memoized clique marginals).
    """
    tuples = model.sorted_tuples()
    if all(t.tid != tid for t in tuples):
        raise KeyError(f"no tuple with identifier {tid!r}")
    tree = tree or junction_tree_for(model)
    limit = len(tuples) if max_rank is None else min(int(max_rank), len(tuples))

    outranks: set[Any] = set()
    for t in tuples:
        if t.tid == tid:
            break
        outranks.add(t.tid)
    deltas = {variable: (1 if variable in outranks else 0) for variable in model.variables()}
    return _rank_distribution(tree, base or tree.calibrate(), tid, deltas, limit)


def prefix_count_distribution(
    model: MarkovNetworkRelation,
    prefix_tids: Sequence[Any],
    tree: JunctionTree | None = None,
    base: CalibratedTree | None = None,
) -> np.ndarray:
    """Evidence-free distribution of the present-tuple count over a prefix.

    Returns ``d`` with ``d[c] = Pr(exactly c of the tuples named by
    ``prefix_tids`` are present)`` — the same partial-sum dynamic program
    as :func:`rank_distribution_markov` but without conditioning on any
    tuple, run once over the whole junction forest.  The engine's top-k
    pruning uses ``alpha * E[alpha^count]`` computed from this
    distribution as the upper bound on every tuple scoring below the
    prefix; passing ``tree``/``base`` shares the cached junction tree
    and its evidence-free calibration across the examined tuples.
    """
    tree = tree or junction_tree_for(model)
    base = base or tree.calibrate()
    prefix = set(prefix_tids)
    deltas = {
        variable: (1 if variable in prefix else 0) for variable in model.variables()
    }
    return _count_distribution(base, deltas)


def positional_probabilities_markov(
    model: MarkovNetworkRelation,
    max_rank: int | None = None,
    tree: JunctionTree | None = None,
    base: CalibratedTree | None = None,
) -> tuple[list[Tuple], np.ndarray]:
    """Positional probabilities of every tuple of a Markov-network relation.

    The evidence-free calibration behind every ``Pr(X_t = 1)`` lookup is
    shared across the tuples (or supplied by the engine's cache via
    ``base``), and the score order and outranking deltas are built once
    and advanced one tuple at a time.
    """
    ordered = model.sorted_tuples()
    limit = len(ordered) if max_rank is None else min(int(max_rank), len(ordered))
    matrix = np.zeros((len(ordered), limit), dtype=float)
    tree = tree or junction_tree_for(model)
    base = base or tree.calibrate()
    deltas = dict.fromkeys(model.variables(), 0)
    for i, t in enumerate(ordered):
        matrix[i, :] = _rank_distribution(tree, base, t.tid, deltas, limit)[1:]
        deltas[t.tid] = 1
    return ordered, matrix


def prf_values_markov(
    model: MarkovNetworkRelation,
    rf: RankingFunction,
    positional: tuple[list[Tuple], np.ndarray] | None = None,
) -> tuple[list[Tuple], np.ndarray]:
    """PRF values of every tuple of a Markov-network relation.

    ``positional`` optionally supplies a precomputed ``(ordered, matrix)``
    pair (the engine's cached matrix) equal to what
    :func:`positional_probabilities_markov` would return for the ranking
    function's horizon.
    """
    if positional is None:
        horizon = rf.weight.horizon
        ordered, matrix = positional_probabilities_markov(model, max_rank=horizon)
    else:
        ordered, matrix = positional
    weights = rf.weight.as_array(matrix.shape[1])[1:]
    dtype = float if rf.is_real() else complex
    values = matrix.astype(dtype) @ weights.astype(dtype)
    factors = np.array([rf.factor(t) for t in ordered], dtype=float)
    return ordered, values * factors


def rank_markov_network(
    model: MarkovNetworkRelation, rf: RankingFunction, name: str = ""
) -> RankingResult:
    """Rank a Markov-network relation by any PRF-family ranking function."""
    ordered, values = prf_values_markov(model, rf)
    return RankingResult.from_values(ordered, values.tolist(), name=name or model.name)

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
paper's complexity analysis.  Both steps run for many tuples at once:
every array carries a leading row axis, one row per tuple.
:meth:`~repro.graphical.junction_tree.JunctionTree.calibrate_rows`
calibrates all rows in one pass of the message schedule (row ``b``
conditioned on its own tuple), and one walk of the junction tree's
per-component post-order runs the dynamic program for all rows, each
row counting the tuples ranked above its own.  Rows are zero-padded to
a common distribution length; every padded term is an exact ``0.0``,
so each row is bit-identical to a one-row run.  The positional matrix
is built in row chunks bounded by ``_STACK_ELEMENTS``; single-tuple
lookups and the top-k prefix bound run the same program with one row.
The junction tree is cached on the model by :func:`junction_tree_for`.
"""

from __future__ import annotations

from typing import Any, Hashable, Mapping, Sequence

import numpy as np

from ..core.prf import RankingFunction
from ..core.result import RankingResult
from ..core.tuples import Tuple
from ..core.weights import clamped_limit
from .junction_tree import CalibratedTree, JunctionTree, build_junction_tree
from .model import MarkovNetworkRelation

__all__ = [
    "junction_tree_for",
    "rank_distribution_markov",
    "prefix_count_distribution",
    "positional_probabilities_markov",
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


#: Bound on the elements one stacked chunk of :func:`positional_probabilities_markov`
#: holds (``rows * _row_elements(tree, n)``): taller matrices are built in
#: row chunks.  Rows never mix, so the chunking changes no bit.
_STACK_ELEMENTS = 1 << 20


def _row_elements(tree: JunctionTree, n: int) -> int:
    """Float64 elements one row of the stacked pass holds at most (roughly).

    The calibration keeps a few tables per clique (potential, belief,
    marginal, messages) and the dynamic program's widest array has one
    clique table per count ``0 .. n``.
    """
    tables = [2 ** len(clique) for clique in tree.cliques]
    return 4 * sum(tables) + max(tables, default=1) * (n + 1)


# ---------------------------------------------------------------------------
# Partial-sum dynamic program over row-stacked calibrations
# ---------------------------------------------------------------------------
def _component_count_distributions(
    rooted: Sequence[Any],
    marginals: Sequence[np.ndarray],
    counted: np.ndarray,
    column: Mapping[Hashable, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Distribution of each row's counted-variable sum over one forest component.

    ``rooted`` is the component's post-order layout (cliques before their
    parent, the root last), ``marginals`` the row-stacked normalized clique
    marginals and ``counted[b, column[v]]`` whether row ``b`` counts
    variable ``v``.  Returns ``(d, counts)``: ``d[b, c] = Pr(count = c |
    row b's evidence)`` over the component's variables, zero-padded to a
    common length, and ``counts[b]`` the number of variables row ``b``
    counts in the component (its distribution has ``counts[b] + 1``
    entries).

    Padding changes no bit of a row: a padded convolution term or shift is
    an exact ``0.0``.  The one place where a row's length changes numpy's
    summation order is a clique's drop-axis sum of a one-entry
    distribution, so those rows are summed again without the count axis.
    """
    rows = counted.shape[0]
    # Finished cliques' partial-sum distributions and per-row counts.
    partial: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for clique in rooted:
        # Every marginal carries its clique's variables in the sorted axis
        # order of ``clique.variables``, after the row axis.
        marginal = marginals[clique.index]
        # arr[b, assignment of the clique, c] = Pr(assignment, partial sum = c | row b)
        arr = marginal[..., None]
        counts = np.zeros(rows, dtype=np.intp)
        for child, _, shape in clique.children:
            child_dist, child_counts = partial.pop(child)
            counts = counts + child_counts
            outside = tuple(axis + 1 for axis, size in enumerate(shape) if size == 1)
            separator_marginal = marginal.sum(axis=outside) if outside else marginal
            denominator = separator_marginal[..., None]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(
                    denominator > 0.0,
                    child_dist / np.where(denominator > 0.0, denominator, 1.0),
                    0.0,
                )
            # Expand the ratio (indexed by the child separator variables) to
            # the clique's axis layout; both axis lists are sorted by str so a
            # plain reshape aligns them.
            ratio = ratio.reshape((rows,) + shape + (ratio.shape[-1],))
            length_a = arr.shape[-1]
            length_b = ratio.shape[-1]
            if length_a == 1 or length_b == 1:
                # Every entry of the convolution is a single product (the
                # first child of a clique, or one-entry distributions).
                arr = arr * ratio
                continue
            combined = np.zeros(arr.shape[:-1] + (length_a + length_b - 1,), dtype=float)
            for offset in range(length_b):
                combined[..., offset : offset + length_a] += arr * ratio[..., offset : offset + 1]
            arr = combined
        # Fold in the variables counted at this clique (those leaving the
        # parent separator that the row counts): shift each assignment's
        # distribution by how many of them it sets.
        if clique.leaving:
            axes = np.array([axis for axis, _ in clique.leaving])
            flags = counted[:, [column[v] for _, v in clique.leaving]]
            if flags.any():
                size = len(clique.variables)
                entries = 1 << size
                bits = (np.arange(entries)[:, None] >> (size - 1 - axes)[None, :]) & 1
                shift = flags.astype(np.intp) @ bits.T
                flat = arr.reshape(rows, entries, arr.shape[-1])
                length = flat.shape[-1]
                most = int(shift.max())
                shifted = np.zeros((rows, entries, length + most), dtype=float)
                for amount in range(most + 1):
                    selected = shift == amount
                    if selected.any():
                        shifted[selected, amount : amount + length] = flat[selected]
                arr = shifted.reshape(arr.shape[:-1] + (length + most,))
                counts = counts + flags.sum(axis=1)
        if clique.drop_axes:
            drop = tuple(axis + 1 for axis in clique.drop_axes)
            summed = arr.sum(axis=drop)
            single = counts == 0
            if arr.shape[-1] > 1 and single.any():
                summed[single, ..., 0] = arr[single, ..., 0].sum(axis=drop)
            arr = summed
        # Drop the all-zero tail past the longest row.
        width = int(counts.max(initial=0)) + 1
        if arr.shape[-1] > width:
            arr = arr[..., :width]
        partial[clique.index] = (arr, counts)
    root_dist, root_counts = partial[rooted[-1].index]
    return root_dist.reshape(rows, -1), root_counts


def _count_distributions(
    tree: JunctionTree,
    marginals: Sequence[np.ndarray],
    masses: np.ndarray,
    counted: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's count distribution over the whole forest, and its length.

    Components are combined in the forest's order the way a one-row run
    combines them: a first component's distribution as is, later ones by
    ``np.convolve`` on each row's true lengths (a one-entry side is an
    elementwise product, which ``np.convolve`` computes identically).  A
    zero-mass component contributes the one-entry zero distribution, so
    its rows come out all zero.  Returns the ``(B, width)`` zero-padded
    distributions and the ``(B,)`` true lengths.
    """
    column = {variable: index for index, variable in enumerate(tree.variables)}
    rows = counted.shape[0]
    dead = np.zeros(rows, dtype=bool)
    distribution = np.ones((rows, 1))
    lengths = np.ones(rows, dtype=np.intp)
    for position, rooted in enumerate(tree._post_orders):
        part, counts = _component_count_distributions(rooted, marginals, counted, column)
        empty = masses[:, position] <= 0.0
        dead |= empty
        part_lengths = np.where(empty, 1, counts + 1)
        if position == 0:
            distribution, lengths = part, part_lengths
            continue
        width = max(distribution.shape[1], part.shape[1], int((lengths + part_lengths).max()) - 1)
        combined = np.zeros((rows, width))
        scalar = part_lengths == 1
        combined[scalar, : distribution.shape[1]] = distribution[scalar] * part[scalar, :1]
        scaled = ~scalar & (lengths == 1)
        combined[scaled, : part.shape[1]] = distribution[scaled, :1] * part[scaled]
        for row in np.flatnonzero(~scalar & ~scaled):
            size = lengths[row] + part_lengths[row] - 1
            combined[row, :size] = np.convolve(
                distribution[row, : lengths[row]], part[row, : part_lengths[row]]
            )
        distribution, lengths = combined, lengths + part_lengths - 1
    return np.where(dead[:, None], 0.0, distribution), lengths


def _counted_before(tree: JunctionTree, ordered: Sequence[Tuple], stops: np.ndarray) -> np.ndarray:
    """``counted[b, j]``: whether ``tree.variables[j]`` ranks before position ``stops[b]``."""
    position = {t.tid: i for i, t in enumerate(ordered)}
    ranks = np.array([position.get(v, len(ordered)) for v in tree.variables], dtype=np.intp)
    return ranks[None, :] < np.asarray(stops, dtype=np.intp)[:, None]


def _rank_rows(
    tree: JunctionTree,
    base: CalibratedTree,
    tids: Sequence[Any],
    counted: np.ndarray,
    limit: int,
) -> np.ndarray:
    """``Pr(r(t_b) = j)`` for ``j = 1 .. limit``, one row per tuple of ``tids``.

    ``counted[b]`` marks the variables ranked above ``tids[b]``.
    """
    present = np.array([base.variable_marginal(tid) for tid in tids], dtype=float)
    marginals, masses = tree.calibrate_rows(tids)
    counts, _ = _count_distributions(tree, marginals, masses, counted)
    distribution = np.zeros((len(tids), limit), dtype=float)
    upto = min(limit, counts.shape[1])
    distribution[:, :upto] = present[:, None] * counts[:, :upto]
    return distribution


def rank_distribution_markov(
    model: MarkovNetworkRelation,
    tid: Any,
    max_rank: int | None = None,
    tree: JunctionTree | None = None,
    base: CalibratedTree | None = None,
) -> np.ndarray:
    """``Pr(r(t) = j)`` for one tuple of a Markov-network relation.

    Returns an array of length ``limit + 1`` with index 0 unused: the
    one-row case of :func:`positional_probabilities_markov`, equal bit for
    bit to the tuple's row of the matrix.  ``base`` optionally supplies the
    evidence-free calibration (shared by callers ranking many tuples of
    the same network, so the ``Pr(X_t = 1)`` lookups share its memoized
    clique marginals).
    """
    tuples = model.sorted_tuples()
    stop = next((i for i, t in enumerate(tuples) if t.tid == tid), None)
    if stop is None:
        raise KeyError(f"no tuple with identifier {tid!r}")
    tree = tree or junction_tree_for(model)
    limit = clamped_limit(len(tuples), max_rank)
    counted = _counted_before(tree, tuples, np.array([stop]))
    row = _rank_rows(tree, base or tree.calibrate(), [tid], counted, limit)[0]
    return np.concatenate(([0.0], row))


def prefix_count_distribution(
    model: MarkovNetworkRelation,
    prefix_tids: Sequence[Any],
    tree: JunctionTree | None = None,
    base: CalibratedTree | None = None,
) -> np.ndarray:
    """Evidence-free distribution of the present-tuple count over a prefix.

    Returns ``d`` with ``d[c] = Pr(exactly c of the tuples named by
    ``prefix_tids`` are present)`` — the same partial-sum dynamic program
    as :func:`rank_distribution_markov`, run as one row on the
    evidence-free calibration.  The engine's top-k pruning uses ``alpha *
    E[alpha^count]`` computed from this distribution as the upper bound on
    every tuple scoring below the prefix; passing ``tree``/``base`` shares
    the cached junction tree and its evidence-free calibration across the
    examined tuples.
    """
    tree = tree or junction_tree_for(model)
    base = base or tree.calibrate()
    prefix = set(prefix_tids)
    counted = np.array([[variable in prefix for variable in tree.variables]])
    marginals = [base._marginal(index).table[None] for index in range(len(tree.cliques))]
    masses = np.array([[base.component_mass(component) for component in tree._components]])
    counts, lengths = _count_distributions(tree, marginals, masses, counted)
    return counts[0, : lengths[0]]


def positional_probabilities_markov(
    model: MarkovNetworkRelation,
    max_rank: int | None = None,
    tree: JunctionTree | None = None,
    base: CalibratedTree | None = None,
) -> tuple[list[Tuple], np.ndarray]:
    """Positional probabilities of every tuple of a Markov-network relation.

    One stacked calibration and dynamic program per chunk of rows (row
    ``i`` conditions on the ``i``-th best tuple and counts the ``i``
    before it), with at most ``_STACK_ELEMENTS`` elements per chunk.  The
    evidence-free calibration behind every ``Pr(X_t = 1)`` lookup is
    shared across the tuples (or supplied by the engine's cache via
    ``base``).
    """
    ordered = model.sorted_tuples()
    n = len(ordered)
    limit = clamped_limit(n, max_rank)
    matrix = np.zeros((n, limit), dtype=float)
    tree = tree or junction_tree_for(model)
    base = base or tree.calibrate()
    step = max(1, _STACK_ELEMENTS // _row_elements(tree, n))
    for start in range(0, n, step):
        stop = min(start + step, n)
        counted = _counted_before(tree, ordered, np.arange(start, stop))
        tids = [t.tid for t in ordered[start:stop]]
        matrix[start:stop] = _rank_rows(tree, base, tids, counted, limit)
    return ordered, matrix


def rank_markov_network(
    model: MarkovNetworkRelation, rf: RankingFunction, name: str = ""
) -> RankingResult:
    """Rank a Markov-network relation by any PRF-family ranking function.

    ``Engine().rank(model, rf, name=name)``: the positional matrix of
    :func:`positional_probabilities_markov`, combined with the weights by
    :meth:`~repro.core.prf.RankingFunction.evaluate_positional`.
    """
    # Imported here: the engine's Markov backend imports this module.
    from ..engine import Engine

    return Engine().rank(model, rf, name=name)

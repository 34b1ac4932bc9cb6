"""Property-based tests (hypothesis) for and/xor trees and their ranking algorithms."""

import copy
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import PRF, AndNode, AndXorTree, Engine, LeafNode, PRFe, PRFOmega, Tuple, XorNode
from repro.andxor import generating, ranking
from repro.andxor.generating import (
    positional_distribution,
    positional_probabilities_tree,
    world_size_distribution,
)
from repro.andxor.ranking import prfe_values_tree, prfe_values_tree_recompute, rank_tree
from repro.core.prf import LinearCombinationPRFe
from repro.core.possible_worlds import prf_by_enumeration, rank_distribution_by_enumeration
from repro.core.result import ColumnarRankingResult
from repro.core.weights import NDCGDiscountWeight, StepWeight
from repro.datasets import syn_high, syn_low, syn_med, syn_xor
from tests.conftest import assert_lazy_equals_eager, eager_ranking, ranked_item


@st.composite
def small_trees(draw, max_leaves=7):
    """Random and/xor trees with up to ``max_leaves`` leaves."""
    num_leaves = draw(st.integers(min_value=1, max_value=max_leaves))
    scores = draw(
        st.lists(
            st.integers(min_value=0, max_value=30),
            min_size=num_leaves,
            max_size=num_leaves,
        )
    )
    nodes = [LeafNode(Tuple(f"t{i}", float(scores[i]), 1.0)) for i in range(num_leaves)]
    while len(nodes) > 1:
        take = draw(st.integers(min_value=2, max_value=min(3, len(nodes))))
        children, nodes = nodes[:take], nodes[take:]
        make_xor = draw(st.booleans())
        if make_xor:
            raw = draw(
                st.lists(
                    st.floats(min_value=0.05, max_value=1.0),
                    min_size=take,
                    max_size=take,
                )
            )
            scale = draw(st.floats(min_value=0.3, max_value=1.0))
            total = sum(raw)
            probabilities = [value / total * scale for value in raw]
            nodes.append(XorNode(list(zip(probabilities, children))))
        else:
            nodes.append(AndNode(children))
    return AndXorTree(nodes[0])


def _rescored(node, score):
    """A copy of the subtree with every leaf score mapped through ``score``."""
    if isinstance(node, LeafNode):
        return LeafNode(Tuple(node.tid, score(node.item.score), 1.0))
    if isinstance(node, XorNode):
        return XorNode([(p, _rescored(child, score)) for p, child in node.children])
    return AndNode([_rescored(child, score) for child in node.children])


@st.composite
def synthetic_trees(draw, max_leaves=10):
    """Syn-XOR/LOW/MED/HIGH trees with up to ``max_leaves`` leaves, some with tied scores."""
    family = draw(st.sampled_from([syn_xor, syn_low, syn_med, syn_high]))
    num_leaves = draw(st.integers(min_value=1, max_value=max_leaves))
    tree = family(num_leaves, rng=draw(st.integers(min_value=0, max_value=2**16)))
    if draw(st.booleans()):
        # Four score buckets over [0, 10000]: most leaves share a score.
        tree = AndXorTree(_rescored(tree.root, lambda score: float(score // 2500)))
    return tree


#: Trees for the positional-matrix properties: n <= 10, tied scores and
#: xor nodes whose edge probabilities sum to less than one.
matrix_trees = st.one_of(small_trees(max_leaves=10), synthetic_trees())


@settings(max_examples=40, deadline=None)
@given(small_trees())
def test_world_probabilities_sum_to_one(tree):
    worlds = tree.enumerate_worlds()
    assert abs(sum(w.probability for w in worlds) - 1.0) < 1e-9


@settings(max_examples=40, deadline=None)
@given(small_trees())
def test_marginals_match_enumeration(tree):
    worlds = tree.enumerate_worlds()
    marginals = tree.marginal_probabilities()
    for t in tree.tuples():
        exact = sum(w.probability for w in worlds if t.tid in w)
        assert abs(marginals[t.tid] - exact) < 1e-9


@settings(max_examples=30, deadline=None)
@given(small_trees())
def test_world_size_distribution_matches_enumeration(tree):
    sizes = world_size_distribution(tree)
    worlds = tree.enumerate_worlds()
    for size in range(len(tree) + 1):
        exact = sum(w.probability for w in worlds if len(w) == size)
        assert abs(sizes[size] - exact) < 1e-9


@settings(max_examples=30, deadline=None)
@given(small_trees())
def test_positional_distribution_matches_enumeration(tree):
    worlds = tree.enumerate_worlds()
    for t in tree.tuples():
        exact = rank_distribution_by_enumeration(worlds, t.tid, len(tree))
        computed = positional_distribution(tree, t.tid)
        assert np.allclose(computed, exact, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(small_trees(), st.floats(min_value=0.05, max_value=1.0))
def test_incremental_prfe_matches_enumeration_and_recompute(tree, alpha):
    worlds = tree.enumerate_worlds()
    ordered, incremental = prfe_values_tree(tree, alpha)
    _, recomputed = prfe_values_tree_recompute(tree, alpha)
    assert np.allclose(incremental, recomputed, atol=1e-9)
    for t, value in zip(ordered, incremental):
        exact = prf_by_enumeration(worlds, t.tid, lambda i: alpha ** i)
        assert abs(value - exact) < 1e-9


@settings(max_examples=40, deadline=None)
@given(matrix_trees)
def test_positional_matrix_matches_enumeration(tree):
    n = len(tree)
    worlds = tree.enumerate_worlds()
    ordered = tree.sorted_tuples()
    exact = np.array(
        [rank_distribution_by_enumeration(worlds, t.tid, n)[1:] for t in ordered]
    ).reshape(n, n)
    for max_rank in [*range(n + 1), n + 3, None]:
        rows, matrix = positional_probabilities_tree(tree, max_rank=max_rank)
        width = n if max_rank is None else min(max_rank, n)
        assert [t.tid for t in rows] == [t.tid for t in ordered]
        assert matrix.shape == (n, width)
        assert np.allclose(matrix, exact[:, :width], rtol=0.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(matrix_trees)
def test_positional_matrix_narrowing_is_bit_identical(tree):
    _, wide = positional_probabilities_tree(tree)
    for width in range(len(tree) + 1):
        _, fresh = positional_probabilities_tree(tree, max_rank=width)
        assert np.array_equal(wide[:, :width], fresh)


@settings(max_examples=40, deadline=None)
@given(matrix_trees, st.sampled_from([1, 2, None]))
def test_positional_matrix_row_chunks_change_no_bit(tree, max_rank):
    _, whole = positional_probabilities_tree(tree, max_rank=max_rank)
    for elements in (1, 2):
        with mock.patch.object(generating, "_STACK_ELEMENTS", elements):
            _, chunked = positional_probabilities_tree(tree, max_rank=max_rank)
        assert np.array_equal(chunked, whole)


@settings(max_examples=40, deadline=None)
@given(matrix_trees)
def test_positional_matrix_rows_match_single_tuple_builds(tree):
    ordered, matrix = positional_probabilities_tree(tree)
    for row, t in zip(matrix, ordered):
        single = positional_distribution(tree, t.tid)
        assert np.allclose(row, single[1:], rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Stacked PRFe: every row and every alpha in one walk
# ---------------------------------------------------------------------------
def _xor_edges(draw, count):
    """Edge probabilities: dyadic (exact zeros, sums of exactly 1) or arbitrary."""
    if draw(st.booleans()):
        eighths = draw(st.lists(st.integers(0, 8), min_size=count, max_size=count))
        while sum(eighths) > 8:
            eighths[eighths.index(max(eighths))] -= 1
        return [value / 8 for value in eighths]
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count))
    total = sum(raw) or 1.0
    scale = draw(st.floats(0.2, 1.0))
    return [value / total * scale for value in raw]


@st.composite
def prfe_trees(draw, max_leaves=10):
    """Trees with zero edges, exhaustive xor nodes and mixed and/xor depth."""
    num_leaves = draw(st.integers(min_value=1, max_value=max_leaves))
    scores = draw(st.lists(st.integers(0, 6), min_size=num_leaves, max_size=num_leaves))
    nodes = [LeafNode(Tuple(f"t{i}", float(scores[i]), 1.0)) for i in range(num_leaves)]
    while len(nodes) > 1 or draw(st.booleans()):
        take = draw(st.integers(min_value=1, max_value=min(3, len(nodes))))
        start = draw(st.integers(min_value=0, max_value=len(nodes) - take))
        children = nodes[start : start + take]
        if draw(st.booleans()):
            parent = XorNode(list(zip(_xor_edges(draw, take), children)))
        else:
            parent = AndNode(children)
        nodes[start : start + take] = [parent]
        if len(nodes) == 1 and draw(st.booleans()):
            break
    return AndXorTree(nodes[0])


REAL_ALPHAS = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(0.01, 0.99),
    st.floats(1.01, 1.6),
    st.floats(-0.99, -0.01),
)
ALPHAS = st.one_of(
    REAL_ALPHAS,
    st.builds(complex, st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)),
)
prfe_tree_inputs = st.one_of(prfe_trees(), synthetic_trees())


def _pairs(result):
    return [(item.tid, item.value) for item in result]


@settings(max_examples=60, deadline=None)
@given(prfe_tree_inputs, st.lists(ALPHAS, min_size=1, max_size=4))
def test_stacked_prfe_matches_enumeration(tree, alphas):
    worlds = tree.enumerate_worlds()
    ordered = tree.sorted_tuples()
    columns = ranking.prfe_values_stacked(ranking.PRFeLayout(tree), alphas)
    for alpha, values in zip(alphas, columns):
        assert values.shape == (len(ordered),)
        for t, value in zip(ordered, values):
            exact = prf_by_enumeration(worlds, t.tid, lambda i: alpha**i)
            assert abs(value - exact) < 1e-12


@settings(max_examples=40, deadline=None)
@given(prfe_tree_inputs, st.lists(st.tuples(ALPHAS, ALPHAS), min_size=1, max_size=3))
def test_linear_combination_matches_enumeration(tree, terms):
    rf = LinearCombinationPRFe([u for u, _ in terms], [alpha for _, alpha in terms])
    worlds = tree.enumerate_worlds()
    expected = {
        t.tid: prf_by_enumeration(worlds, t.tid, lambda i: complex(rf.weight(i)))
        for t in tree.tuples()
    }
    for result in (rank_tree(tree, rf), Engine().rank(tree, rf)):
        for tid, value in _pairs(result):
            assert abs(value - expected[tid]) < 1e-12


@settings(max_examples=40, deadline=None)
@given(prfe_tree_inputs, st.lists(ALPHAS, min_size=2, max_size=6))
def test_one_alpha_alone_equals_its_column_of_a_stacked_run(tree, alphas):
    layout = ranking.PRFeLayout(tree)
    stacked = ranking.prfe_values_stacked(layout, alphas)
    for alpha, column in zip(alphas, stacked):
        assert np.array_equal(ranking.prfe_values_stacked(layout, [alpha])[0], column)
        assert np.array_equal(prfe_values_tree(tree, alpha)[1], column)
    with mock.patch.object(ranking, "_STACK_ELEMENTS", 1):
        assert all(
            np.array_equal(chunked, column)
            for chunked, column in zip(ranking.prfe_values_stacked(layout, alphas), stacked)
        )


@settings(max_examples=40, deadline=None)
@given(prfe_tree_inputs, REAL_ALPHAS, ALPHAS, st.sampled_from([1, 2, 3]))
def test_every_path_returns_the_same_bits(tree, alpha, other, k):
    rf = PRFe(alpha)
    combination = LinearCombinationPRFe([0.5, 0.25j], [alpha, other])
    reference = rank_tree(tree, rf)
    cold = Engine()
    assert _pairs(cold.rank(tree, rf)) == _pairs(reference)
    assert _pairs(cold.rank(tree, rf)) == _pairs(reference)  # warm: memoized column
    together = Engine().rank_many(tree, [PRFe(other), rf, combination, rf])
    assert _pairs(together[1]) == _pairs(reference) == _pairs(together[3])
    assert _pairs(together[0]) == _pairs(rank_tree(tree, PRFe(other)))
    assert _pairs(together[2]) == _pairs(rank_tree(tree, combination))
    assert _pairs(cold.rank_many(tree, [combination])[0]) == _pairs(together[2])
    batch = Engine().rank_batch([tree, AndXorTree(tree.root)], rf)
    assert all(_pairs(result) == _pairs(reference) for result in batch)
    for engine in (Engine(), cold):
        top, _ = engine.rank_top_k(tree, rf, k)
        assert _pairs(top) == _pairs(reference)[:k]


@settings(max_examples=40, deadline=None)
@given(prfe_tree_inputs, st.floats(0.05, 0.95), st.integers(1, 4))
def test_topk_prefix_chunks_change_no_bit(tree, alpha, k):
    _, full = prfe_values_tree(tree, alpha)
    reference = rank_tree(tree, PRFe(alpha))
    _, first_certifying, _ = ranking.prfe_topk_values_stacked(ranking.PRFeLayout(tree), alpha, k)
    for rows in (1, 2):
        with mock.patch.object(ranking, "_TOPK_MIN_ROWS", rows):
            layout = ranking.PRFeLayout(tree)
            values, examined, bound = ranking.prfe_topk_values_stacked(layout, alpha, k)
            assert examined == first_certifying
            assert np.array_equal(values, full[:examined])
            if examined < len(tree):
                # Every unexamined leaf is below the certified bound.
                assert np.all(np.abs(full[examined:]) <= bound)
            top, report = Engine().rank_top_k(tree, PRFe(alpha), k)
            assert report.examined == examined
            assert _pairs(top) == _pairs(reference)[:k]


# ---------------------------------------------------------------------------
# Lazy full rankings: array-backed, items built on demand from the caller's tuples
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(prfe_tree_inputs, REAL_ALPHAS, ALPHAS, st.sampled_from([1, 3, None]))
def test_full_rankings_are_lazy_and_equal_the_eager_result(tree, alpha, other, horizon):
    twin = copy.deepcopy(tree)
    specs = [
        PRFe(alpha),
        PRFe(other),
        LinearCombinationPRFe([0.5, 0.25j], [alpha, other]),
        PRFOmega(StepWeight(horizon)) if horizon else PRF(NDCGDiscountWeight()),
    ]
    engine = Engine()
    for rf in specs:
        reference = eager_ranking(rank_tree(tree, rf), tree.sorted_tuples())
        for _ in range(2):  # cold, then warm
            assert_lazy_equals_eager(engine.rank(tree, rf), reference, tree.tuples())
        for data, result in zip((tree, twin), Engine().rank_batch([tree, twin], rf)):
            assert_lazy_equals_eager(result, reference, data.tuples())
        top, _ = engine.rank_top_k(tree, rf, 2)
        assert not isinstance(top, ColumnarRankingResult)
        assert [ranked_item(item) for item in top] == [ranked_item(item) for item in reference[:2]]
    for fresh in (Engine(), engine):
        for rf, result in zip(specs, fresh.rank_many(twin, specs)):
            reference = eager_ranking(rank_tree(tree, rf), tree.sorted_tuples())
            assert_lazy_equals_eager(result, reference, twin.tuples())

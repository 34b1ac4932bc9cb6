"""Tests for the ranking algorithms over and/xor trees."""

import numpy as np
import pytest

from repro import PRF, PRFOmega, PRFe, rank
from repro.andxor.ranking import (
    prfe_values_tree,
    prfe_values_tree_recompute,
    rank_tree,
)
from repro.andxor.tree import AndXorTree
from repro.core.possible_worlds import prf_by_enumeration
from repro.core.weights import NDCGDiscountWeight, StepWeight
from tests.conftest import random_relation, random_small_tree


def ranked_values(tree, rf):
    """``(sorted_tuples, values)`` of ``rank_tree``, values in score order."""
    result = rank_tree(tree, rf)
    ordered = tree.sorted_tuples()
    return ordered, [result.value_of(t.tid) for t in ordered]


class TestPRFeOnTrees:
    @pytest.mark.parametrize("alpha", [0.2, 0.6, 0.95, 1.0])
    def test_incremental_matches_bruteforce(self, figure1_tree, alpha):
        worlds = figure1_tree.enumerate_worlds()
        ordered, values = prfe_values_tree(figure1_tree, alpha)
        for t, value in zip(ordered, values):
            exact = prf_by_enumeration(worlds, t.tid, lambda i, a=alpha: a ** i)
            assert value == pytest.approx(exact, abs=1e-10), t.tid

    def test_incremental_matches_recompute(self, rng):
        for _ in range(5):
            tree = random_small_tree(rng, num_leaves=9)
            _, incremental = prfe_values_tree(tree, 0.8)
            _, recomputed = prfe_values_tree_recompute(tree, 0.8)
            assert np.allclose(incremental, recomputed, atol=1e-10)

    def test_tiny_magnitudes_survive_incremental_updates(self):
        """Regression: tiny-but-nonzero products must not be treated as zero.

        A deep block of certain tuples under a small alpha drives the and
        node's running product down to ``alpha**200 ~ 2.4e-305``.  The old
        guard classified any factor with magnitude below an absolute
        ``1e-300`` as zero, erasing every value downstream of the block;
        the mantissa/scale guard keeps the true (representable) values.
        """
        from repro import AndNode, LeafNode, Tuple

        high = [Tuple(f"h{i}", 1000.0 - i, 1.0) for i in range(200)]
        low = Tuple("low", 1.0, 1.0)
        tree = AndXorTree(
            AndNode([AndNode([LeafNode(t) for t in high]), LeafNode(low)])
        )
        alpha = 0.03
        ordered, incremental = prfe_values_tree(tree, alpha)
        _, recomputed = prfe_values_tree_recompute(tree, alpha)
        # True values are alpha**(i+1) — tiny but well inside double range.
        assert incremental[-1] != 0.0
        assert np.allclose(incremental, recomputed, rtol=1e-9, atol=0.0)
        expected = alpha ** (np.arange(len(ordered)) + 1.0)
        assert np.allclose(incremental, expected, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.62, 0.99, 1.4])
    def test_long_and_node_products_stay_in_range(self, alpha):
        """An and node over 1500 certain leaves: value ``i`` is ``alpha**(i+1)``.

        The root's running product spans 1500 rows, so its mantissas must
        be renormalized mid-scan (at ``alpha = 0.99`` the product of the
        mantissa ratios alone reaches ``1.98**1500``); every representable
        value must come out to rounding, down to ``0.62**1500 ~ 1e-311``.
        """
        from repro import AndNode, LeafNode, Tuple

        leaves = [LeafNode(Tuple(f"t{i}", 2000.0 - i, 1.0)) for i in range(1500)]
        _, values = prfe_values_tree(AndXorTree(AndNode(leaves)), alpha)
        expected = alpha ** (np.arange(1500) + 1.0)
        normal = expected > 1e-300
        assert np.allclose(values[normal], expected[normal], rtol=1e-12, atol=0.0)
        assert np.all(values[~normal] >= 0.0) and np.all(values[~normal] < 1e-300)

    def test_tiny_xor_edge_probabilities(self):
        """Trees whose leaves carry tiny marginals keep exact tiny values."""
        from repro import Tuple

        tiny = 1e-8
        groups = [
            [Tuple(f"a{i}", 100.0 - i, tiny)] for i in range(40)
        ] + [[Tuple("b", 1.0, 0.5)]]
        tree = AndXorTree.from_x_tuples(groups, name="tiny-edges")
        _, incremental = prfe_values_tree(tree, 0.9)
        _, recomputed = prfe_values_tree_recompute(tree, 0.9)
        # The difference F(a, a) - F(a, 0) of two near-1 evaluations cancels
        # ~8 digits here, so machine epsilon amplifies to ~1e-8 relative in
        # both evaluation strategies; the values must still be positive and
        # agree to that inherent precision instead of collapsing to zero.
        assert np.allclose(incremental, recomputed, rtol=1e-6, atol=0.0)
        assert np.all(np.asarray(incremental) > 0.0)

    def test_complex_alpha(self, figure1_tree):
        worlds = figure1_tree.enumerate_worlds()
        alpha = 0.5 + 0.4j
        ordered, values = prfe_values_tree(figure1_tree, alpha)
        for t, value in zip(ordered, values):
            exact = prf_by_enumeration(worlds, t.tid, lambda i: alpha ** i)
            assert value == pytest.approx(exact, abs=1e-10)

    def test_certain_and_impossible_edges(self):
        """Probabilities of exactly 0 and 1 must not break the guarded products."""
        from repro import AndNode, LeafNode, Tuple, XorNode

        tree = AndXorTree(
            AndNode(
                [
                    XorNode([(1.0, LeafNode(Tuple("a", 5, 1.0)))]),
                    XorNode([(0.0, LeafNode(Tuple("b", 4, 1.0))), (0.5, LeafNode(Tuple("c", 3, 1.0)))]),
                    XorNode([(0.7, LeafNode(Tuple("d", 2, 1.0)))]),
                ]
            )
        )
        worlds = tree.enumerate_worlds()
        ordered, values = prfe_values_tree(tree, 0.9)
        for t, value in zip(ordered, values):
            exact = prf_by_enumeration(worlds, t.tid, lambda i: 0.9 ** i)
            assert value == pytest.approx(exact, abs=1e-10)


class TestGeneralPRFOnTrees:
    def test_general_weight_matches_bruteforce(self, figure1_tree):
        worlds = figure1_tree.enumerate_worlds()
        rf = PRF(NDCGDiscountWeight())
        ordered, values = ranked_values(figure1_tree, rf)
        for t, value in zip(ordered, values):
            exact = prf_by_enumeration(worlds, t.tid, NDCGDiscountWeight())
            assert value == pytest.approx(exact, abs=1e-10)

    def test_step_weight_tree(self, rng):
        tree = random_small_tree(rng, num_leaves=8)
        worlds = tree.enumerate_worlds()
        rf = PRFOmega(StepWeight(3))
        ordered, values = ranked_values(tree, rf)
        for t, value in zip(ordered, values):
            exact = prf_by_enumeration(worlds, t.tid, StepWeight(3))
            assert value == pytest.approx(exact, abs=1e-10)

    def test_tuple_factor_on_tree(self, figure1_tree):
        from repro.core.weights import PositionWeight

        rf = PRF(PositionWeight(1), tuple_factor=lambda t: t.score)
        ordered, values = ranked_values(figure1_tree, rf)
        worlds = figure1_tree.enumerate_worlds()
        for t, value in zip(ordered, values):
            exact = t.score * prf_by_enumeration(worlds, t.tid, PositionWeight(1))
            assert value == pytest.approx(exact, abs=1e-10)


class TestConsistencyWithIndependentAlgorithms:
    def test_independent_tree_equals_flat_relation(self, rng):
        relation = random_relation(10, rng, allow_certain=False)
        tree = AndXorTree.from_independent(relation)
        for rf in (PRFe(0.8), PRFOmega(StepWeight(4)), PRF(NDCGDiscountWeight())):
            flat = rank(relation, rf)
            nested = rank(tree, rf)
            assert flat.tids() == nested.tids(), type(rf).__name__

    def test_rank_tree_dispatch_linear_combination(self, figure1_tree):
        from repro import LinearCombinationPRFe

        rf = LinearCombinationPRFe([0.7, 0.3], [0.9, 0.5])
        result = rank_tree(figure1_tree, rf)
        _, a = prfe_values_tree(figure1_tree, 0.9)
        _, b = prfe_values_tree(figure1_tree, 0.5)
        combined = 0.7 * a + 0.3 * b
        ordered = figure1_tree.sorted_tuples()
        expected_order = [
            t.tid
            for t, _ in sorted(
                zip(ordered, combined), key=lambda pair: -abs(pair[1])
            )
        ]
        assert result.tids() == expected_order

    def test_rank_tree_result_is_complete(self, figure1_tree):
        result = rank_tree(figure1_tree, PRFe(0.9))
        assert sorted(result.tids()) == sorted(t.tid for t in figure1_tree.tuples())

"""Tests for generating functions over and/xor trees (Theorem 1 and Section 4.2)."""

import numpy as np
import pytest

from repro.andxor.generating import (
    generating_function,
    positional_distribution,
    positional_probabilities_tree,
    subset_size_distribution,
    world_size_distribution,
)
from repro.core.possible_worlds import rank_distribution_by_enumeration
from repro.datasets import syn_high, syn_low, syn_med, syn_xor
from tests.conftest import random_small_tree


class TestWorldSizeDistribution:
    def test_figure2_sizes(self, figure2_tree):
        sizes = world_size_distribution(figure2_tree)
        # Worlds of sizes 3, 2 and 3 with probabilities .3, .3, .4.
        assert sizes[2] == pytest.approx(0.3)
        assert sizes[3] == pytest.approx(0.7)
        assert sizes.sum() == pytest.approx(1.0)

    def test_matches_enumeration(self, rng):
        for _ in range(5):
            tree = random_small_tree(rng, num_leaves=7)
            sizes = world_size_distribution(tree)
            worlds = tree.enumerate_worlds()
            for size in range(len(tree) + 1):
                exact = sum(w.probability for w in worlds if len(w) == size)
                assert sizes[size] == pytest.approx(exact, abs=1e-9)


class TestSubsetSizeDistribution:
    def test_subset_counts(self, figure1_tree):
        subset = ["t2", "t3"]  # mutually exclusive: exactly one always present
        sizes = subset_size_distribution(figure1_tree, subset)
        assert sizes[1] == pytest.approx(1.0)

    def test_matches_enumeration(self, rng):
        tree = random_small_tree(rng, num_leaves=6)
        subset = [t.tid for t in tree.tuples()[:3]]
        sizes = subset_size_distribution(tree, subset)
        worlds = tree.enumerate_worlds()
        for size in range(len(subset) + 1):
            exact = sum(
                w.probability
                for w in worlds
                if sum(1 for tid in subset if tid in w) == size
            )
            assert sizes[size] == pytest.approx(exact, abs=1e-9)


class TestPositionalDistribution:
    def test_example4_value(self, figure1_tree):
        # Example 4 of the paper: the coefficient of x^2 y is 0.216 — the
        # probability that t4 is ranked third.
        distribution = positional_distribution(figure1_tree, "t4")
        assert distribution[3] == pytest.approx(0.216)

    def test_distribution_sums_to_marginal(self, figure1_tree):
        marginals = figure1_tree.marginal_probabilities()
        for t in figure1_tree.tuples():
            distribution = positional_distribution(figure1_tree, t.tid)
            assert distribution.sum() == pytest.approx(marginals[t.tid])

    def test_matches_enumeration(self, rng):
        for _ in range(4):
            tree = random_small_tree(rng, num_leaves=7)
            worlds = tree.enumerate_worlds()
            for t in tree.tuples():
                exact = rank_distribution_by_enumeration(worlds, t.tid, len(tree))
                distribution = positional_distribution(tree, t.tid)
                assert np.allclose(distribution, exact, atol=1e-9), t.tid

    def test_truncation(self, figure1_tree):
        full = positional_distribution(figure1_tree, "t4")
        truncated = positional_distribution(figure1_tree, "t4", max_rank=2)
        assert truncated.size == 3
        assert np.allclose(truncated[1:], full[1:3])

    def test_unknown_tuple(self, figure1_tree):
        with pytest.raises(KeyError):
            positional_distribution(figure1_tree, "nope")

    def test_matrix_version_matches_per_tuple(self, figure1_tree):
        ordered, matrix = positional_probabilities_tree(figure1_tree)
        for i, t in enumerate(ordered):
            single = positional_distribution(figure1_tree, t.tid)
            assert np.allclose(matrix[i], single[1:])


class TestStackedPositionalMatrix:
    """The one-walk matrix at a size where summation order shows in the bits.

    The n <= 10 property tests rarely sum enough terms per coefficient
    for a changed order to move a bit; n = 60 trees do.
    """

    @pytest.mark.parametrize("family", [syn_xor, syn_low, syn_med, syn_high])
    def test_narrowing_is_bit_identical(self, family):
        for seed in range(3):
            tree = family(60, rng=seed)
            _, wide = positional_probabilities_tree(tree)
            for width in (2, 3, 5, 8, 13, 21, 34):
                _, narrow = positional_probabilities_tree(tree, max_rank=width)
                assert np.array_equal(wide[:, :width], narrow), (seed, width)


class TestGeneratingFunctionMechanics:
    def test_two_y_labels_rejected(self, figure1_tree):
        labels = {"t1": "y", "t2": "y"}
        with pytest.raises(ValueError):
            generating_function(figure1_tree, labels)

    def test_all_constant_labels_give_scalar_one(self, figure1_tree):
        poly = generating_function(figure1_tree, {})
        assert poly.a[0] == pytest.approx(1.0)
        assert np.allclose(poly.b, 0.0)

    def test_evaluate_consistency(self, figure1_tree):
        labels = {"t2": "x", "t5": "y"}
        poly = generating_function(figure1_tree, labels)
        x, y = 0.7, 0.3
        manual = float(
            np.dot(poly.a, x ** np.arange(poly.a.size))
            + y * np.dot(poly.b, x ** np.arange(poly.b.size))
        )
        assert poly.evaluate(x, y) == pytest.approx(manual)

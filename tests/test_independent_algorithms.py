"""Tests for the generating-function algorithms on tuple-independent relations."""

import numpy as np
import pytest

from repro import PRF, PRFOmega, PRFe, ProbabilisticRelation, Tuple, default_engine
from repro.algorithms.independent import (
    positional_probabilities,
    prfe_log_values,
    prfe_values,
    rank_distributions,
    rank_independent,
)
from repro.baselines.expected_rank import expected_rank_terms
from repro.core.possible_worlds import (
    enumerate_worlds,
    prf_by_enumeration,
    rank_distribution_by_enumeration,
)
from repro.core.weights import ConstantWeight, NDCGDiscountWeight, StepWeight
from tests.conftest import random_relation


def prf_values(relation, rf):
    """``(sorted_tuples, values)`` of ``rank_independent``, values in score order."""
    result = rank_independent(relation, rf)
    ordered = relation.sorted_by_score()
    return ordered, np.array([result.value_of(t.tid) for t in ordered])


class TestPositionalProbabilities:
    def test_example1_values(self, example1_relation):
        ordered, matrix = positional_probabilities(example1_relation)
        assert [t.tid for t in ordered] == ["t1", "t2", "t3"]
        # Example 1: Pr(r(t3) = 1..3) = .08, .2, .12
        assert np.allclose(matrix[2], [0.08, 0.2, 0.12])

    def test_rows_sum_to_tuple_probability(self, example1_relation):
        ordered, matrix = positional_probabilities(example1_relation)
        for row, t in zip(matrix, ordered):
            assert row.sum() == pytest.approx(t.probability)

    def test_matches_enumeration_on_random_relations(self, rng):
        for _ in range(5):
            relation = random_relation(7, rng)
            worlds = enumerate_worlds(relation)
            ordered, matrix = positional_probabilities(relation)
            for i, t in enumerate(ordered):
                exact = rank_distribution_by_enumeration(worlds, t.tid, len(relation))
                assert np.allclose(matrix[i], exact[1:]), t.tid

    def test_max_rank_truncation_consistency(self, rng):
        relation = random_relation(12, rng)
        _, full = positional_probabilities(relation)
        _, truncated = positional_probabilities(relation, max_rank=4)
        assert truncated.shape == (12, 4)
        assert np.allclose(truncated, full[:, :4])

    def test_zero_and_one_probability_tuples(self):
        relation = ProbabilisticRelation(
            [Tuple("a", 3, 1.0), Tuple("b", 2, 0.0), Tuple("c", 1, 0.5)]
        )
        ordered, matrix = positional_probabilities(relation)
        assert matrix[0, 0] == pytest.approx(1.0)  # certain tuple always rank 1
        assert np.allclose(matrix[1], 0.0)  # impossible tuple never ranked
        assert matrix[2, 1] == pytest.approx(0.5)  # c always behind a

    def test_empty_relation(self):
        relation = ProbabilisticRelation([])
        ordered, matrix = positional_probabilities(relation)
        assert ordered == [] and matrix.shape == (0, 0)

    def test_negative_max_rank_rejected(self, example1_relation):
        with pytest.raises(ValueError):
            positional_probabilities(example1_relation, max_rank=-1)

    def test_rank_distributions_dict(self, example1_relation):
        distributions = rank_distributions(example1_relation)
        assert distributions["t3"][2] == pytest.approx(0.2)
        assert distributions["t3"][0] == 0.0


class TestPRFeValues:
    def test_example5_value(self, example1_relation):
        ordered, values = prfe_values(example1_relation, 0.6)
        by_tid = {t.tid: v for t, v in zip(ordered, values)}
        assert by_tid["t3"] == pytest.approx(0.14592)

    def test_matches_bruteforce(self, rng):
        relation = random_relation(8, rng)
        worlds = enumerate_worlds(relation)
        for alpha in (0.3, 0.95, 1.0):
            ordered, values = prfe_values(relation, alpha)
            for t, value in zip(ordered, values):
                exact = prf_by_enumeration(worlds, t.tid, lambda i, a=alpha: a ** i)
                assert value == pytest.approx(exact, abs=1e-12)

    def test_complex_alpha_matches_bruteforce(self, rng):
        relation = random_relation(6, rng)
        worlds = enumerate_worlds(relation)
        alpha = 0.4 + 0.3j
        ordered, values = prfe_values(relation, alpha)
        for t, value in zip(ordered, values):
            exact = prf_by_enumeration(worlds, t.tid, lambda i: alpha ** i)
            assert value == pytest.approx(exact, abs=1e-12)

    def test_log_values_consistent_with_plain_values(self, rng):
        relation = random_relation(10, rng, allow_certain=False)
        ordered, log_values = prfe_log_values(relation, 0.8)
        _, values = prfe_values(relation, 0.8)
        assert np.allclose(np.exp(log_values), values)

    def test_log_values_reject_bad_alpha(self, example1_relation):
        with pytest.raises(ValueError):
            prfe_log_values(example1_relation, 0.0)
        with pytest.raises(ValueError):
            prfe_log_values(example1_relation, 1.5)

    def test_alpha_one_ranks_by_probability(self, rng):
        relation = random_relation(15, rng, allow_certain=False)
        result = rank_independent(relation, PRFe(1.0))
        by_probability = sorted(relation, key=lambda t: -t.probability)
        assert result.tids()[:5] == [t.tid for t in by_probability[:5]]


class TestGeneralPRF:
    def test_general_path_matches_bruteforce(self, rng):
        relation = random_relation(7, rng)
        worlds = enumerate_worlds(relation)
        rf = PRF(NDCGDiscountWeight())
        ordered, values = prf_values(relation, rf)
        for t, value in zip(ordered, values):
            exact = prf_by_enumeration(worlds, t.tid, NDCGDiscountWeight())
            assert value == pytest.approx(exact, abs=1e-12)

    def test_horizon_path_matches_general(self, rng):
        relation = random_relation(10, rng)
        step = PRFOmega(StepWeight(4))
        unbounded_equivalent = PRF(lambda i: 1.0 if i <= 4 else 0.0)
        _, horizon_values = prf_values(relation, step)
        _, general_values = prf_values(relation, unbounded_equivalent)
        assert np.allclose(horizon_values, general_values)

    def test_tuple_factor_expected_score(self, rng):
        relation = random_relation(9, rng)
        rf = PRF(ConstantWeight(), tuple_factor=lambda t: t.score)
        ordered, values = prf_values(relation, rf)
        for t, value in zip(ordered, values):
            assert value == pytest.approx(t.score * t.probability)

    def test_prf_values_linear_combination_matches_sum(self, rng):
        from repro import LinearCombinationPRFe

        relation = random_relation(8, rng)
        rf = LinearCombinationPRFe([0.5, 0.25], [0.9, 0.3])
        _, combined = prf_values(relation, rf)
        _, a = prfe_values(relation, 0.9)
        _, b = prfe_values(relation, 0.3)
        assert np.allclose(combined, 0.5 * a + 0.25 * b)

    def test_rank_independent_result_order(self, example1_relation):
        result = rank_independent(example1_relation, PRFe(0.6))
        values = [item.magnitude for item in result]
        assert values == sorted(values, reverse=True)

    def test_expected_world_size_excluding(self, example1_relation):
        """E-Rank's er2 term: ``E[|pw|; t absent] = (1 - Pr(t)) * (C - Pr(t))``."""
        _, er2 = expected_rank_terms(example1_relation)
        total = example1_relation.expected_world_size()
        for t, value in zip(default_engine().sorted_tuples(example1_relation), er2):
            assert value == pytest.approx((1 - t.probability) * (total - t.probability))


class TestLargeScaleStability:
    def test_prfe_log_ranking_handles_underflow(self):
        rng = np.random.default_rng(0)
        n = 3000
        scores = rng.permutation(n).astype(float)
        probabilities = rng.uniform(0.3, 0.9, size=n)
        relation = ProbabilisticRelation.from_arrays(scores, probabilities)
        result = rank_independent(relation, PRFe(0.5))
        # With alpha = 0.5 the raw values underflow far down the list, but the
        # ranking must still be a permutation with deterministic order.
        assert len(set(result.tids())) == n


class TestPositionalProbabilityEdgeCases:
    """Regression tests: degenerate inputs return well-shaped, warning-free matrices."""

    @staticmethod
    def _silent(function):
        import warnings

        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            return function()

    def test_max_rank_zero(self, example1_relation):
        ordered, matrix = self._silent(
            lambda: positional_probabilities(example1_relation, max_rank=0)
        )
        assert matrix.shape == (3, 0)
        assert matrix.dtype == float
        assert [t.tid for t in ordered] == ["t1", "t2", "t3"]

    def test_empty_relation(self):
        empty = ProbabilisticRelation([])
        for max_rank in (None, 0, 5):
            ordered, matrix = self._silent(
                lambda mr=max_rank: positional_probabilities(empty, max_rank=mr)
            )
            assert ordered == []
            assert matrix.shape == (0, 0)

    def test_all_zero_probabilities(self):
        relation = ProbabilisticRelation.from_pairs([(3.0, 0.0), (2.0, 0.0), (1.0, 0.0)])
        ordered, matrix = self._silent(lambda: positional_probabilities(relation))
        assert matrix.shape == (3, 3)
        assert np.all(matrix == 0.0)
        # Downstream consumers stay silent and deterministic as well.
        distributions = self._silent(lambda: rank_distributions(relation))
        assert all(np.all(d == 0.0) for d in distributions.values())
        result = self._silent(lambda: rank_independent(relation, PRFe(0.5)))
        assert result.tids() == ["t1", "t2", "t3"]

    def test_max_rank_beyond_relation_is_clipped(self, example1_relation):
        _, matrix = self._silent(
            lambda: positional_probabilities(example1_relation, max_rank=50)
        )
        assert matrix.shape == (3, 3)

    def test_negative_max_rank_raises(self, example1_relation):
        with pytest.raises(ValueError, match="non-negative"):
            positional_probabilities(example1_relation, max_rank=-1)

    def test_non_integer_max_rank_raises(self, example1_relation):
        with pytest.raises(ValueError, match="integer"):
            positional_probabilities(example1_relation, max_rank=2.5)

    def test_prefix_polynomial_matrix_truncation_is_slice_exact(self, rng):
        from repro.algorithms.independent import prefix_polynomial_matrix

        probabilities = rng.uniform(0.0, 1.0, size=20)
        wide = prefix_polynomial_matrix(probabilities, 20)
        narrow = prefix_polynomial_matrix(probabilities, 6)
        assert np.array_equal(wide[:, :6], narrow)

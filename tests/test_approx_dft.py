"""Tests for the DFT-based approximation of weight functions (Section 5.1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import PRFOmega, rank
from repro.approx import STAGE_SETS, approximate_weight_function, dft_approximation
from repro.approx.dft import _tabulate
from repro.core.weights import StepWeight, TabulatedWeight
from repro.metrics import kendall_topk_distance
from tests.conftest import random_relation


class TestApproximationMechanics:
    def test_number_of_terms(self):
        approx = dft_approximation(StepWeight(50), num_terms=10)
        assert len(approx) == 10
        assert approx.coefficients.shape == approx.alphas.shape

    def test_support_from_horizon(self):
        approx = dft_approximation(StepWeight(30), num_terms=5)
        assert approx.support == 30

    def test_support_from_table(self):
        approx = dft_approximation([1.0, 0.5, 0.25], num_terms=3)
        assert approx.support == 3

    def test_support_required_for_unbounded_weight(self):
        from repro.core.weights import LinearWeight

        with pytest.raises(ValueError):
            dft_approximation(LinearWeight(), num_terms=5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            dft_approximation(StepWeight(10), num_terms=0)
        with pytest.raises(ValueError):
            dft_approximation(StepWeight(10), num_terms=5, stages=("dft", "bogus"))
        with pytest.raises(ValueError):
            dft_approximation(StepWeight(10), num_terms=5, domain_multiplier=0)

    def test_terms_capped_at_domain(self):
        approx = dft_approximation(StepWeight(4), num_terms=1000, domain_multiplier=2)
        assert len(approx) == 8

    def test_to_ranking_function(self):
        rf = approximate_weight_function(StepWeight(20), num_terms=8)
        assert len(rf) == 8


class TestApproximationQuality:
    def test_smooth_weight_is_well_approximated(self):
        support = 200
        positions = np.arange(1, support + 1, dtype=float)
        smooth = TabulatedWeight(0.5 * (1 + np.cos(np.pi * (positions - 1) / support)))
        approx = dft_approximation(smooth, num_terms=20, support=support)
        ranks = np.arange(1, int(1.5 * support))
        target = np.array([smooth(int(i)) for i in ranks])
        error = np.mean(np.abs(approx.evaluate(ranks) - target))
        assert error < 0.02

    def test_damping_kills_periodicity(self):
        """Without DF the approximation is periodic; with DF it decays to ~0."""
        support = 100
        far_ranks = np.arange(3 * support, 4 * support)
        plain = dft_approximation(StepWeight(support), num_terms=15, stages=("dft",))
        damped = dft_approximation(
            StepWeight(support), num_terms=15, stages=("dft", "df", "is")
        )
        assert np.max(np.abs(damped.evaluate(far_ranks))) < 0.05
        assert np.max(np.abs(plain.evaluate(far_ranks))) > 0.5

    def test_stage_sets_improve_step_approximation(self):
        """Adding IS then ES reduces the error on the support (Figure 4)."""
        support = 200
        weight = StepWeight(support)
        ranks = np.arange(1, support + 1)
        target = np.ones(support)
        errors = {}
        for label, stages in STAGE_SETS.items():
            approx = dft_approximation(weight, num_terms=20, support=support, stages=stages)
            errors[label] = float(np.mean(np.abs(approx.evaluate(ranks) - target)))
        assert errors["DFT+DF+IS"] < errors["DFT+DF"]
        assert errors["DFT+DF+IS+ES"] <= errors["DFT+DF+IS"] + 1e-9

    def test_more_terms_reduce_error(self):
        support = 150
        weight = StepWeight(support)
        ranks = np.arange(1, support + 1)
        target = np.ones(support)
        few = dft_approximation(weight, num_terms=5, support=support)
        many = dft_approximation(weight, num_terms=40, support=support)
        error_few = np.mean(np.abs(few.evaluate(ranks) - target))
        error_many = np.mean(np.abs(many.evaluate(ranks) - target))
        assert error_many < error_few

    def test_max_error_helper(self):
        approx = dft_approximation(StepWeight(50), num_terms=20)
        assert approx.max_error(StepWeight(50)) >= 0.0


class TestRankingWithApproximation:
    def test_approximate_pt_ranking_close_to_exact(self, rng):
        relation = random_relation(400, rng, allow_certain=False)
        h, k = 40, 40
        exact = rank(relation, PRFOmega(StepWeight(h))).top_k(k)
        rf = approximate_weight_function(StepWeight(h), num_terms=30)
        approx = rank(relation, rf).top_k(k)
        assert kendall_topk_distance(approx, exact, k=k) < 0.15

    def test_single_exponential_matches_prfe(self, rng):
        from repro import LinearCombinationPRFe, PRFe

        relation = random_relation(50, rng, allow_certain=False)
        combo = LinearCombinationPRFe([1.0], [0.8])
        assert rank(relation, combo).tids() == rank(relation, PRFe(0.8)).tids()


def per_term_deviation(approximation, table, head: int) -> float:
    """``max |approx(i) - omega(i)|`` over ``1 .. head``, powers by ``alpha ** ranks``."""
    ranks = np.arange(1, head + 1, dtype=float)
    approx = np.zeros(head, dtype=complex)
    for coefficient, alpha in zip(approximation.coefficients, approximation.alphas):
        approx += coefficient * alpha ** ranks
    return float(np.max(np.abs(approx - _tabulate(table, head))))


def extended_deviation(approximation, table, head: int) -> float:
    """The same maximum in extended precision (``np.clongdouble`` powers)."""
    alphas = approximation.alphas.astype(np.clongdouble)
    coefficients = approximation.coefficients.astype(np.clongdouble)
    powers = np.cumprod(np.broadcast_to(alphas[:, None], (alphas.size, head)), axis=1)
    approx = (coefficients[:, None] * powers).sum(axis=0)
    target = _tabulate(table, head).astype(np.longdouble)
    return float(np.max(np.abs(approx - target)))


def gaussian_table(support: int) -> np.ndarray:
    ranks = np.arange(1, support + 1, dtype=float)
    return np.exp(-0.5 * (ranks / (support / 5.0)) ** 2)


def smoothed_step_table(support: int) -> np.ndarray:
    ranks = np.arange(1, support + 1, dtype=float)
    return 1.0 / (1.0 + np.exp((ranks - support / 2.0) / (support / 40.0)))


def assert_bound_covers(approximation, table, upto: int) -> None:
    head = min(upto, approximation.domain)
    bound = approximation.error_bound(table, upto)
    assert bound >= per_term_deviation(approximation, table, head)
    assert bound >= extended_deviation(approximation, table, head)


class TestErrorBound:
    """``error_bound`` stays certified under its own rounding."""

    @pytest.mark.parametrize("terms", [1, 2, 3, 5, 8, 13, 21, 34, 55, 64])
    @pytest.mark.parametrize(
        "table", [gaussian_table(2000), smoothed_step_table(400)], ids=["gauss", "step"]
    )
    def test_bound_covers_the_realized_deviation(self, table, terms):
        support = table.size
        planner = dft_approximation(
            table, terms, support=support, extension_fraction=0.5,
            smooth_extension=True, conjugate_symmetric=True,
        )
        paper = dft_approximation(table, terms, support=support)
        for approximation in (planner, paper):
            assert_bound_covers(approximation, table, 10**5)
            assert_bound_covers(approximation, table, support // 3)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=300),
        st.integers(1, 64),
        st.booleans(),
    )
    def test_bound_covers_random_decreasing_tables(self, values, terms, symmetric):
        table = np.sort(np.array(values))[::-1]
        approximation = dft_approximation(
            table, terms, support=table.size, conjugate_symmetric=symmetric
        )
        assert_bound_covers(approximation, table, 4 * table.size)
        assert_bound_covers(approximation, table, table.size)

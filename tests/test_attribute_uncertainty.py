"""Tests for ranking with uncertain scores (Section 4.4)."""

import pytest

from repro import LinearCombinationPRFe, PRFe, PRFOmega
from repro.algorithms.attribute_uncertainty import (
    ScoreDistributionTuple,
    expand_to_tree,
    rank_uncertain_scores,
)
from repro.core.possible_worlds import prf_by_enumeration
from repro.core.weights import StepWeight


@pytest.fixture
def items():
    return [
        ScoreDistributionTuple("a", [(10.0, 0.4), (5.0, 0.3)]),
        ScoreDistributionTuple("b", [(8.0, 0.9)]),
        ScoreDistributionTuple("c", [(7.0, 0.5), (2.0, 0.5)]),
    ]


class TestScoreDistributionTuple:
    def test_basic_properties(self):
        item = ScoreDistributionTuple("a", [(10.0, 0.4), (5.0, 0.3)])
        assert item.existence_probability == pytest.approx(0.7)
        assert item.expected_score == pytest.approx(10 * 0.4 + 5 * 0.3)
        assert len(item.alternatives()) == 2
        assert item.alternatives()[0].tid == ("a", 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScoreDistributionTuple("a", [])
        with pytest.raises(ValueError):
            ScoreDistributionTuple("a", [(1.0, 0.7), (2.0, 0.6)])
        with pytest.raises(ValueError):
            ScoreDistributionTuple("a", [(1.0, -0.1)])


class TestExpansion:
    def test_alternatives_are_mutually_exclusive(self, items):
        tree = expand_to_tree(items)
        for world in tree.enumerate_worlds():
            assert not (("a", 0) in world and ("a", 1) in world)

    def test_tree_size(self, items):
        tree = expand_to_tree(items)
        assert len(tree) == 5


class TestRanking:
    def test_prf_value_is_sum_of_alternative_values(self, items):
        tree = expand_to_tree(items)
        worlds = tree.enumerate_worlds()
        result = rank_uncertain_scores(items, PRFe(0.8))
        for item in items:
            expected = sum(
                prf_by_enumeration(worlds, (item.tid, j), lambda i: 0.8 ** i)
                for j in range(len(item.outcomes))
            )
            assert result.value_of(item.tid) == pytest.approx(expected, abs=1e-10)

    def test_step_weight_ranking(self, items):
        result = rank_uncertain_scores(items, PRFOmega(StepWeight(1)))
        tree = expand_to_tree(items)
        worlds = tree.enumerate_worlds()
        for item in items:
            expected = sum(
                prf_by_enumeration(worlds, (item.tid, j), StepWeight(1))
                for j in range(len(item.outcomes))
            )
            assert result.value_of(item.tid) == pytest.approx(expected, abs=1e-10)

    def test_linear_combination_matches_enumeration(self, items):
        # The combination's own closed form, not an O(n^2) positional matrix.
        rf = LinearCombinationPRFe([0.5 + 0.1j, 0.5 - 0.1j, 0.3], [0.9 + 0.05j, 0.9 - 0.05j, 0.7])
        result = rank_uncertain_scores(items, rf)
        worlds = expand_to_tree(items).enumerate_worlds()
        for item in items:
            expected = sum(
                prf_by_enumeration(worlds, (item.tid, j), rf.weight)
                for j in range(len(item.outcomes))
            )
            assert abs(result.value_of(item.tid) - expected) <= 1e-12

    def test_representative_tuples_carry_expectations(self, items):
        result = rank_uncertain_scores(items, PRFe(0.9))
        for ranked in result:
            source = next(item for item in items if item.tid == ranked.tid)
            assert ranked.item.probability == pytest.approx(source.existence_probability)
            assert ranked.item.score == pytest.approx(source.expected_score)

    def test_certain_single_score_reduces_to_plain_ranking(self):
        from repro import ProbabilisticRelation, rank

        items = [
            ScoreDistributionTuple("a", [(10.0, 0.4)]),
            ScoreDistributionTuple("b", [(8.0, 0.9)]),
            ScoreDistributionTuple("c", [(6.0, 0.7)]),
        ]
        relation = ProbabilisticRelation.from_arrays(
            [10.0, 8.0, 6.0], [0.4, 0.9, 0.7], tid_prefix="x"
        )
        uncertain = rank_uncertain_scores(items, PRFe(0.8))
        plain = rank(relation, PRFe(0.8))
        assert [t for t in uncertain.tids()] == [f"{'abc'[int(t[1]) - 1]}" for t in plain.tids()]

"""Unit tests for the RankingResult container."""

import pytest

from repro import Tuple
from repro.core.result import RankedItem, RankingResult


def _tuples():
    return [Tuple("a", 3.0, 0.5), Tuple("b", 2.0, 0.5), Tuple("c", 1.0, 0.5)]


class TestRankingResult:
    def test_orders_by_absolute_value(self):
        result = RankingResult.from_values(_tuples(), [0.1, -0.5, 0.3])
        assert result.tids() == ["b", "c", "a"]

    def test_positions_are_one_based(self):
        result = RankingResult.from_values(_tuples(), [0.1, 0.5, 0.3])
        assert [item.position for item in result] == [1, 2, 3]
        assert result.position_of("b") == 1

    def test_tie_break_by_score_then_tid(self):
        tuples = [Tuple("x", 1.0, 0.5), Tuple("y", 2.0, 0.5)]
        result = RankingResult.from_values(tuples, [0.5, 0.5])
        assert result.tids() == ["y", "x"]

    def test_sort_keys_override_ordering(self):
        result = RankingResult.from_values(
            _tuples(), [0.0, 0.0, 0.0], sort_keys=[1.0, 3.0, 2.0]
        )
        assert result.tids() == ["b", "c", "a"]

    def test_sort_keys_length_validation(self):
        with pytest.raises(ValueError):
            RankingResult.from_values(_tuples(), [1, 2, 3], sort_keys=[1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RankingResult.from_values(_tuples(), [1, 2])

    def test_top_k_and_slice(self):
        result = RankingResult.from_values(_tuples(), [3, 2, 1])
        assert result.top_k(2) == ["a", "b"]
        sliced = result[:2]
        assert isinstance(sliced, RankingResult)
        assert len(sliced) == 2
        assert isinstance(result[0], RankedItem)

    def test_values_and_value_of(self):
        result = RankingResult.from_values(_tuples(), [3, 2, 1])
        assert result.values() == {"a": 3, "b": 2, "c": 1}
        assert result.value_of("b") == 2
        with pytest.raises(KeyError):
            result.value_of("zzz")
        with pytest.raises(KeyError):
            result.position_of("zzz")

    def test_ranked_item_magnitude(self):
        item = RankedItem(position=1, item=Tuple("a", 1.0, 0.5), value=-2.0)
        assert item.magnitude == 2.0
        assert item.tid == "a"


class TestRenamed:
    def test_eager_result_shares_its_items(self):
        result = RankingResult.from_values(_tuples(), [3, 2, 1], name="old")
        renamed = result.renamed("new")
        assert type(renamed) is RankingResult
        assert renamed.name == "new" and result.name == "old"
        assert [item for item in renamed] == [item for item in result]
        assert renamed[0] is result[0]

    def test_lazy_result_stays_lazy(self):
        from repro import Engine, PRFe, ProbabilisticRelation

        relation = ProbabilisticRelation(_tuples(), name="old")
        result = Engine().rank(relation, PRFe(0.9))
        renamed = result.renamed("new")
        assert type(renamed) is type(result)
        assert renamed.name == "new" and result.name == "old"
        assert renamed._item_cache is None
        assert renamed.values_array() is result.values_array()
        assert renamed.original_indices() is result.original_indices()
        assert renamed.tids() == result.tids()
        assert [item.item for item in renamed] == [relation.get(t) for t in result.tids()]
        assert all(item.item is relation.get(item.tid) for item in renamed)

"""Tests for the discrete factor algebra used by the graphical-model substrate."""

import numpy as np
import pytest

from repro.graphical import Factor


class TestConstruction:
    def test_basic_table(self):
        factor = Factor(("a", "b"), np.arange(4).reshape(2, 2))
        assert factor.variables == ("a", "b")
        assert factor.value({"a": 1, "b": 0}) == 2.0

    def test_flat_table_reshaped(self):
        factor = Factor(("a", "b"), [1, 2, 3, 4])
        assert factor.table.shape == (2, 2)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            Factor(("a",), [-0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # NaN slips past a ``< 0`` check and ``np.clip`` keeps NaN and inf.
        with pytest.raises(ValueError, match="finite"):
            Factor(("a",), [bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            Factor(("a", "b"), [[0.5, 0.5], [0.5, bad]])

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError):
            Factor(("a", "a"), np.ones((2, 2)))

    def test_bernoulli_and_evidence(self):
        assert np.allclose(Factor.bernoulli("x", 0.3).table, [0.7, 0.3])
        assert np.allclose(Factor.evidence("x", 1).table, [0.0, 1.0])
        with pytest.raises(ValueError):
            Factor.bernoulli("x", 1.5)
        with pytest.raises(ValueError):
            Factor.evidence("x", 2)

    def test_uniform(self):
        assert Factor.uniform(("a", "b")).total() == 4.0


class TestOperations:
    def test_multiply_disjoint_scopes(self):
        product = Factor.bernoulli("a", 0.3).multiply(Factor.bernoulli("b", 0.6))
        assert set(product.variables) == {"a", "b"}
        assert product.value({"a": 1, "b": 1}) == pytest.approx(0.18)
        assert product.total() == pytest.approx(1.0)

    def test_multiply_shared_scope(self):
        f1 = Factor(("a", "b"), [[0.1, 0.2], [0.3, 0.4]])
        f2 = Factor(("b", "c"), [[0.5, 0.5], [0.25, 0.75]])
        product = f1.multiply(f2)
        assert product.value({"a": 1, "b": 1, "c": 0}) == pytest.approx(0.4 * 0.25)

    def test_multiply_axis_order_irrelevant(self):
        f1 = Factor(("a", "b"), [[0.1, 0.2], [0.3, 0.4]])
        f2 = Factor(("b", "a"), [[0.1, 0.3], [0.2, 0.4]])
        for assignment in ({"a": 0, "b": 1}, {"a": 1, "b": 0}):
            assert f1.value(assignment) == pytest.approx(f2.value(assignment))

    def test_marginalize(self):
        f = Factor(("a", "b"), [[0.1, 0.2], [0.3, 0.4]])
        marginal = f.marginalize(["a"])
        assert np.allclose(marginal.table, [0.3, 0.7])
        empty = f.marginalize([])
        assert empty.total() == pytest.approx(1.0)

    def test_marginalize_unknown_variable(self):
        with pytest.raises(ValueError):
            Factor(("a",), [0.5, 0.5]).marginalize(["b"])

    def test_reorder(self):
        f = Factor(("a", "b"), [[0.1, 0.2], [0.3, 0.4]])
        swapped = f.reorder(("b", "a"))
        assert swapped.value({"a": 1, "b": 0}) == pytest.approx(0.3)
        with pytest.raises(ValueError):
            f.reorder(("a", "c"))

    def test_reduce_evidence(self):
        f = Factor(("a", "b"), [[0.1, 0.2], [0.3, 0.4]])
        reduced = f.reduce({"a": 1})
        assert reduced.variables == ("b",)
        assert np.allclose(reduced.table, [0.3, 0.4])
        assert f.reduce({"c": 0}).variables == ("a", "b")

    def test_divide_with_zero_convention(self):
        numerator = Factor(("a",), [0.0, 0.4])
        denominator = Factor(("a",), [0.0, 0.8])
        ratio = numerator.divide(denominator)
        assert np.allclose(ratio.table, [0.0, 0.5])

    def test_normalize(self):
        f = Factor(("a",), [1.0, 3.0]).normalize()
        assert np.allclose(f.table, [0.25, 0.75])
        zero = Factor(("a",), [0.0, 0.0]).normalize()
        assert zero.total() == 0.0

    def test_expand_broadcast_shape(self):
        f = Factor(("a",), [0.2, 0.8])
        expanded = f.expand(("b", "a", "c"))
        assert expanded.shape == (1, 2, 1)
        with pytest.raises(ValueError):
            f.expand(("b", "c"))

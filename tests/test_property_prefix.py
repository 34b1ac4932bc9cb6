"""Property-based tests (hypothesis) for the prefix recurrence's early exit.

The prefix recurrence of Equation (2) stops at the first checked row whose
truncated distribution is exactly zero.  Both kernels must equal a
recurrence written here that never stops, bit for bit, on probabilities
with mass at 0, at 1 and just below 1, on stacks whose rows run out at
different rows (one of them never), and on rows that run out exactly on a
check boundary or one row after it.  Every engine path over independent
relations must rank exactly as the engine's arithmetic does on that
recurrence, and its positional matrix must equal the legacy one.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Engine, PRFOmega, ProbabilisticRelation
from repro.algorithms.independent import (
    positional_probabilities,
    prefix_polynomial_matrix,
    rank_independent,
)
from repro.core.columnar import ColumnarRelation
from repro.core.result import RankingResult
from repro.core.weights import StepWeight, TabulatedWeight
from repro.engine.kernels import _ZERO_CHECK_ROWS, batched_prefix_matrices

PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0, 1.0 - 1e-12, float(np.nextafter(1.0, 0.0))]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


def reference_prefix(probabilities: np.ndarray, limit: int) -> np.ndarray:
    """Equation (2)'s recurrence over every row, skipping ``p == 0`` updates."""
    n = probabilities.size
    matrix = np.zeros((n, limit), dtype=float)
    if n == 0 or limit == 0:
        return matrix
    prefix = np.zeros(limit, dtype=float)
    prefix[0] = 1.0
    for i, p in enumerate(probabilities):
        matrix[i] = prefix
        if p != 0.0:
            shifted = np.zeros_like(prefix)
            shifted[1:] = prefix[:-1]
            prefix = (1.0 - p) * prefix + p * shifted
    return matrix


def runs_out_at(n: int, limit: int, row: int, rng: np.random.Generator) -> np.ndarray:
    """Probabilities whose truncated prefix is first exactly zero at ``row``.

    Zeros keep the prefix at ``1`` until ``row - limit``; ``limit`` ones
    then shift it out of the truncated window; the tail is arbitrary.
    """
    probabilities = rng.uniform(0.0, 1.0, size=n)
    probabilities[: row - limit] = 0.0
    probabilities[row - limit : row] = 1.0
    return probabilities


def never_runs_out(n: int, rng: np.random.Generator) -> np.ndarray:
    """Probabilities at most 0.5: ``Pr(no tuple present) >= 0.5^n > 0``."""
    probabilities = rng.uniform(0.0, 0.5, size=n)
    probabilities[rng.uniform(size=n) < 0.2] = 0.0
    return probabilities


def first_zero_row(matrix: np.ndarray) -> int:
    zero = ~matrix.any(axis=1)
    return int(np.argmax(zero)) if zero.any() else matrix.shape[0]


def assert_kernels_match_reference(P: np.ndarray, limit: int) -> None:
    stacked = batched_prefix_matrices(P, limit)
    for row, probabilities in enumerate(P):
        expected = reference_prefix(probabilities, limit)
        assert np.array_equal(stacked[row], expected), row
        assert np.array_equal(prefix_polynomial_matrix(probabilities, limit), expected), row


@st.composite
def stacks(draw, max_n=300, max_rows=4):
    """``(P, limit)``: rows drawn freely, run out at a chosen row, or never."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    limit = draw(st.integers(min_value=1, max_value=n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    boundaries = [
        row
        for multiple in range(0, n + _ZERO_CHECK_ROWS, _ZERO_CHECK_ROWS)
        for row in (multiple, multiple + 1)
        if limit <= row <= n
    ]
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_rows))):
        kind = draw(st.sampled_from(["free", "runs_out", "boundary", "never"]))
        if kind == "free":
            rows.append(draw(st.lists(PROBABILITIES, min_size=n, max_size=n)))
        elif kind == "runs_out":
            row = draw(st.integers(min_value=limit, max_value=n))
            rows.append(runs_out_at(n, limit, row, rng))
        elif kind == "boundary" and boundaries:
            rows.append(runs_out_at(n, limit, draw(st.sampled_from(boundaries)), rng))
        else:
            rows.append(never_runs_out(n, rng))
    return np.array(rows, dtype=float), limit


@settings(max_examples=100, deadline=None)
@given(stacks())
def test_kernels_equal_the_never_exiting_recurrence(stack):
    P, limit = stack
    assert_kernels_match_reference(P, limit)


@pytest.mark.parametrize(
    "limit,rows",
    [
        (_ZERO_CHECK_ROWS, [_ZERO_CHECK_ROWS]),
        (_ZERO_CHECK_ROWS, [_ZERO_CHECK_ROWS + 1]),
        (5, [2 * _ZERO_CHECK_ROWS, 2 * _ZERO_CHECK_ROWS + 1, 7]),
        (5, [_ZERO_CHECK_ROWS, 3 * _ZERO_CHECK_ROWS + 1, None]),
        (1, [1, _ZERO_CHECK_ROWS - 1, _ZERO_CHECK_ROWS]),
    ],
)
def test_stacks_running_out_at_and_after_check_boundaries(limit, rows):
    """Rows running out on a check, one row after it, or never (``None``)."""
    rng = np.random.default_rng(limit * 1000 + len(rows))
    n = 4 * _ZERO_CHECK_ROWS + 3
    P = np.array(
        [never_runs_out(n, rng) if row is None else runs_out_at(n, limit, row, rng)
         for row in rows]
    )
    stacked = batched_prefix_matrices(P, limit)
    for matrix, row in zip(stacked, rows):
        assert first_zero_row(matrix) == (n if row is None else row)
    assert_kernels_match_reference(P, limit)


def _items(result):
    return [(item.tid, item.value) for item in result]


@st.composite
def relation_pairs(draw, max_n=120):
    """Two equal-size relations (tuple and columnar forms) and a horizon."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    forms = []
    for name in ("first", "second"):
        probabilities = draw(st.lists(PROBABILITIES, min_size=n, max_size=n))
        scores = np.array(draw(st.permutations(range(n))), dtype=float)
        forms.append(
            (
                ProbabilisticRelation.from_arrays(scores, probabilities, name=name),
                ColumnarRelation(scores, probabilities, name=name),
            )
        )
    horizon = draw(st.integers(min_value=1, max_value=n))
    weights = draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=horizon, max_size=horizon)
    )
    return forms, horizon, TabulatedWeight(weights)


def reference_values(relation: ProbabilisticRelation, rf, horizon: int):
    """The engine's general-weight arithmetic on the never-exiting prefix."""
    ordered = relation.sorted_by_score()
    probabilities = np.array([t.probability for t in ordered])
    weights = rf.weight_array(horizon)[1:]
    values = (reference_prefix(probabilities, horizon) @ weights) * probabilities
    return RankingResult.from_values(ordered, values.tolist())


@settings(max_examples=60, deadline=None)
@given(relation_pairs())
def test_engine_paths_are_bit_identical_to_the_reference(case):
    """Every engine path ranks like the never-exiting recurrence, bit for bit.

    The legacy ``rank_independent`` streams one ``np.dot`` per tuple where
    the engine takes one matrix-vector product, so their sums may differ
    in the last place (and reorder near-ties): they are compared to
    ``1e-12``.  Positional matrices share the recurrence and are equal.
    """
    forms, horizon, tabulated = case
    (tuples, columnar), (other_tuples, other_columnar) = forms
    rfs = [PRFOmega(StepWeight(horizon)), PRFOmega(tabulated)]
    expected = [_items(reference_values(tuples, rf, horizon)) for rf in rfs]
    legacy_order, legacy_matrix = positional_probabilities(tuples, max_rank=horizon)
    for rf, items in zip(rfs, expected):
        legacy = rank_independent(tuples, rf).values()
        assert all(abs(value - legacy[tid]) <= 1e-12 for tid, value in items)
    for relation, other in ((tuples, other_tuples), (columnar, other_columnar)):
        for rf, items in zip(rfs, expected):
            assert _items(Engine().rank(relation, rf)) == items
            assert _items(Engine().rank_batch([relation, other], rf)[0]) == items
        assert [_items(r) for r in Engine().rank_many(relation, rfs)] == expected
        order, matrix = Engine().positional_matrix(relation, max_rank=horizon)
        assert [t.tid for t in order] == [t.tid for t in legacy_order]
        assert np.array_equal(matrix, legacy_matrix)

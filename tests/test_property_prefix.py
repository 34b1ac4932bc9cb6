"""Property-based tests (hypothesis) for the prefix recurrence's early exit.

The prefix recurrence of Equation (2) stops at the first checked row whose
truncated distribution is exactly zero.  Both kernels must equal a
recurrence written here that never stops, bit for bit, on probabilities
with mass at 0, at 1 and just below 1, on stacks whose rows run out at
different rows (one of them never), and on rows that run out exactly on a
check boundary or one row after it.  Every general-weight path over
independent relations — legacy and engine, tuple and columnar, streamed
and materialized, cold and cached — must rank exactly as the kernel's row
reduction does on that recurrence, signs of zero included, and the
reduction itself must not depend on the block or stack a row sits in.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import PRF, Engine, PRFOmega, ProbabilisticRelation
from repro.algorithms.independent import (
    positional_probabilities,
    prefix_polynomial_matrix,
    rank_independent,
)
from repro.core.columnar import ColumnarRelation
from repro.core.possible_worlds import enumerate_worlds, prf_by_enumeration
from repro.core.result import ColumnarRankingResult, RankingResult
from repro.core.weights import NDCGDiscountWeight, StepWeight, TabulatedWeight
from repro.engine.backends import independent as independent_backend
from repro.engine.kernels import (
    _REDUCE_COLUMNS,
    _ZERO_CHECK_ROWS,
    batched_prefix_matrices,
    general_weights,
    row_sums,
)

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


def reference_values(relation: ProbabilisticRelation, rf) -> RankingResult:
    """The kernel's row reduction on the never-exiting prefix, times ``g(t)``."""
    ordered = relation.sorted_by_score()
    probabilities = np.array([t.probability for t in ordered])
    weights = general_weights(rf, len(ordered))
    prefix = reference_prefix(probabilities, weights.size)
    values = row_sums(prefix[None], weights)[0] * probabilities
    if rf.tuple_factor is not None:
        values = values * np.array([rf.factor(t) for t in ordered])
    # Ordered by numpy's magnitude, as the engine orders complex values.
    return RankingResult.from_values(ordered, values.tolist(), sort_keys=np.abs(values))


@settings(max_examples=60, deadline=None)
@given(relation_pairs())
def test_engine_paths_are_bit_identical_to_the_reference(case):
    """Every path ranks like the never-exiting recurrence, bit for bit.

    The legacy ``rank_independent`` runs the engine's kernel too, so it is
    held to the same equality.  Positional matrices share the recurrence
    and are equal.
    """
    forms, horizon, tabulated = case
    (tuples, columnar), (other_tuples, other_columnar) = forms
    rfs = [PRFOmega(StepWeight(horizon)), PRFOmega(tabulated)]
    expected = [_items(reference_values(tuples, rf)) for rf in rfs]
    legacy_order, legacy_matrix = positional_probabilities(tuples, max_rank=horizon)
    for rf, items in zip(rfs, expected):
        assert _items(rank_independent(tuples, rf)) == items
    for relation, other in ((tuples, other_tuples), (columnar, other_columnar)):
        for rf, items in zip(rfs, expected):
            assert _items(Engine().rank(relation, rf)) == items
            assert _items(Engine().rank_batch([relation, other], rf)[0]) == items
        assert [_items(r) for r in Engine().rank_many(relation, rfs)] == expected
        order, matrix = Engine().positional_matrix(relation, max_rank=horizon)
        assert [t.tid for t in order] == [t.tid for t in legacy_order]
        assert np.array_equal(matrix, legacy_matrix)


# ---------------------------------------------------------------------------
# One general-weight kernel on both sides of the materialization bound
# ---------------------------------------------------------------------------


def _columns(result):
    """``(tids, values)`` of a ranking, from arrays when it is columnar."""
    if isinstance(result, ColumnarRankingResult):
        return result.tids(), result.values_array()
    return result.tids(), np.array([item.value for item in result])


def assert_same_ranking(result, expected) -> None:
    """Equal order and values, with equal signs of zero in both parts."""
    tids, values = _columns(result)
    expected_tids, expected_values = expected
    assert tids == expected_tids
    assert values.dtype == expected_values.dtype
    assert np.array_equal(values, expected_values)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(values)), np.signbit(part(expected_values)))


def _factor(t) -> float:
    """A per-tuple factor of both signs (``g(t)`` in ``{1.5, 0.5, -0.5}``)."""
    return 1.5 - t.score % 3


@st.composite
def general_cases(draw, max_n=60):
    """Two equal-size relations (tuple and columnar forms) and four specs.

    Some relations run out at a row at most one check interval in, so
    rows past the exit exist; weights take both signs, and complex ones.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    horizon = draw(st.integers(min_value=1, max_value=n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    forms = []
    for name in ("first", "second"):
        if draw(st.booleans()):
            last = max(horizon, min(n, _ZERO_CHECK_ROWS))
            row = draw(st.integers(min_value=horizon, max_value=last))
            probabilities = runs_out_at(n, horizon, row, rng)
        else:
            probabilities = np.array(draw(st.lists(PROBABILITIES, min_size=n, max_size=n)))
        scores = np.arange(n, 0, -1, dtype=float)
        permutation = rng.permutation(n)
        scores, probabilities = scores[permutation], probabilities[permutation]
        forms.append(
            (
                ProbabilisticRelation.from_arrays(scores, probabilities, name=name),
                ColumnarRelation(scores, probabilities, name=name),
            )
        )
    signed = st.floats(min_value=-1.0, max_value=1.0)
    real = draw(st.lists(signed, min_size=horizon, max_size=horizon))
    imag = draw(st.lists(signed, min_size=horizon, max_size=horizon))
    rfs = [
        PRFOmega(TabulatedWeight(real)),
        PRFOmega(TabulatedWeight(np.array(real) + 1j * np.array(imag))),
        PRF(TabulatedWeight(real), tuple_factor=_factor),
        PRF(NDCGDiscountWeight()),
    ]
    return forms, rfs


def _check_general_paths(forms, rfs, bound: int) -> None:
    """Every path equals the reference with the bound set to ``bound``."""
    (tuples, columnar), (other_tuples, other_columnar) = forms
    expected = [_columns(reference_values(tuples, rf)) for rf in rfs]
    other_expected = [_columns(reference_values(other_tuples, rf)) for rf in rfs]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(independent_backend, "_MATERIALIZE_ELEMENTS", bound)
        for relation, other in ((columnar, other_columnar), (tuples, other_tuples)):
            warm = Engine()
            for rf, wanted, other_wanted in zip(rfs, expected, other_expected):
                assert_same_ranking(Engine().rank(relation, rf), wanted)
                assert_same_ranking(warm.rank(relation, rf), wanted)
                assert_same_ranking(warm.rank(relation, rf), wanted)
                first, second = Engine().rank_batch([relation, other], rf)
                assert_same_ranking(first, wanted)
                assert_same_ranking(second, other_wanted)
                stored = Engine()
                stored.positional_matrix(relation, max_rank=len(relation))
                assert_same_ranking(stored.rank(relation, rf), wanted)
            for engine in (Engine(), warm):
                for result, wanted in zip(engine.rank_many(relation, rfs), expected):
                    assert_same_ranking(result, wanted)
            if relation is columnar:
                # Only the tuple_factor spec needs Tuple objects; the
                # factor-free specs return columnar results either way.
                plain = Engine().rank(columnar, rfs[0])
                assert isinstance(plain, ColumnarRankingResult)
        for relation in (tuples, columnar):
            for rf, wanted in zip(rfs, expected):
                assert_same_ranking(rank_independent(relation, rf), wanted)


@settings(max_examples=40, deadline=None)
@given(general_cases())
def test_every_general_path_is_bit_identical_on_both_sides_of_the_bound(case):
    """Streamed, materialized, cached and batched calls agree bit for bit.

    The bound is set below every matrix (all stream), at one relation's
    matrix (materialized, one relation per stacked call) and above all
    of them (materialized and stacked).
    """
    forms, rfs = case
    n = len(forms[0][0])
    for bound in (0, n * n, 10**9):
        _check_general_paths(forms, rfs, bound)


@settings(max_examples=20, deadline=None)
@given(general_cases(max_n=7))
def test_general_values_match_the_possible_worlds_oracle(case):
    forms, rfs = case
    tuples = forms[0][0]
    worlds = enumerate_worlds(tuples)
    for rf in rfs:
        weights = general_weights(rf, len(tuples))
        values = Engine().rank(tuples, rf).values()
        for t in tuples:
            exact = rf.factor(t) * prf_by_enumeration(
                worlds, t.tid, lambda i: weights[i - 1] if i <= weights.size else 0.0
            )
            assert abs(values[t.tid] - exact) <= 1e-12


def test_rows_past_the_exit_keep_the_sign_of_zero():
    """Past the first zero row every value is ``z * p * g(t)`` for a zero sum ``z``.

    Negative factors make some of those zeros negative; every path,
    streamed or materialized, must produce the same signs.
    """
    n, horizon = 2 * _ZERO_CHECK_ROWS + 5, 3
    probabilities = runs_out_at(n, horizon, horizon, np.random.default_rng(7))
    scores = np.arange(n, 0, -1, dtype=float)
    forms = [
        (
            ProbabilisticRelation.from_arrays(scores, probabilities, name=name),
            ColumnarRelation(scores, probabilities, name=name),
        )
        for name in ("first", "second")
    ]
    weights = [-0.5, 0.25, -1.0]
    rfs = [
        PRF(TabulatedWeight(weights), tuple_factor=_factor),
        PRFOmega(TabulatedWeight(np.array(weights) * (1 - 2j))),
    ]
    _, values = _columns(reference_values(forms[0][0], rfs[0]))
    past = values == 0.0
    assert past.sum() >= n - _ZERO_CHECK_ROWS
    assert np.signbit(values[past]).any() and not np.signbit(values[past]).all()
    for bound in (0, 10**9):
        _check_general_paths(forms, rfs, bound)


def test_columnar_general_rank_above_the_bound_builds_no_tuples(monkeypatch):
    """A columnar relation too wide to materialize still gets a columnar result."""
    monkeypatch.setattr(independent_backend, "_MATERIALIZE_ELEMENTS", 0)
    rng = np.random.default_rng(11)
    relation = ColumnarRelation(rng.permutation(50).astype(float), rng.uniform(size=50))
    engine = Engine()
    results = [
        engine.rank(relation, PRFOmega(StepWeight(10))),
        engine.rank_batch([relation], PRF(NDCGDiscountWeight()))[0],
        *engine.rank_many(relation, [PRFOmega(StepWeight(5)), PRF(NDCGDiscountWeight())]),
    ]
    assert all(isinstance(result, ColumnarRankingResult) for result in results)
    assert relation._sorted_cache is None
    assert engine.cache.entry_for(relation).prefix is None


@st.composite
def reduction_cases(draw):
    """A ``(B, rows, width)`` stack (width up to past two reduce slices)."""
    width = draw(
        st.one_of(
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=_REDUCE_COLUMNS - 2, max_value=3 * _REDUCE_COLUMNS),
        )
    )
    B = draw(st.integers(min_value=1, max_value=3))
    rows = draw(st.integers(min_value=1, max_value=9 if width > 40 else 70))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    extra = draw(st.integers(min_value=0, max_value=5))
    stack = rng.uniform(size=(B, rows, width + extra)) ** 3
    stack[rng.uniform(size=stack.shape) < 0.1] = 0.0
    weights = rng.normal(size=width)
    if draw(st.booleans()):
        weights = weights + 1j * rng.normal(size=width)
    return stack[:, :, :width], weights


@settings(max_examples=60, deadline=None)
@given(reduction_cases())
def test_row_sums_do_not_depend_on_the_block(case):
    """A row's sum is the same alone, in any block, stack or storage offset."""
    stack, weights = case
    full = row_sums(stack, weights)
    B, rows, width = stack.shape
    assert np.array_equal(row_sums(np.ascontiguousarray(stack), weights), full)
    storage = np.empty(stack.size + 1)
    shifted = storage[1:].reshape(stack.shape)
    shifted[...] = stack
    assert np.array_equal(row_sums(shifted, weights), full)
    for b in range(B):
        assert np.array_equal(row_sums(stack[b][None], weights)[0], full[b])
        for i in range(rows):
            alone = np.ascontiguousarray(stack[b : b + 1, i : i + 1])
            assert np.array_equal(row_sums(alone, weights)[0, 0], full[b, i])
    for size in (2, 5, _ZERO_CHECK_ROWS):
        for start in range(0, rows, size):
            block = row_sums(stack[:, start : start + size], weights)
            assert np.array_equal(block, full[:, start : start + size])

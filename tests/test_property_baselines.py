"""Property tests (hypothesis): the Section 3 baselines are engine specs.

On generated independent relations and and/xor trees of at most 8
tuples, every engine-backed baseline is checked three ways:

* against its direct reference in ``tests/references.py`` — same tids,
  values within 1e-12 (U-Rank, and E-Rank on independent relations, run
  the reference's arithmetic and must match it bit for bit);
* against the possible-worlds oracle;
* PT(h), consensus top-k and k-selection against the engine spec they
  are defined as, bit for bit.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import PRF, AndNode, AndXorTree, Engine, LeafNode, PRFOmega, Tuple, XorNode
from repro.baselines import (
    consensus_topk,
    expected_rank_ranking,
    expected_score_ranking,
    k_selection,
    k_selection_ranking,
    pt_ranking,
    pt_topk,
    u_rank_assignment,
    urank,
)
from repro.core.possible_worlds import enumerate_worlds
from repro.core.tuples import ProbabilisticRelation
from repro.core.weights import PositionWeight, StepWeight, TabulatedWeight
from repro.datasets import syn_xor
from tests import references
from tests.conftest import assert_matches_oracle

TOLERANCE = 1e-12


@st.composite
def independent_relations(draw, max_size=8):
    """Independent relations of 1..8 tuples; scores and probabilities may tie."""
    size = draw(st.integers(min_value=1, max_value=max_size))
    scores = draw(st.lists(st.integers(0, 12), min_size=size, max_size=size))
    probabilities = draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=size, max_size=size)
    )
    return ProbabilisticRelation(
        [Tuple(f"t{i}", float(scores[i]), probabilities[i]) for i in range(size)]
    )


@st.composite
def andxor_trees(draw, max_leaves=8):
    """Random and/xor trees of 1..8 leaves, xor edges summing to at most one."""
    size = draw(st.integers(min_value=1, max_value=max_leaves))
    scores = draw(st.lists(st.integers(0, 12), min_size=size, max_size=size))
    nodes = [LeafNode(Tuple(f"t{i}", float(scores[i]), 1.0)) for i in range(size)]
    while len(nodes) > 1:
        take = draw(st.integers(min_value=2, max_value=min(3, len(nodes))))
        children, nodes = nodes[:take], nodes[take:]
        if draw(st.booleans()):
            raw = draw(st.lists(st.floats(0.05, 1.0), min_size=take, max_size=take))
            scale = draw(st.floats(0.3, 1.0))
            total = sum(raw)
            nodes.append(XorNode([(r / total * scale, c) for r, c in zip(raw, children)]))
        else:
            nodes.append(AndNode(children))
    return AndXorTree(nodes[0])


datasets = st.one_of(independent_relations(), andxor_trees())


def _worlds_and_tuples(data):
    if isinstance(data, AndXorTree):
        return data.enumerate_worlds(), data.tuples()
    return enumerate_worlds(data), list(data)


def assert_same_ranking(result, reference, keys=None):
    """Same tids in order and values within 1e-12, tid by tid.

    Tuples whose reference sort keys lie within 1e-12 of each other are
    a tie that rounding may break either way, so a run of them may be
    permuted.  ``keys`` maps tid to sort key (default ``|value|``).
    """
    values = result.values()
    expected = reference.values()
    assert values.keys() == expected.keys()
    for tid, value in expected.items():
        assert abs(values[tid] - value) <= TOLERANCE, tid
    keys = keys or {tid: abs(value) for tid, value in expected.items()}
    got, want = result.tids(), reference.tids()
    start = 0
    while start < len(want):
        stop = start + 1
        while stop < len(want) and abs(keys[want[stop]] - keys[want[stop - 1]]) <= TOLERANCE:
            stop += 1
        if stop - start == 1:
            assert got[start] == want[start]
        else:
            assert sorted(map(str, got[start:stop])) == sorted(map(str, want[start:stop]))
        start = stop


def assert_bitwise(result, spec_result):
    assert result.tids() == spec_result.tids()
    assert [item.value for item in result] == [item.value for item in spec_result]


def expected_ranks_by_enumeration(data):
    worlds, tuples = _worlds_and_tuples(data)
    return {
        t.tid: sum(
            w.probability * (w.rank_of(t.tid) if t.tid in w else len(w)) for w in worlds
        )
        for t in tuples
    }


# ----------------------------------------------------------------------
# PT(h), consensus, k-selection: the engine specs they are defined as
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(datasets, st.integers(min_value=1, max_value=9))
def test_pt_is_its_engine_spec_reference_and_oracle(data, h):
    rf = PRFOmega(StepWeight(h))
    result = pt_ranking(data, h)
    assert_bitwise(result, Engine().rank(data, rf))
    assert_same_ranking(result, references.pt_ranking(data, h))
    assert_matches_oracle(result, data, rf)
    k = min(h, len(data))
    assert pt_topk(data, k, h=h) == Engine().rank(data, rf).top_k(k)


@settings(max_examples=40, deadline=None)
@given(datasets, st.integers(min_value=1, max_value=9), st.data())
def test_consensus_is_its_engine_spec(data, k, draw):
    assert consensus_topk(data, k) == Engine().rank(data, PRFOmega(StepWeight(k))).top_k(k)
    weights = draw.draw(st.lists(st.floats(0.0, 4.0), min_size=k, max_size=k))
    rf = PRFOmega(TabulatedWeight(weights))
    assert consensus_topk(data, k, weights=weights) == Engine().rank(data, rf).top_k(k)
    assert_matches_oracle(Engine().rank(data, rf), data, rf)


@settings(max_examples=40, deadline=None)
@given(datasets, st.integers(min_value=1, max_value=9))
def test_k_selection_is_its_engine_spec(data, k):
    rf = PRF(PositionWeight(1), tuple_factor=lambda t: t.score)
    result = k_selection_ranking(data)
    assert_bitwise(result, Engine().rank(data, rf))
    assert k_selection(data, k) == result.top_k(k)
    assert_matches_oracle(result, data, rf)


# ----------------------------------------------------------------------
# U-Rank and E-Rank against their references; E-Score against the oracle
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(datasets, st.integers(min_value=1, max_value=9), st.booleans())
def test_u_rank_matches_reference_and_oracle(data, k, distinct):
    answer = u_rank_assignment(data, k, distinct=distinct)
    assert answer == references.u_rank_assignment(data, k, distinct=distinct)
    worlds, tuples = _worlds_and_tuples(data)
    used: set = set()
    for position, (tid, probability) in enumerate(answer, start=1):
        exact = {
            t.tid: sum(w.probability for w in worlds if w.rank_of(t.tid) == position)
            for t in tuples
        }
        assert abs(probability - exact[tid]) <= TOLERANCE
        candidates = [t for t in exact if not (distinct and t in used)]
        assert probability >= max(exact[t] for t in candidates) - TOLERANCE
        used.add(tid)


@settings(max_examples=40, deadline=None)
@given(datasets)
def test_e_rank_matches_reference_and_oracle(data):
    result = expected_rank_ranking(data)
    reference = references.expected_rank_ranking(data)
    if isinstance(data, AndXorTree):
        assert_same_ranking(result, reference, keys=reference.values())
    else:
        assert_bitwise(result, reference)
    exact = expected_ranks_by_enumeration(data)
    for tid, value in result.values().items():
        assert abs(-value - exact[tid]) <= TOLERANCE, tid


@settings(max_examples=40, deadline=None)
@given(datasets)
def test_e_score_matches_oracle(data):
    worlds, tuples = _worlds_and_tuples(data)
    values = expected_score_ranking(data).values()
    for t in tuples:
        marginal = sum(w.probability for w in worlds if t.tid in w)
        assert abs(values[t.tid] - marginal * t.score) <= TOLERANCE, t.tid


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=257, max_value=1100),
    st.integers(min_value=0, max_value=2**16),
    st.sampled_from([(0.0, 0.25, 0.5, 1.0), (0.1, 0.9), None]),
    st.integers(min_value=1, max_value=30),
    st.booleans(),
)
def test_u_rank_matches_reference_across_row_blocks(n, seed, levels, k, distinct):
    """Relations spanning several row blocks, with exact ties in values and scores."""
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, n // 4, size=n).astype(float)
    if levels is None:
        probabilities = rng.uniform(0.0, 1.0, size=n)
    else:
        probabilities = rng.choice(levels, size=n)
    relation = ProbabilisticRelation.from_arrays(scores, probabilities)
    assert u_rank_assignment(relation, k, distinct=distinct) == (
        references.u_rank_assignment(relation, k, distinct=distinct)
    )


def test_u_rank_scans_tied_row_blocks_in_row_order(monkeypatch):
    """Row blocks with equal maxima are scanned in row order.

    The column is 0.5 in six of 21 row blocks, the first of them block 8,
    and 0.25 elsewhere.  Visiting a later 0.5 block first (numpy's
    unstable quicksort visits block 13) would stop the scan at block 14,
    before it reaches block 8.
    """
    ordered = [Tuple(f"t{i}", float(-i), 1.0) for i in range(21 * 256)]
    maxima = np.full(21, 0.25)
    maxima[[8, 9, 13, 14, 19, 20]] = 0.5
    matrix = np.repeat(maxima, 256)[:, None]
    engine = SimpleNamespace(positional_matrix=lambda data, max_rank: (ordered, matrix))
    monkeypatch.setattr(urank, "default_engine", lambda: engine)
    assert u_rank_assignment(None, 1) == [(f"t{8 * 256}", 0.5)]


def test_u_rank_tie_with_an_earlier_row_block():
    """A column whose top block's maximum is used ties with an earlier block.

    ``c`` is row 0, 299 absent tuples follow, and ``a`` is row 300, in
    the second block.  ``a`` takes position 1 (0.75 against 0.25); it
    also holds column 2's maximum, so position 2 goes to the first
    unused row among the zeros: ``c``, in the earlier block.
    """
    fillers = [Tuple(f"f{i}", 500.0 - i, 0.0) for i in range(299)]
    relation = ProbabilisticRelation([Tuple("c", 1000.0, 0.25), *fillers, Tuple("a", 1.0, 1.0)])
    expected = [("a", 0.75), ("c", 0.0)]
    assert u_rank_assignment(relation, 2) == expected
    assert references.u_rank_assignment(relation, 2) == expected


def test_u_rank_matches_reference_on_a_large_tree():
    tree = syn_xor(700, rng=5)
    for distinct in (True, False):
        assert u_rank_assignment(tree, 25, distinct=distinct) == (
            references.u_rank_assignment(tree, 25, distinct=distinct)
        )


@pytest.mark.parametrize("reverse", [False, True], ids=["t2-first", "t3-first"])
def test_u_rank_tie_break_is_probability_then_score_then_score_order(reverse):
    """Exact ties in a column go to the higher score, then the earlier score order.

    Column 1 ties t1 (score 10) and t2 (score 8) at 0.5: t1 wins on score.
    Column 2 ties t2 and t3 at 0.5 with equal scores: the one first in
    the relation's score order wins (input order among equal scores).
    """
    t1, t2, t3 = Tuple("t1", 10.0, 0.5), Tuple("t2", 8.0, 1.0), Tuple("t3", 8.0, 1.0)
    second, third = (t3, t2) if reverse else (t2, t3)
    relation = ProbabilisticRelation([t1, second, third])
    expected = [("t1", 0.5), (second.tid, 0.5), (third.tid, 0.5)]
    assert u_rank_assignment(relation, 3) == expected
    assert references.u_rank_assignment(relation, 3) == expected
    matrix = Engine().positional_matrix(relation, max_rank=3)[1]
    assert np.array_equal(matrix[:, 0], [0.5, 0.5, 0.0])
    assert np.array_equal(matrix[:, 1], [0.0, 0.5, 0.5])

"""Property-based tests (hypothesis) for ranking over Markov networks.

Small generated networks (at most 8 tuples, so every possible world can
be enumerated) cover chains, loopy networks and forests of two or more
components, with some tuples pinned to probability 0 or 1 by a
deterministic unary factor.  The engine's positional matrix must match
the possible-worlds oracle, and every engine path must agree with the
legacy evaluator bit for bit.  The matrix is built by one row-stacked
pass per chunk of rows; no chunking and no other row of the stack may
change a row's bits, so every row must equal the one-row run.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import repro.graphical.ranking as markov_ranking

from repro import Engine, PRFe, PRFOmega, Tuple
from repro.core.possible_worlds import rank_distribution_by_enumeration
from repro.core.result import ColumnarRankingResult
from repro.core.weights import StepWeight
from repro.graphical import (
    Factor,
    MarkovNetworkRelation,
    positional_probabilities_markov,
    rank_distribution_markov,
    rank_markov_network,
)
from tests.conftest import assert_lazy_equals_eager, eager_ranking

POSITIVE = st.floats(min_value=0.05, max_value=1.0)


def _pairwise(draw, u, v) -> Factor:
    return Factor((u, v), np.reshape(draw(st.lists(POSITIVE, min_size=4, max_size=4)), (2, 2)))


def _segment_factors(draw, tids, loopy: bool) -> list[Factor]:
    """A chain over ``tids`` (closed into a cycle when ``loopy``)."""
    if len(tids) == 1:
        return [Factor((tids[0],), draw(st.lists(POSITIVE, min_size=2, max_size=2)))]
    factors = [_pairwise(draw, u, v) for u, v in zip(tids, tids[1:])]
    if loopy and len(tids) >= 3:
        factors.append(_pairwise(draw, tids[-1], tids[0]))
        if len(tids) >= 4 and draw(st.booleans()):
            factors.append(_pairwise(draw, tids[0], tids[2]))
    return factors


@st.composite
def small_networks(draw, max_n=8):
    """Chains, loopy networks and multi-component forests with pinned tuples."""
    kind = draw(st.sampled_from(["chain", "loopy", "forest"]))
    n = draw(st.integers(min_value=3 if kind == "loopy" else 2, max_value=max_n))
    scores = draw(st.permutations(range(n)))
    tids = [f"t{i}" for i in range(n)]
    tuples = [Tuple(tid, float(score), 1.0) for tid, score in zip(tids, scores)]
    if kind == "forest":
        cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n - 1), min_size=1)))
        bounds = [0, *cuts, n]
        factors = []
        for start, stop in zip(bounds, bounds[1:]):
            factors += _segment_factors(draw, tids[start:stop], loopy=draw(st.booleans()))
    else:
        factors = _segment_factors(draw, tids, loopy=kind == "loopy")
    pinned = draw(st.lists(st.sampled_from(tids), max_size=2, unique=True))
    for tid in pinned:
        value = draw(st.sampled_from([0, 1]))
        factors.append(Factor((tid,), [1.0 - value, float(value)]))
    return MarkovNetworkRelation(tuples, factors, name=kind)


def _items(result):
    return [(item.tid, item.value) for item in result]


@settings(max_examples=60, deadline=None)
@given(small_networks())
def test_positional_matrix_matches_enumeration(network):
    worlds = network.enumerate_worlds()
    ordered, matrix = Engine().positional_matrix(network)
    n = len(network)
    for row, t in zip(matrix, ordered):
        exact = rank_distribution_by_enumeration(worlds, t.tid, n)[1:]
        assert np.max(np.abs(row - exact)) <= 1e-12, t.tid


@settings(max_examples=60, deadline=None)
@given(small_networks(), st.floats(min_value=0.05, max_value=0.99), st.integers(1, 8))
def test_every_path_is_bit_identical(network, alpha, horizon):
    for rf in (PRFe(alpha), PRFOmega(StepWeight(horizon))):
        legacy = _items(rank_markov_network(network, rf))
        assert _items(Engine().rank(network, rf)) == legacy
        many = Engine().rank_many(network, [PRFe(0.5), rf, PRFOmega(StepWeight(1))])
        assert _items(many[1]) == legacy
        batch = Engine().rank_batch([network, network], rf)
        assert _items(batch[0]) == legacy and _items(batch[1]) == legacy


@settings(max_examples=60, deadline=None)
@given(small_networks(), st.floats(min_value=0.05, max_value=0.99), st.integers(1, 8))
def test_top_k_returns_the_full_rankings_top_k_set(network, alpha, k):
    k = min(k, len(network))
    full = Engine().rank(network, PRFe(alpha))
    # A fresh engine: a cached positional matrix would short-cut pruning.
    pruned, report = Engine().rank_top_k(network, PRFe(alpha), k)
    assert {item.tid for item in pruned} == {item.tid for item in full[:k]}
    assert report.k == k and report.examined <= len(network)


@settings(max_examples=60, deadline=None)
@given(small_networks(), st.sampled_from([None, 1, 3]))
def test_row_chunks_change_no_bit(network, max_rank):
    _, whole = positional_probabilities_markov(network, max_rank=max_rank)
    per_row = markov_ranking._row_elements(
        markov_ranking.junction_tree_for(network), len(network)
    )
    # Chunks of one row (any bound below one row's size) and of two rows.
    for elements in (1, 2, 2 * per_row):
        with mock.patch.object(markov_ranking, "_STACK_ELEMENTS", elements):
            _, chunked = positional_probabilities_markov(network, max_rank=max_rank)
        assert np.array_equal(chunked, whole), elements


@settings(max_examples=60, deadline=None)
@given(small_networks())
def test_matrix_rows_match_one_row_runs(network):
    ordered, matrix = positional_probabilities_markov(network)
    for row, t in zip(matrix, ordered):
        assert np.array_equal(row, rank_distribution_markov(network, t.tid)[1:]), t.tid


@settings(max_examples=40, deadline=None)
@given(small_networks(), st.floats(min_value=0.05, max_value=0.99), st.integers(1, 8))
def test_full_rankings_are_lazy_and_equal_the_eager_result(network, alpha, horizon):
    twin = MarkovNetworkRelation(
        [Tuple(t.tid, t.score, t.probability) for t in network.tuples], network.factors
    )
    specs = [PRFe(alpha), PRFOmega(StepWeight(horizon)), PRFe(0.5)]
    engine = Engine()
    for rf in specs:
        reference = eager_ranking(rank_markov_network(network, rf), network.sorted_tuples())
        for _ in range(2):  # cold, then warm
            assert_lazy_equals_eager(engine.rank(network, rf), reference, network.tuples)
        for data, result in zip((network, twin), Engine().rank_batch([network, twin], rf)):
            assert_lazy_equals_eager(result, reference, data.tuples)
        top, _ = engine.rank_top_k(network, rf, 2)
        assert not isinstance(top, ColumnarRankingResult)
    for fresh in (Engine(), engine):
        for rf, result in zip(specs, fresh.rank_many(twin, specs)):
            reference = eager_ranking(rank_markov_network(network, rf), network.sorted_tuples())
            assert_lazy_equals_eager(result, reference, twin.tuples)

"""Top-k early termination — the pruned kernels versus the full rankings.

The central contract: for every correlation model and every PRF-family
member, ``Engine.rank_top_k(data, rf, k)`` returns exactly the first
``k`` items of ``Engine.rank(data, rf)`` — same identifiers, same
positions and bit-identical values — while the prunable specs (PRFe,
real ``alpha < 1``) may examine only a prefix of the score-sorted
tuples.  Randomized fixed-seed sweeps exercise the boundary between
examined and pruned tuples; edge cases pin ``k = 0``, ``k = 1``,
``k >= n``, ties at the k-th value, zero probabilities and empty
datasets.  The service-tier tests cover the ``top_k`` request type end
to end (coalescing, caching keyed per ``k``, the TCP op).
"""

from __future__ import annotations

import asyncio
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    PRF,
    Engine,
    LinearCombinationPRFe,
    PRFOmega,
    PRFe,
    ProbabilisticRelation,
    Tuple,
)
from repro.algorithms.independent import rank_independent
from repro.andxor.ranking import PRFeLayout, prfe_prefix_values, prfe_values_tree
from repro.andxor.tree import AndXorTree
from repro.core.weights import NDCGDiscountWeight, StepWeight
from repro.datasets import syn_xor
from repro.engine import TopKReport, prunable
from repro.core.result import RankingResult
from repro.engine.topk import (
    BOUND_SAFETY,
    certified,
    independent_topk_log_values,
    magnitudes,
    ranking_order,
    validated_k,
)
from repro.graphical import MarkovChainRelation
from repro.graphical.ranking import prefix_count_distribution
from repro.service import RankingService
from repro.service.client import AsyncRankingClient, RemoteServiceError, TCPRankingClient
from repro.service.tcp import serve_tcp


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# Dataset builders (fixed-seed randomized)
# ---------------------------------------------------------------------------
def make_relation(n: int, seed: int, name: str = "rel") -> ProbabilisticRelation:
    rng = np.random.default_rng(seed)
    return ProbabilisticRelation.from_arrays(
        rng.uniform(0.0, 1000.0, n), rng.uniform(0.0, 1.0, n), name=name
    )


def make_tree(seed: int, groups: int = 40) -> AndXorTree:
    rng = random.Random(seed)
    xgroups, counter = [], 0
    for _ in range(groups):
        group = []
        size = rng.randint(1, 4)
        for _ in range(size):
            group.append(
                Tuple(
                    f"x{counter}",
                    rng.uniform(0.0, 1000.0),
                    rng.uniform(0.01, 0.95 / size),
                )
            )
            counter += 1
        xgroups.append(group)
    return AndXorTree.from_x_tuples(xgroups, name=f"tree-{seed}")


def make_network(seed: int, n: int = 10):
    rng = np.random.default_rng(seed)
    tuples = [
        Tuple(f"m{i}", float(score), 1.0)
        for i, score in enumerate(rng.permutation(n * 10)[:n])
    ]
    chain = MarkovChainRelation.homogeneous(tuples, 0.6, 0.7, 0.8, name=f"net-{seed}")
    return chain.to_markov_network()


def assert_prefix(pruned, full, k: int) -> None:
    """``pruned`` must be exactly the first ``k`` items of ``full``, values bit for bit."""
    want = full[:k]
    assert [item.tid for item in pruned] == [item.tid for item in want]
    assert [item.position for item in pruned] == [item.position for item in want]
    assert [item.value for item in pruned] == [item.value for item in want]


FAMILY = [
    pytest.param(PRFe(0.95), id="PRFe-real"),
    pytest.param(PRFe(0.4), id="PRFe-small-alpha"),
    pytest.param(PRFe(1.0), id="PRFe-alpha-one"),
    pytest.param(PRFe(0.0), id="PRFe-zero"),
    pytest.param(PRFe(0.5 + 0.25j), id="PRFe-complex"),
    pytest.param(PRFOmega(StepWeight(10)), id="PRFomega-step"),
    pytest.param(PRF(NDCGDiscountWeight()), id="PRF-general"),
    pytest.param(
        LinearCombinationPRFe([0.6, 0.4j], [0.9, 0.4 + 0.1j]), id="LinearCombinationPRFe"
    ),
]


# ---------------------------------------------------------------------------
# Engine.rank_top_k == Engine.rank prefix, across backends and specs
# ---------------------------------------------------------------------------
class TestPrefixEquality:
    @pytest.mark.parametrize("rf", FAMILY)
    @pytest.mark.parametrize("k", [0, 1, 3, 25, 10_000])
    def test_independent_matches_full_prefix(self, rf, k):
        relation = make_relation(120, seed=11)
        engine = Engine()
        full = engine.rank(relation, rf)
        pruned, report = engine.rank_top_k(relation, rf, k)
        assert_prefix(pruned, full, k)
        assert report.k == k and report.n == 120

    @pytest.mark.parametrize("rf", FAMILY)
    @pytest.mark.parametrize("k", [0, 1, 5, 1_000])
    def test_andxor_matches_full_prefix(self, rf, k):
        tree = make_tree(seed=13)
        engine = Engine()
        full = engine.rank(tree, rf)
        pruned, report = engine.rank_top_k(tree, rf, k)
        assert_prefix(pruned, full, k)
        assert report.k == k

    @pytest.mark.parametrize("rf", FAMILY)
    @pytest.mark.parametrize("k", [0, 1, 3, 100])
    def test_markov_matches_full_prefix(self, rf, k):
        network = make_network(seed=17)
        full = Engine().rank(network, rf)
        # Fresh engine: a cached positional matrix would (by design)
        # short-circuit the pruned path.
        pruned, report = Engine().rank_top_k(network, rf, k)
        assert_prefix(pruned, full, k)
        assert report.k == k

    def test_randomized_sweep_independent(self):
        rng = random.Random(23)
        for trial in range(25):
            n = rng.randint(1, 300)
            relation = make_relation(n, seed=500 + trial)
            alpha = rng.uniform(0.05, 0.999)
            k = rng.randint(1, n)
            engine = Engine()
            full = engine.rank(relation, PRFe(alpha))
            pruned, report = engine.rank_top_k(relation, PRFe(alpha), k)
            assert_prefix(pruned, full, k)
            assert report.examined <= n

    def test_randomized_sweep_andxor(self):
        rng = random.Random(29)
        for trial in range(10):
            tree = make_tree(seed=700 + trial, groups=rng.randint(5, 60))
            alpha = rng.uniform(0.05, 0.999)
            n = len(tree.leaves)
            k = rng.randint(1, n)
            engine = Engine()
            full = engine.rank(tree, PRFe(alpha))
            pruned, _ = engine.rank_top_k(tree, PRFe(alpha), k)
            assert_prefix(pruned, full, k)

    def test_randomized_sweep_markov(self):
        rng = random.Random(31)
        for trial in range(5):
            n = rng.randint(3, 12)
            network = make_network(seed=900 + trial, n=n)
            alpha = rng.uniform(0.1, 0.95)
            k = rng.randint(1, n)
            full = Engine().rank(network, PRFe(alpha))
            pruned, _ = Engine().rank_top_k(network, PRFe(alpha), k)
            assert_prefix(pruned, full, k)

    def test_pruning_engages_on_large_relations(self):
        relation = make_relation(1000, seed=37)
        pruned, report = Engine().rank_top_k(relation, PRFe(0.8), 10)
        assert report.pruned and report.examined < 1000
        assert 0.0 < report.fraction_examined < 1.0
        full = Engine().rank(relation, PRFe(0.8))
        assert_prefix(pruned, full, 10)


#: Datasets of every model at sizes either side of the first two prefix
#: lengths (64 rows, then 256).
MODEL_SIZES = [
    pytest.param(make, n, id=f"{label}-{n}")
    for label, make in [
        ("independent", lambda n: make_relation(n, seed=n)),
        ("andxor", lambda n: syn_xor(n, rng=n)),
        ("markov", lambda n: make_network(seed=n, n=n)),
    ]
    for n in (63, 65, 255, 257)
]


@pytest.mark.parametrize("make, n", MODEL_SIZES)
def test_repeated_top_k_on_one_engine_is_the_full_prefix(make, n, monkeypatch):
    """``k`` rising and falling on one engine: the memo is served, grown and promoted."""
    data = make(n)
    rf = PRFe(0.8)
    full = Engine().rank(data, rf)
    assert len(full) == n
    engine = Engine()
    examined = []
    for k in (3, 10, 1, 40, 17, 64, 5, n - 1, 2):
        pruned, report = engine.rank_top_k(data, rf, k)
        assert_prefix(pruned, full, k)
        assert report.pruned == (report.examined < n)
        examined.append(report.examined)
    # These seeds prune at 64 rows and, past 256, grow to 256.
    assert n <= 64 or examined[0] == 64
    assert n <= 256 or 256 in examined
    # k = n - 1 evaluates every row, and what that caches serves the next
    # request.
    assert examined[-2:] == [n, n]
    assert_prefix(engine.rank(data, rf), full, n)
    # No prefix certifies PRFe(0.9999) at k = 10: the first query evaluates
    # every row, and the later ones evaluate no row again.
    rf = PRFe(0.9999)
    full = Engine().rank(data, rf)
    pruned, report = engine.rank_top_k(data, rf, 10)
    assert_prefix(pruned, full, 10)
    assert report.examined == n and not report.pruned
    backend = type(engine.backend_for(data))

    def recomputed(*args, **kwargs):
        raise AssertionError("a served top-k query evaluated rows again")

    monkeypatch.setattr(backend, "_topk_prefix", recomputed)
    monkeypatch.setattr(backend, "rank", recomputed)
    for k in (10, 3, 30):
        pruned, report = engine.rank_top_k(data, rf, k)
        assert_prefix(pruned, full, k)
        assert report.examined == n and not report.pruned


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------
class TestEdgeCases:
    def test_k_zero_returns_empty(self):
        relation = make_relation(10, seed=41)
        result, report = Engine().rank_top_k(relation, PRFe(0.9), 0)
        assert len(result) == 0
        assert report == TopKReport(k=0, n=10, examined=0, pruned=True)

    def test_k_exceeding_n_is_the_full_ranking(self):
        relation = make_relation(8, seed=43)
        engine = Engine()
        full = engine.rank(relation, PRFe(0.9))
        result, report = engine.rank_top_k(relation, PRFe(0.9), 100)
        assert len(result) == 8
        assert_prefix(result, full, 100)
        assert not report.pruned and report.examined == 8

    def test_negative_and_non_integral_k_rejected(self):
        relation = make_relation(5, seed=47)
        engine = Engine()
        with pytest.raises(ValueError):
            engine.rank_top_k(relation, PRFe(0.9), -1)
        with pytest.raises(ValueError):
            engine.rank_top_k(relation, PRFe(0.9), 2.5)
        assert validated_k(3.0) == 3  # integral floats are accepted

    def test_empty_dataset(self):
        relation = ProbabilisticRelation([], name="empty")
        result, report = Engine().rank_top_k(relation, PRFe(0.9), 5)
        assert len(result) == 0
        assert report.n == 0 and not report.pruned

    def test_ties_at_the_kth_value(self):
        # Four tuples share one probability/score pattern, so values tie at
        # the boundary; the prefix must match the full ranking's tie-break.
        pairs = [(100.0 - i, 0.5) for i in range(8)] + [(50.0, 0.25)] * 4
        relation = ProbabilisticRelation.from_pairs(pairs, name="ties")
        engine = Engine()
        rf = PRFe(0.9)
        full = engine.rank(relation, rf)
        for k in range(len(pairs) + 1):
            pruned, _ = engine.rank_top_k(relation, rf, k)
            assert_prefix(pruned, full, k)

    def test_all_zero_probabilities(self):
        relation = ProbabilisticRelation.from_pairs(
            [(10.0, 0.0), (5.0, 0.0), (1.0, 0.0)], name="zeros"
        )
        engine = Engine()
        full = engine.rank(relation, PRFe(0.9))
        pruned, report = engine.rank_top_k(relation, PRFe(0.9), 2)
        assert_prefix(pruned, full, 2)
        assert report.examined == 3  # nothing is certifiable, all examined

    def test_alpha_one_is_not_prunable(self):
        # PRFe(1.0) is expected count — the decay bound is vacuous there.
        assert not prunable(PRFe(1.0))
        assert prunable(PRFe(0.999))
        assert not prunable(PRFe(0.5 + 0.1j))
        assert not prunable(PRFOmega(StepWeight(5)))

    def test_report_fraction_examined(self):
        report = TopKReport(k=5, n=200, examined=50, pruned=True)
        assert report.fraction_examined == 0.25
        assert TopKReport(k=0, n=0, examined=0, pruned=False).fraction_examined == 1.0


# ---------------------------------------------------------------------------
# The kernels themselves
# ---------------------------------------------------------------------------
#: A small pool, so keys tie often; signed zeros, infinities, NaN and a
#: subnormal-sized value included.
TIED_FLOATS = [0.0, -0.0, 0.5, -0.5, 1.0, 2.5e-300, np.inf, -np.inf, np.nan]


@st.composite
def order_cases(draw):
    """``(values, score-descending scores, tid strings, sort keys or None)``.

    Up to a few thousand entries, so the unstable sort really scrambles
    runs of equal keys: a drawn share of them from a small drawn pool (a
    few ties up to nothing but ties), the rest distinct.  Scores are
    distinct or drawn from five values, so key ties come with and without
    score ties.
    """
    n = draw(st.one_of(st.integers(0, 3), st.integers(4, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def column():
        pool = np.array(draw(st.lists(st.sampled_from(TIED_FLOATS), min_size=1, max_size=4)))
        tied = rng.random(n) < draw(st.sampled_from([0.0, 0.01, 0.3, 0.6, 1.0]))
        return np.where(tied, rng.choice(pool, n), rng.normal(0.0, 1.0, n))

    values = column()
    if draw(st.booleans()):
        parts = values
        values = np.empty(n, dtype=complex)
        values.real, values.imag = parts, column()
    if draw(st.booleans()):
        scores = np.arange(n, 0, -1, dtype=float)
    else:
        scores = np.sort(rng.integers(0, 5, n).astype(float))[::-1]
    tids = rng.permutation(n).astype(str)
    sort_keys = column() if draw(st.booleans()) else None
    return values, scores, tids, sort_keys
@st.composite
def mostly_common_cases(draw):
    """Order cases where more than half the keys are ``0`` or, as sort keys, ``-inf``.

    The rest are distinct normals (signed, so some sort on either side of
    ``0``), ties among themselves, NaN and ``-0.0``.
    """
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    as_sort_keys = draw(st.booleans())
    common = -np.inf if as_sort_keys else 0.0
    keys = rng.normal(0.0, 1.0, n)
    keys[rng.random(n) < 0.05] = np.nan
    keys[rng.random(n) < 0.05] = 0.5
    keys[rng.random(n) < draw(st.sampled_from([0.0, 0.1]))] = -0.0
    keys[rng.permutation(n)[: draw(st.integers(n // 2 + 1, n))]] = common
    if draw(st.booleans()):
        scores = np.arange(n, 0, -1, dtype=float)
    else:
        scores = np.sort(rng.integers(0, 5, n).astype(float))[::-1]
    tids = rng.permutation(n).astype(str)
    if as_sort_keys:
        return rng.uniform(0.0, 1.0, n), scores, tids, keys
    return np.abs(keys), scores, tids, None


class TestKernels:
    def test_independent_streamed_kernel_is_bitwise_stable_under_growth(self):
        # Each prefix length recomputes the kernel from scratch; its log
        # values are the full kernel's entries exactly, and its bound is the
        # full kernel's log-value of an appended p = 1 tuple.
        from repro.engine.kernels import batched_prfe_log_values

        rng = np.random.default_rng(53)
        probabilities = rng.uniform(0.0, 1.0, 500)
        probabilities[[3, 70]] = 0.0
        alpha = 0.85
        full = batched_prfe_log_values(probabilities[None, :], alpha)[0]
        for m in (1, 2, 63, 64, 65, 256, 499, 500):
            log_values, bound = independent_topk_log_values(probabilities, alpha, m)
            np.testing.assert_array_equal(log_values, full[:m])
            row = np.append(probabilities[:m], 1.0)[None, :]
            assert bound == batched_prfe_log_values(row, alpha)[0, m]
            assert np.all(full[m:] <= bound)

    def test_ranking_order_breaks_key_and_score_ties_by_tid_string(self):
        calls = []

        def strings(*tids):
            return lambda: calls.append(1) or np.array(tids)

        order = ranking_order(np.array([0.0, 0.0, 0.5]), np.ones(3), strings("b", "a", "c"))
        assert order.tolist() == [2, 1, 0] and len(calls) == 1
        # NaN keys sort last and tie with each other: "10" < "9" as strings.
        nan = np.array([np.nan, np.nan, 0.5])
        assert ranking_order(nan, np.ones(3), strings("9", "10", "c")).tolist() == [2, 1, 0]
        assert len(calls) == 2
        distinct = ranking_order(np.array([0.1, 0.2]), np.ones(2), strings("a", "b"))
        assert distinct.tolist() == [1, 0] and len(calls) == 2

    def test_ranking_order_takes_magnitudes_as_python_abs(self):
        # np.abs rounds both magnitudes up to one value, abs() keeps them
        # an ulp apart; the order must be from_values', not a tid tie-break.
        values = np.array([0.029296875 + 0.003850068941053608j, 0.029296875 + 0.003850068941053636j])
        assert [m.hex() for m in magnitudes(values)] == [abs(v).hex() for v in values.tolist()]
        tuples = [Tuple("a", 1.0, 0.5), Tuple("b", 1.0, 0.5)]
        expected = RankingResult.from_values(tuples, values.tolist()).tids()
        assert expected == ["b", "a"]
        order = ranking_order(values, np.ones(2), lambda: np.array(["a", "b"]))
        assert [tuples[i].tid for i in order] == expected

    @settings(max_examples=200, deadline=None)
    @given(order_cases())
    def test_ranking_order_equals_the_three_key_lexsort(self, case):
        values, scores, tids, sort_keys = case
        calls = []
        order = ranking_order(values, scores, lambda: calls.append(1) or tids, sort_keys)
        keys = magnitudes(values) if sort_keys is None else sort_keys
        two_key = np.lexsort((-scores, -keys))
        ranked_keys, ranked_scores = keys[two_key], scores[two_key]
        same_key = (ranked_keys[1:] == ranked_keys[:-1]) | (
            np.isnan(ranked_keys[1:]) & np.isnan(ranked_keys[:-1])
        )
        full_tie = bool((same_key & (ranked_scores[1:] == ranked_scores[:-1])).any())
        expected = np.lexsort((tids, -scores, -keys)) if full_tie else two_key
        assert order.tolist() == expected.tolist()
        assert len(calls) == int(full_tie)

    @settings(max_examples=200, deadline=None)
    @given(mostly_common_cases())
    def test_mostly_zero_or_minus_infinity_keys_keep_the_three_key_order(self, case):
        values, scores, tids, sort_keys = case
        keys = magnitudes(values) if sort_keys is None else sort_keys
        common = 0.0 if sort_keys is None else -np.inf
        assert 2 * np.count_nonzero(keys == common) > keys.size
        calls = []
        order = ranking_order(values, scores, lambda: calls.append(1) or tids, sort_keys)
        two_key = np.lexsort((-scores, -keys))
        ranked_keys, ranked_scores = keys[two_key], scores[two_key]
        same_key = (ranked_keys[1:] == ranked_keys[:-1]) | (
            np.isnan(ranked_keys[1:]) & np.isnan(ranked_keys[:-1])
        )
        full_tie = bool((same_key & (ranked_scores[1:] == ranked_scores[:-1])).any())
        expected = np.lexsort((tids, -scores, -keys)) if full_tie else two_key
        assert order.tolist() == expected.tolist()
        assert len(calls) == int(full_tie)

    @pytest.mark.parametrize("distinct_scores", [True, False])
    def test_zero_probability_tuples_tie_at_minus_infinity(self, distinct_scores):
        # p = 0 tuples have log key -inf: one run of ties spread over the
        # relation, broken by score and, among equal scores, by tid string.
        rng = np.random.default_rng(71)
        n = 3000
        if distinct_scores:
            scores = rng.permutation(n).astype(float)
        else:
            scores = rng.integers(0, n // 3, n).astype(float)
        probabilities = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 1.0, n))
        tuples = [Tuple(f"t{i}", s, p) for i, (s, p) in enumerate(zip(scores, probabilities))]
        relation = ProbabilisticRelation(tuples, name="zeros")
        for rf in (PRFe(0.9), PRFe(1.0), PRFOmega(StepWeight(40))):
            expected = [(item.tid, item.value) for item in rank_independent(relation, rf)]
            for data in (relation, relation.to_columnar()):
                engine = Engine()
                assert [(i.tid, i.value) for i in engine.rank(data, rf)] == expected
                many = engine.rank_many(data, [PRFe(0.5), rf])[1]
                assert [(i.tid, i.value) for i in many] == expected
                batch = Engine().rank_batch([data, data], rf)
                assert all([(i.tid, i.value) for i in r] == expected for r in batch)
                top, _ = Engine().rank_top_k(data, rf, 50)
                assert [(i.tid, i.value) for i in top] == expected[:50]

    def test_tied_tuples_rank_by_tid_string_in_both_forms(self):
        tuples = [Tuple(9, 1.0, 0.0), Tuple(10, 1.0, 0.0), Tuple("x", 2.0, 0.0)]
        relation = ProbabilisticRelation(tuples)
        expected = RankingResult.from_values(tuples, [0.0] * 3).tids()
        assert expected == ["x", 10, 9]
        for data in (relation, relation.to_columnar()):
            engine = Engine()
            for rf in (PRFe(0.9), PRFOmega(StepWeight(2))):
                assert engine.rank(data, rf).tids() == expected
                assert engine.rank_top_k(data, rf, 2)[0].tids() == expected[:2]

    def test_certified_semantics(self):
        keys = np.array([5.0, 3.0, 1.0])
        assert certified(keys, 1, 4.0)
        assert not certified(keys, 2, 4.0)  # 2nd best (3.0) below the bound
        assert certified(keys, 2, 2.0)
        assert not certified(keys, 4, 0.0)  # fewer than k examined
        assert not certified(keys, 0, 0.0)

    def test_tree_topk_kernel_matches_full_algorithm3_prefix(self):
        tree = make_tree(seed=59)
        alpha = 0.9
        _, full_values = prfe_values_tree(tree, alpha)
        layout = PRFeLayout(tree)
        for rows in (1, 5, 64, len(tree)):
            values, expectation = prfe_prefix_values(layout, alpha, rows)
            np.testing.assert_array_equal(values, full_values[:rows])
            bound = BOUND_SAFETY * alpha * expectation
            assert np.all(np.abs(full_values[rows:]) <= bound)

    def test_positional_values_do_not_depend_on_the_row_count(self):
        # A BLAS matrix-vector product splits a tall matrix's rows between
        # threads at a height-dependent row: rows 748 and 749 of a 1500-row
        # product differed from a 768-row prefix's (2 threads).  A Markov
        # top-k prefix needs the full matrix's values bit for bit.
        rng = np.random.default_rng(5)
        n = 1500
        rows = rng.random((n, n)) * rng.random((n, 1))
        ordered = [Tuple(f"t{i}", float(n - i), 1.0) for i in range(n)]
        for rf in (PRFe(0.95), PRFOmega(StepWeight(700)), PRFe(0.5 + 0.25j)):
            full = rf.evaluate_positional(ordered, rows)
            for m in (64, 256, 768, 1024):
                prefix = rf.evaluate_positional(ordered[:m], rows[:m])
                assert np.array_equal(prefix, full[:m])

    def test_prefix_count_distribution_matches_independent_convolution(self):
        # On a from_independent network the prefix count is a sum of
        # independent Bernoullis — compare against the explicit convolution.
        rng = np.random.default_rng(61)
        pairs = [(float(100 - i), float(p)) for i, p in enumerate(rng.uniform(0.1, 0.9, 6))]
        relation = ProbabilisticRelation.from_pairs(pairs, name="ind")
        from repro.graphical import MarkovNetworkRelation

        network = MarkovNetworkRelation.from_independent(relation)
        ordered = network.sorted_tuples()
        prefix = [t.tid for t in ordered[:4]]
        probabilities = {t.tid: t.probability for t in relation.tuples}
        expected = np.ones(1)
        for tid in prefix:
            p = probabilities[tid]
            expected = np.convolve(expected, np.array([1.0 - p, p]))
        actual = prefix_count_distribution(network, prefix)
        np.testing.assert_allclose(actual[: expected.size], expected, atol=1e-12)
        assert actual.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Facade wiring: plans, batches, sweeps, memo reuse
# ---------------------------------------------------------------------------
class TestFacade:
    def test_plan_records_pruning_decision(self):
        relation = make_relation(30, seed=67)
        engine = Engine()
        plan = engine.plan(relation, PRFe(0.9), top_k=5)
        assert plan.top_k == 5 and plan.prune
        assert "top-k early termination" in plan.algorithm
        plan_full = engine.plan(relation, PRFe(0.9))
        assert plan_full.top_k is None and not plan_full.prune
        plan_omega = engine.plan(relation, PRFOmega(StepWeight(5)), top_k=5)
        assert plan_omega.top_k == 5 and not plan_omega.prune

    def test_rank_with_top_k_argument(self):
        relation = make_relation(60, seed=71)
        engine = Engine()
        full = engine.rank(relation, PRFe(0.9))
        assert_prefix(engine.rank(relation, PRFe(0.9), top_k=7), full, 7)

    def test_rank_batch_with_top_k(self):
        datasets = [make_relation(50, seed=73), make_tree(seed=79), make_network(seed=83)]
        engine = Engine()
        fulls = [Engine().rank(data, PRFe(0.9)) for data in datasets]
        results = engine.rank_batch(datasets, PRFe(0.9), top_k=4)
        for result, full in zip(results, fulls):
            assert [item.tid for item in result] == [item.tid for item in full[:4]]

    def test_submit_batch_with_top_k(self):
        datasets = [make_relation(50, seed=73), make_relation(40, seed=89)]
        engine = Engine()
        try:
            results = engine.submit_batch(datasets, PRFe(0.9), top_k=3).result(timeout=30)
            assert all(len(result) == 3 for result in results)
        finally:
            engine.close()

    def test_rank_many_with_top_k(self):
        relation = make_relation(80, seed=97)
        specs = [PRFe(0.5), PRFe(0.9), PRFOmega(StepWeight(5))]
        engine = Engine()
        fulls = engine.rank_many(relation, specs)
        results = engine.rank_many(relation, specs, top_k=6)
        for result, full in zip(results, fulls):
            assert_prefix(result, full, 6)

    def test_memo_serves_smaller_k_without_recomputation(self):
        relation = make_relation(800, seed=101)
        engine = Engine()
        _, first = engine.rank_top_k(relation, PRFe(0.8), 10)
        assert first.pruned
        pruned, second = engine.rank_top_k(relation, PRFe(0.8), 3)
        assert second.examined == first.examined  # served from the memo
        full = Engine().rank(relation, PRFe(0.8))
        assert_prefix(pruned, full, 3)

    def test_andxor_full_prefix_promotes_to_full_memo(self):
        tree = make_tree(seed=103, groups=6)
        engine = Engine()
        n = len(tree.leaves)
        _, report = engine.rank_top_k(tree, PRFe(0.95), n - 1)
        if report.examined == n:
            entry = engine.backend_for(tree).entry(tree)
            assert ("prfe", complex(0.95)) in entry.extras
        # And the full ranking stays bit-identical afterwards.
        full = Engine().rank(tree, PRFe(0.95))
        again = engine.rank(tree, PRFe(0.95))
        assert [item.value for item in again] == [item.value for item in full]


# ---------------------------------------------------------------------------
# Service tier: the top_k request type
# ---------------------------------------------------------------------------
class TestServiceTopK:
    def test_submit_top_k_matches_engine(self):
        relation = make_relation(100, seed=107)
        full = Engine().rank(relation, PRFe(0.9))

        async def scenario():
            async with RankingService() as service:
                reply = await service.submit(relation, PRFe(0.9), top_k=5)
                assert reply.k == 5
                assert_prefix(reply.result, full, 5)

        run(scenario())

    def test_cache_and_dedup_key_on_k(self):
        relation = make_relation(100, seed=109)

        async def scenario():
            async with RankingService() as service:
                first = await service.submit(relation, PRFe(0.9), top_k=5)
                hit = await service.submit(relation, PRFe(0.9), top_k=5)
                assert hit.cached and hit.k == 5
                other = await service.submit(relation, PRFe(0.9), top_k=9)
                assert not other.cached and len(other.result) == 9
                full = await service.submit(relation, PRFe(0.9))
                assert not full.cached and full.k is None
                assert len(full.result) == 100
                assert len(first.result) == 5

        run(scenario())

    def test_concurrent_identical_top_k_deduplicate(self):
        relation = make_relation(100, seed=113)

        async def scenario():
            async with RankingService() as service:
                replies = await asyncio.gather(
                    *(service.submit(relation, PRFe(0.9), top_k=5) for _ in range(6))
                )
                assert all(len(reply.result) == 5 for reply in replies)
                assert any(reply.deduplicated for reply in replies)
                assert service.stats.deduplicated >= 1

        run(scenario())

    def test_invalid_top_k_rejected(self):
        relation = make_relation(10, seed=127)

        async def scenario():
            async with RankingService() as service:
                with pytest.raises(ValueError):
                    await service.submit(relation, PRFe(0.9), top_k=-2)

        run(scenario())

    def test_async_client_top_k(self):
        relation = make_relation(100, seed=131)
        full = Engine().rank(relation, PRFe(0.9))

        async def scenario():
            async with RankingService() as service:
                client = AsyncRankingClient(service)
                tids = await client.top_k(relation, PRFe(0.9), 5)
                assert tids == [item.tid for item in full[:5]]
                reply = await client.top_k_detailed(relation, PRFe(0.9), 5)
                assert reply.k == 5 and len(reply.result) == 5

        run(scenario())

    def test_tcp_top_k_op(self):
        relation = make_relation(60, seed=137)
        full = Engine().rank(relation, PRFe(0.9))

        async def scenario():
            async with RankingService() as service:
                server = await serve_tcp(service, port=0)
                port = server.sockets[0].getsockname()[1]
                try:
                    async with await TCPRankingClient.connect(port=port) as client:
                        tids = await client.top_k(relation, PRFe(0.9), 5)
                        assert tids == [item.tid for item in full[:5]]
                        response = await client._call(
                            {
                                "op": "top_k",
                                "dataset": None,
                                "rf": None,
                                "k": 3,
                            }
                        )
                finally:
                    server.close()
                    await server.wait_closed()

        with pytest.raises(RemoteServiceError):
            run(scenario())

    def test_tcp_top_k_requires_k(self):
        relation = make_relation(20, seed=139)

        async def scenario():
            async with RankingService() as service:
                server = await serve_tcp(service, port=0)
                port = server.sockets[0].getsockname()[1]
                try:
                    async with await TCPRankingClient.connect(port=port) as client:
                        from repro.service import dataset_to_payload, ranking_function_to_payload

                        message = {
                            "op": "top_k",
                            "dataset": dataset_to_payload(relation),
                            "rf": ranking_function_to_payload(PRFe(0.9)),
                        }
                        with pytest.raises(RemoteServiceError) as failure:
                            await client._call(message)
                        assert failure.value.kind == "protocol"
                        response = await client._call({**message, "k": 4})
                        assert response["k"] == 4
                        assert len(response["ranking"]) == 4
                finally:
                    server.close()
                    await server.wait_closed()

        run(scenario())

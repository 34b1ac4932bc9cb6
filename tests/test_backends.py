"""Tests for the correlation-aware backend layer of the engine.

The core contract: the planner routes every correlation model through
its backend, and every execution shape — cold cache, warm cache, mixed
batches and sweeps — returns bitwise identical rankings, which agree
with the possible-worlds oracle.  The legacy per-model entry points
(``rank_independent``, ``rank_tree``, ``rank_markov_network``) are
``Engine().rank`` calls and return the same bits.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

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
from repro.andxor.generating import positional_distribution, positional_probabilities_tree
from repro.andxor.ranking import rank_tree
from repro.andxor.tree import AndXorTree
from repro.core.weights import NDCGDiscountWeight, StepWeight
from repro.datasets.synthetic import TreeShape, generate_random_tree, syn_high, syn_xor
from repro.engine import dataset_fingerprint, network_fingerprint, tree_fingerprint
from repro.graphical import Factor, MarkovChainRelation, MarkovNetworkRelation
from repro.graphical.ranking import (
    positional_probabilities_markov,
    rank_distribution_markov,
    rank_markov_network,
)
from tests.conftest import assert_matches_oracle

FAMILY = [
    pytest.param(PRFe(0.95), id="PRFe-real"),
    pytest.param(PRFe(0.5 + 0.25j), id="PRFe-complex"),
    pytest.param(PRFOmega(StepWeight(7)), id="PRFomega-step"),
    pytest.param(PRF(NDCGDiscountWeight()), id="PRF-general"),
    pytest.param(
        LinearCombinationPRFe([0.6, 0.4j], [0.9, 0.4 + 0.1j]), id="LinearCombinationPRFe"
    ),
    pytest.param(
        LinearCombinationPRFe(
            [0.5 + 0.1j, 0.5 - 0.1j, 0.3], [0.9 + 0.05j, 0.9 - 0.05j, 0.7]
        ),
        id="LinearCombinationPRFe-conjugate-closed",
    ),
]


def random_tree(rng: np.random.Generator, n: int | None = None) -> AndXorTree:
    n = int(rng.integers(4, 28)) if n is None else n
    shape = TreeShape(
        height=int(rng.integers(3, 6)),
        max_degree=int(rng.integers(2, 5)),
        xor_to_and_ratio=float(rng.uniform(0.3, 3.0)),
    )
    return generate_random_tree(n, shape, rng=int(rng.integers(0, 2**31)))


def random_network(rng: np.random.Generator, n: int | None = None) -> MarkovNetworkRelation:
    """A small random Markov chain network (bounded treewidth by design)."""
    n = int(rng.integers(2, 8)) if n is None else n
    tuples = [Tuple(f"t{i}", float(rng.uniform(0.0, 100.0)), 1.0) for i in range(n)]
    transitions = []
    for _ in range(n - 1):
        stay_absent = rng.uniform(0.2, 0.9)
        stay_present = rng.uniform(0.2, 0.9)
        transitions.append(
            np.array([[stay_absent, 1 - stay_absent], [1 - stay_present, stay_present]])
        )
    chain = MarkovChainRelation(tuples, float(rng.uniform(0.2, 0.8)), transitions)
    return chain.to_markov_network()


def random_relation(rng: np.random.Generator, n: int | None = None) -> ProbabilisticRelation:
    n = int(rng.integers(2, 11)) if n is None else n
    return ProbabilisticRelation.from_arrays(
        rng.uniform(0.0, 100.0, size=n), rng.uniform(0.0, 1.0, size=n)
    )


def assert_bitwise_equal(result, reference, context=""):
    assert result.tids() == reference.tids(), context
    assert [item.value for item in result] == [item.value for item in reference], context


MODELS = {
    "independent": (random_relation, rank_independent),
    "andxor": (lambda rng: random_tree(rng, n=int(rng.integers(2, 11))), rank_tree),
    "markov": (random_network, rank_markov_network),
}


class TestLegacyEntryPoints:
    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("rf", FAMILY)
    def test_legacy_entry_points_are_engine_calls(self, model, rf):
        make, legacy = MODELS[model]
        rng = np.random.default_rng(401)
        engine = Engine()
        for _ in range(4):
            data = make(rng)
            assert_bitwise_equal(legacy(data, rf), engine.rank(data, rf), context=data.name)
            assert_matches_oracle(engine.rank(data, rf), data, rf, context=data.name)


class TestMaxRankValidation:
    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("query", ["positional_matrix", "rank_distribution"])
    @pytest.mark.parametrize("max_rank", [-1, 2.5])
    def test_every_model_validates_max_rank(self, model, query, max_rank):
        data = MODELS[model][0](np.random.default_rng(409))
        engine = Engine()
        if query == "positional_matrix":
            call = lambda: engine.positional_matrix(data, max_rank=max_rank)  # noqa: E731
        else:
            tid = engine.sorted_tuples(data)[0].tid
            call = lambda: engine.rank_distribution(data, tid, max_rank=max_rank)  # noqa: E731
        message = "non-negative" if max_rank == -1 else "an integer"
        with pytest.raises(ValueError, match=f"max_rank must be {message}"):
            call()

    @pytest.mark.parametrize(
        "model, function",
        [
            ("andxor", positional_probabilities_tree),
            ("andxor", positional_distribution),
            ("markov", positional_probabilities_markov),
            ("markov", rank_distribution_markov),
        ],
        ids=lambda value: getattr(value, "__name__", value),
    )
    @pytest.mark.parametrize("max_rank", [-1, 2.5])
    def test_model_level_functions_validate_max_rank(self, model, function, max_rank):
        data = MODELS[model][0](np.random.default_rng(409))
        if function in (positional_distribution, rank_distribution_markov):
            tid = Engine().sorted_tuples(data)[0].tid
            call = lambda: function(data, tid, max_rank=max_rank)  # noqa: E731
        else:
            call = lambda: function(data, max_rank=max_rank)  # noqa: E731
        message = "non-negative" if max_rank == -1 else "an integer"
        with pytest.raises(ValueError, match=f"max_rank must be {message}"):
            call()


class TestAndXorBackendEquivalence:
    @pytest.mark.parametrize("rf", FAMILY)
    def test_engine_matches_rank_tree_bitwise(self, rf):
        # rank_tree is a fresh engine's rank, so both sides are one path;
        # the possible-worlds oracle is what holds them to the paper.
        rng = np.random.default_rng(101)
        engine = Engine()
        for _ in range(12):
            tree = random_tree(rng, n=int(rng.integers(2, 11)))
            result = engine.rank(tree, rf)
            assert_bitwise_equal(result, rank_tree(tree, rf), context=tree.name)
            assert_matches_oracle(result, tree, rf, context=tree.name)

    @pytest.mark.parametrize("rf", FAMILY)
    def test_warm_cache_stays_bitwise_identical(self, rf):
        tree = syn_high(40, rng=7)
        engine = Engine()
        engine.rank(tree, rf)  # populate the cache
        assert_bitwise_equal(engine.rank(tree, rf), rank_tree(tree, rf))
        assert engine.cache_stats()["hits"] >= 1

    def test_rebuilt_tree_hits_cache_and_carries_own_tuples(self):
        rng = np.random.default_rng(5)
        first = random_tree(rng, n=10)
        second = generate_random_tree(10, TreeShape(3, 3, 1.0), rng=11)
        third = generate_random_tree(10, TreeShape(3, 3, 1.0), rng=11)
        assert tree_fingerprint(second) == tree_fingerprint(third)
        assert tree_fingerprint(first) != tree_fingerprint(second)
        engine = Engine()
        engine.rank(second, PRFe(0.9))
        result = engine.rank(third, PRFe(0.9))
        assert engine.cache_stats()["hits"] >= 1
        assert all(item.item is third.get(item.tid) for item in result)
        # Every path returning tuples, for trees and networks, hands back
        # the caller's own objects, and a cache entry keeps no dataset
        # alive: the twin that built it can be freed while it serves others.
        makers = [
            lambda: generate_random_tree(30, TreeShape(3, 3, 1.0), rng=11),
            lambda: random_network(np.random.default_rng(7), n=12),
        ]
        for make in makers:
            engine = Engine()
            builder = make()
            engine.sorted_tuples(builder)
            probe = weakref.ref(builder)
            del builder
            gc.collect()
            assert probe() is None
            caller, other = make(), make()
            backend = engine.backend_for(caller)
            top, report = engine.rank_top_k(caller, PRFe(0.5), 2)
            assert report.pruned
            owned = [(caller, top), (caller, engine.rank(caller, PRFe(0.9)))]
            owned += [
                (caller, result)
                for result in engine.rank_many(caller, [PRFe(0.8), PRFOmega(StepWeight(4))])
            ]
            for store in (True, False):
                pair = backend.rank_batch([caller, other], PRFOmega(StepWeight(4)), store=store)
                owned += list(zip((caller, other), pair))
            owned.append((caller, engine.positional_matrix(caller)[0]))
            owned.append((caller, engine.sorted_tuples(caller)))
            assert len(engine.cache) == 1
            for owner, items in owned:
                tuples = [getattr(item, "item", item) for item in items]
                assert len(tuples) > 0
                assert all(t is owner.get(t.tid) for t in tuples)
            assert engine.cache_stats()["misses"] == 1

    def test_positional_matrix_narrowing_is_exact(self):
        tree = syn_xor(30, rng=13)
        engine = Engine()
        ordered, wide = engine.positional_matrix(tree)
        _, narrow = engine.positional_matrix(tree, max_rank=6)
        assert np.array_equal(wide[:, :6], narrow)
        from repro.andxor.generating import positional_probabilities_tree

        ref_ordered, ref = positional_probabilities_tree(tree, max_rank=6)
        assert [t.tid for t in ordered] == [t.tid for t in ref_ordered]
        assert np.array_equal(narrow, ref)

    def test_rank_many_matches_per_spec_rank_tree(self):
        tree = syn_xor(25, rng=17)
        specs = [PRFe(0.5), PRFe(0.9), PRFOmega(StepWeight(5)), PRFe(0.5)]
        results = Engine().rank_many(tree, specs)
        for spec, result in zip(specs, results):
            assert_bitwise_equal(result, rank_tree(tree, spec), context=repr(spec))

    def test_rank_distribution_cold_and_warm(self):
        tree = syn_xor(12, rng=19)
        engine = Engine()
        tid = tree.sorted_tuples()[3].tid
        cold = engine.rank_distribution(tree, tid, max_rank=5)
        reference = positional_distribution(tree, tid, max_rank=5)
        assert np.allclose(cold, reference, atol=1e-12)
        engine.positional_matrix(tree)  # warm the full matrix
        warm = engine.rank_distribution(tree, tid, max_rank=5)
        assert np.allclose(warm, reference, atol=1e-12)


class TestMarkovBackendEquivalence:
    @pytest.mark.parametrize("rf", FAMILY)
    def test_engine_matches_rank_markov_network_bitwise(self, rf):
        # As for trees: one path on both sides, held to the oracle.
        rng = np.random.default_rng(211)
        engine = Engine()
        for _ in range(4):
            network = random_network(rng)
            result = engine.rank(network, rf)
            assert_bitwise_equal(result, rank_markov_network(network, rf))
            assert_matches_oracle(result, network, rf, context=network.name)

    def test_warm_cache_stays_bitwise_identical(self):
        rng = np.random.default_rng(223)
        network = random_network(rng, n=6)
        engine = Engine()
        engine.rank(network, PRFe(0.9))
        assert_bitwise_equal(engine.rank(network, PRFe(0.9)), rank_markov_network(network, PRFe(0.9)))
        assert engine.cache_stats()["hits"] >= 1

    def test_disconnected_network_from_independent(self):
        relation = ProbabilisticRelation.from_pairs(
            [(9.0, 0.8), (7.0, 0.3), (4.0, 0.6), (2.0, 0.5)]
        )
        network = MarkovNetworkRelation.from_independent(relation)
        engine = Engine()
        result = engine.rank(network, PRFOmega(StepWeight(3)))
        reference = rank_independent(relation, PRFOmega(StepWeight(3)))
        assert result.tids() == reference.tids()
        values = [item.value for item in result]
        expected = [item.value for item in reference]
        assert np.allclose(values, expected, atol=1e-12)

    def test_marginals_match_bruteforce(self):
        rng = np.random.default_rng(229)
        network = random_network(rng, n=5)
        engine = Engine()
        marginals = engine.marginal_probabilities(network)
        brute = network.marginal_probabilities_bruteforce()
        for tid, probability in brute.items():
            assert marginals[tid] == pytest.approx(probability, abs=1e-9)

    def test_rank_distribution_reuses_cached_calibration(self):
        rng = np.random.default_rng(233)
        network = random_network(rng, n=6)
        engine = Engine()
        tid = network.sorted_tuples()[2].tid
        cold = engine.rank_distribution(network, tid)
        reference = rank_distribution_markov(network, tid)
        assert np.allclose(cold, reference, atol=1e-12)
        engine.positional_matrix(network)
        warm = engine.rank_distribution(network, tid)
        assert np.allclose(warm, reference, atol=1e-12)

    def test_entry_elements_count_the_kept_calibration(self):
        rng = np.random.default_rng(239)
        network = random_network(rng, n=6)
        engine = Engine()
        engine.rank(network, PRFe(0.9))
        entry = engine.cache.entry_for(network)
        base = entry.calibrated()
        kept = list(base.beliefs) + list(base._messages.values())
        kept += [marginal for marginal in base._marginals if marginal is not None]
        assert len(base._messages) == 2 * len(base.tree.edges) > 0
        assert any(marginal is not None for marginal in base._marginals)
        with_base = entry.elements()
        entry.base_calibrated = None
        assert with_base - entry.elements() == sum(f.table.nbytes for f in kept) // 8

    def test_network_fingerprint_is_content_based(self):
        tuples = [Tuple(f"t{i}", float(10 - i), 1.0) for i in range(3)]
        factors = [Factor.bernoulli(t.tid, 0.5) for t in tuples]
        a = MarkovNetworkRelation(tuples, factors)
        b = MarkovNetworkRelation(list(tuples), [f.copy() for f in factors])
        assert network_fingerprint(a) == network_fingerprint(b)
        different = MarkovNetworkRelation(
            tuples, [Factor.bernoulli(tuples[0].tid, 0.6)] + factors[1:]
        )
        assert network_fingerprint(a) != network_fingerprint(different)


class TestMixedModelBatches:
    def make_mixed(self, rng: np.random.Generator):
        mixed: list = []
        for index in range(4):
            n = int(rng.integers(2, 20))
            mixed.append(
                ProbabilisticRelation.from_arrays(
                    rng.uniform(0.0, 100.0, size=n),
                    rng.uniform(0.0, 1.0, size=n),
                    name=f"rel-{index}",
                )
            )
        mixed.append(random_tree(rng, n=12))
        mixed.append(random_network(rng, n=5))
        mixed.append(random_tree(rng, n=8))
        rng.shuffle(mixed)
        return mixed

    def reference(self, data, rf):
        if isinstance(data, ProbabilisticRelation):
            return rank_independent(data, rf)
        if isinstance(data, AndXorTree):
            return rank_tree(data, rf)
        return rank_markov_network(data, rf)

    @pytest.mark.parametrize(
        "rf",
        [
            pytest.param(PRFe(0.95), id="PRFe"),
            pytest.param(PRFOmega(StepWeight(5)), id="PRFomega"),
            pytest.param(PRF(NDCGDiscountWeight()), id="PRF-general"),
        ],
    )
    def test_mixed_batch_matches_legacy_per_model(self, rf):
        rng = np.random.default_rng(307)
        mixed = self.make_mixed(rng)
        results = Engine().rank_batch(mixed, rf)
        assert len(results) == len(mixed)
        for data, result in zip(mixed, results):
            assert_bitwise_equal(result, self.reference(data, rf), context=type(data).__name__)

    def test_mixed_batch_preserves_input_order(self):
        rng = np.random.default_rng(311)
        mixed = self.make_mixed(rng)
        results = Engine().rank_batch(mixed, PRFe(0.9))
        expected_sizes = [len(data) for data in mixed]
        assert [len(result) for result in results] == expected_sizes

    def test_warm_mixed_batch_is_bitwise_stable(self):
        rng = np.random.default_rng(313)
        mixed = self.make_mixed(rng)
        engine = Engine()
        first = engine.rank_batch(mixed, PRFe(0.9))
        second = engine.rank_batch(mixed, PRFe(0.9))
        for a, b in zip(first, second):
            assert_bitwise_equal(a, b)
        stats = engine.cache_stats()
        assert stats["hits"] >= len(mixed)

    def test_rejects_unknown_batch_items(self):
        with pytest.raises(TypeError, match="ProbabilisticRelation"):
            Engine().rank_batch([object()], PRFe(0.9))


class TestPlanner:
    def test_plan_picks_model_and_algorithm(self):
        engine = Engine()
        relation = ProbabilisticRelation.from_pairs([(3.0, 0.5), (2.0, 0.6)])
        tree = syn_xor(6, rng=3)
        network = random_network(np.random.default_rng(3), n=3)
        assert engine.plan(relation, PRFe(0.9)).model == "independent"
        assert "Algorithm 3" in engine.plan(tree, PRFe(0.9)).algorithm
        assert "generating-function" in engine.plan(tree, PRF(NDCGDiscountWeight())).algorithm
        assert engine.plan(network, PRFe(0.9)).model == "markov"

    def test_backend_for_rejects_unknown_types(self):
        with pytest.raises(TypeError, match="AndXorTree"):
            Engine().backend_for(42)

    def test_dataset_fingerprint_dispatch(self):
        relation = ProbabilisticRelation.from_pairs([(3.0, 0.5)])
        tree = syn_xor(4, rng=5)
        network = random_network(np.random.default_rng(5), n=3)
        fingerprints = {dataset_fingerprint(d) for d in (relation, tree, network)}
        assert len(fingerprints) == 3
        with pytest.raises(TypeError):
            dataset_fingerprint("nope")

    def test_sorted_tuples_and_marginals_all_models(self):
        engine = Engine()
        tree = syn_xor(8, rng=7)
        assert [t.tid for t in engine.sorted_tuples(tree)] == [
            t.tid for t in tree.sorted_tuples()
        ]
        marginals = engine.marginal_probabilities(tree)
        assert marginals == pytest.approx(tree.marginal_probabilities())
        relation = ProbabilisticRelation.from_pairs([(3.0, 0.5), (2.0, 0.6)])
        assert engine.marginal_probabilities(relation) == {
            t.tid: t.probability for t in relation
        }

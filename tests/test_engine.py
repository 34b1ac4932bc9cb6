"""Tests for the batched vectorized ranking engine.

The core contract: every engine entry point (``rank``, ``rank_batch``,
``rank_many``) must produce the same ranking as a relation ranked alone
(:func:`repro.algorithms.independent.rank_independent`, a fresh engine's
``rank``) for every member of the PRF family, and that ranking agrees
with the possible-worlds oracle.
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
    rank,
)
from repro.algorithms.independent import positional_probabilities, rank_independent
from repro.core.columnar import ColumnarRelation
from repro.core.weights import NDCGDiscountWeight, StepWeight
from repro.datasets import syn_xor
from repro.engine import RelationCache, relation_fingerprint
from repro.graphical import MarkovChainRelation
from tests.conftest import assert_matches_oracle


def make_relations(
    count: int, rng: np.random.Generator, largest: int = 40
) -> list[ProbabilisticRelation]:
    """Synthetic relations of mixed sizes below ``largest``, with degenerate cases."""
    relations = []
    for index in range(count):
        n = int(rng.integers(2, largest))
        relations.append(
            ProbabilisticRelation.from_arrays(
                rng.uniform(0.0, 1000.0, size=n),
                rng.uniform(0.0, 1.0, size=n),
                name=f"syn-{index}",
            )
        )
    relations.append(ProbabilisticRelation([], name="empty"))
    relations.append(
        ProbabilisticRelation.from_pairs([(5.0, 0.0), (4.0, 1.0), (3.0, 0.0)], name="degenerate")
    )
    return relations


FAMILY = [
    pytest.param(PRFe(0.95), id="PRFe-real"),
    pytest.param(PRFe(0.5 + 0.25j), id="PRFe-complex"),
    pytest.param(PRFe(0.0), id="PRFe-zero"),
    pytest.param(PRFOmega(StepWeight(10)), id="PRFomega-step"),
    pytest.param(PRFOmega([0.9, 0.5, 0.25, 0.1]), id="PRFomega-tabulated"),
    pytest.param(PRF(NDCGDiscountWeight()), id="PRF-general"),
    pytest.param(
        PRF(NDCGDiscountWeight(), tuple_factor=lambda t: t.score),
        id="PRF-tuple-factor",
    ),
    pytest.param(
        LinearCombinationPRFe([0.6, 0.4j], [0.9, 0.4 + 0.1j]), id="LinearCombinationPRFe"
    ),
]


def assert_same_ranking(result, reference, context=""):
    assert result.tids() == reference.tids(), context
    values = np.asarray([item.value for item in result], dtype=complex)
    expected = np.asarray([item.value for item in reference], dtype=complex)
    assert np.allclose(values, expected, rtol=1e-9, atol=1e-12), context


class TestBatchVersusSingle:
    @pytest.mark.parametrize("rf", FAMILY)
    def test_rank_batch_matches_rank_independent(self, rf):
        rng = np.random.default_rng(7)
        relations = make_relations(100, rng)
        engine = Engine()
        results = engine.rank_batch(relations, rf)
        assert len(results) == len(relations)
        for relation, result in zip(relations, results):
            reference = rank_independent(relation, rf)
            assert_same_ranking(result, reference, context=relation.name)
            assert result.name == relation.name

    @pytest.mark.parametrize("rf", FAMILY)
    def test_engine_rank_matches_rank_independent(self, rf):
        # rank_independent is a fresh engine's rank, so both sides are one
        # path; the possible-worlds oracle is what holds them to the paper.
        rng = np.random.default_rng(11)
        for relation in make_relations(10, rng, largest=11):
            result = Engine().rank(relation, rf)
            assert_same_ranking(result, rank_independent(relation, rf), relation.name)
            assert_matches_oracle(result, relation, rf, context=relation.name)

    def test_prfe_real_path_is_bitwise_identical(self):
        rng = np.random.default_rng(3)
        relations = make_relations(20, rng)
        engine = Engine()
        for relation, result in zip(relations, engine.rank_batch(relations, PRFe(0.95))):
            reference = rank_independent(relation, PRFe(0.95))
            assert [item.value for item in result] == [item.value for item in reference]

    def test_batch_results_preserve_input_order_across_mixed_sizes(self):
        rng = np.random.default_rng(5)
        relations = make_relations(30, rng)
        engine = Engine()
        results = engine.rank_batch(relations, PRFe(0.9))
        assert [result.name for result in results] == [r.name for r in relations]

    def test_batch_results_carry_the_callers_tuples(self):
        from repro import Tuple

        def make(j):
            return ProbabilisticRelation(
                [
                    Tuple(f"t{i}", float(10 - i), (j + 1) / 10, attributes={"payload": i})
                    for i in range(6)
                ],
                name=f"attr-{j}",
            )

        engine = Engine()
        relations = [make(j) for j in range(8)]
        engine.rank_batch(relations, PRFe(0.9))
        # A content-equal but distinct twin of relations[0] is served from
        # its warm cache entry, which rebinds the entry to the twin's tuples.
        twin = make(0)
        batch = relations[1:] + [twin]
        results = engine.rank_batch(batch, PRFe(0.9))
        assert engine.cache_stats()["hits"] == len(batch)
        for relation, result in zip(batch, results):
            assert len(result) == len(relation)
            for item in result:
                assert item.item is relation.get(item.tid)
                assert item.item.attributes == {"payload": int(item.tid[1:])}

    @pytest.mark.parametrize("store", [True, False])
    def test_twin_pair_in_one_batch_keeps_each_callers_tuples(self, store):
        from repro import Tuple

        def make():
            return ProbabilisticRelation(
                [Tuple(f"t{i}", float(10 - i), 0.1 * (i + 1)) for i in range(6)],
                name="twin",
            )

        first, second = make(), make()
        engine = Engine()
        if not store:
            # Warm the shared entry so both twins hit it despite store=False.
            engine.rank(make(), PRFe(0.9))
        results = engine.backend_for(first).rank_batch(
            [first, second], PRFe(0.9), store=store
        )
        for relation, result in zip((first, second), results):
            assert len(result) == len(relation)
            for item in result:
                assert item.item is relation.get(item.tid)

    def test_columnar_twin_pair_in_one_batch_keeps_each_callers_columns(self):
        rng = np.random.default_rng(17)
        scores, probabilities = rng.uniform(0, 100, 30), rng.uniform(0, 1, 30)
        first = ColumnarRelation(scores, probabilities, name="twin")
        second = ColumnarRelation(scores.copy(), probabilities.copy(), name="twin")
        results = Engine().rank_batch([first, second], PRFe(0.9))
        assert results[0].relation is first
        assert results[1].relation is second
        assert results[0].tids() == results[1].tids()

    def test_empty_batch(self):
        assert Engine().rank_batch([], PRFe(0.9)) == []

    def test_rejects_non_relations(self):
        with pytest.raises(TypeError, match="ProbabilisticRelation"):
            Engine().rank_batch([object()], PRFe(0.9))


class TestRankMany:
    def test_rank_many_matches_per_spec_ranking(self):
        rng = np.random.default_rng(13)
        relation = make_relations(1, rng)[0]
        specs = [
            PRFe(0.99),
            PRFe(0.5),
            PRFe(0.0),
            PRFe(0.3 + 0.4j),
            PRFOmega(StepWeight(5)),
            PRF(NDCGDiscountWeight()),
            LinearCombinationPRFe([1.0], [0.8]),
        ]
        results = Engine().rank_many(relation, specs)
        assert len(results) == len(specs)
        for spec, result in zip(specs, results):
            assert_same_ranking(result, rank_independent(relation, spec), repr(spec))

    def test_alpha_sweep_is_bitwise_identical_to_legacy(self):
        rng = np.random.default_rng(17)
        relation = make_relations(1, rng)[0]
        alphas = 1.0 - 0.9 ** np.arange(1, 30)
        specs = [PRFe(float(alpha)) for alpha in alphas]
        results = Engine().rank_many(relation, specs)
        for spec, result in zip(specs, results):
            reference = rank_independent(relation, spec)
            assert [item.value for item in result] == [item.value for item in reference]

    def test_empty_spec_list(self):
        relation = ProbabilisticRelation.from_pairs([(1.0, 0.5)])
        assert Engine().rank_many(relation, []) == []


class TestCache:
    def test_dropped_engine_is_freed_without_the_cycle_collector(self):
        """Backends do not refer back to their engine.

        An engine in a reference cycle (and every matrix it caches) stays
        allocated after its last reference goes, until a full cyclic
        garbage collection happens to run.
        """
        from repro.datasets import syn_xor
        from repro.graphical import MarkovNetworkRelation

        rng = np.random.default_rng(7)
        relation = make_relations(1, rng)[0]
        datasets = [
            relation,
            relation.to_columnar(),
            syn_xor(12, rng),
            MarkovNetworkRelation.from_independent(relation),
        ]
        engine = Engine()
        for data in datasets:
            engine.rank(data, PRFe(0.9))
            engine.rank_top_k(data, PRFe(0.9), 2)
        freed = weakref.ref(engine)
        gc.disable()
        try:
            del engine
            assert freed() is None
        finally:
            gc.enable()

    def test_fingerprint_is_content_based(self):
        pairs = [(3.0, 0.5), (2.0, 0.6)]
        a = ProbabilisticRelation.from_pairs(pairs)
        b = ProbabilisticRelation.from_pairs(pairs)
        assert a is not b
        assert relation_fingerprint(a) == relation_fingerprint(b)
        c = ProbabilisticRelation.from_pairs([(3.0, 0.5), (2.0, 0.7)])
        assert relation_fingerprint(a) != relation_fingerprint(c)

    def test_fingerprint_distinguishes_tuple_attributes(self):
        from repro import Tuple

        base = [("a", 10.0, 0.5), ("b", 5.0, 0.4)]
        plain = ProbabilisticRelation([Tuple(*spec) for spec in base])
        weighted = ProbabilisticRelation(
            [Tuple(tid, score, p, attributes={"w": 50.0}) for tid, score, p in base]
        )
        assert relation_fingerprint(plain) != relation_fingerprint(weighted)
        # The default-engine routed rank() must therefore never serve one
        # relation's tuples (and tuple_factor inputs) for the other.
        rf = PRF([1.0, 0.5], tuple_factor=lambda t: t.attributes.get("w", 1.0))
        engine = Engine()
        engine.rank(plain, rf)
        result = engine.rank(weighted, rf)
        reference = rank_independent(weighted, rf)
        assert result.tids() == reference.tids()
        assert [item.value for item in result] == pytest.approx(
            [item.value for item in reference]
        )

    def test_repeated_rankings_hit_the_cache(self):
        engine = Engine()
        relation = ProbabilisticRelation.from_pairs([(3.0, 0.5), (2.0, 0.6), (1.0, 0.4)])
        engine.rank(relation, PRFOmega(StepWeight(2)))
        engine.rank(relation, PRFOmega(StepWeight(2)))
        stats = engine.cache_stats()
        assert stats["hits"] >= 1
        assert stats["misses"] == 1

    def test_results_carry_the_callers_tuple_objects(self):
        pairs = [(3.0, 0.5), (2.0, 0.6)]
        engine = Engine()
        first = ProbabilisticRelation.from_pairs(pairs)
        second = ProbabilisticRelation.from_pairs(pairs)
        engine.rank(first, PRFOmega(StepWeight(2)))
        # A cache hit from a content-equal but distinct relation must not
        # alias the first relation's Tuple objects into the result.
        result = engine.rank(second, PRFOmega(StepWeight(2)))
        assert all(item.item is second.get(item.tid) for item in result)
        ordered, _ = engine.positional_matrix(second, max_rank=2)
        assert all(t is second.get(t.tid) for t in ordered)

    def test_lru_eviction_bounds_entries(self):
        cache = RelationCache(max_relations=4)
        rng = np.random.default_rng(23)
        for relation in make_relations(10, rng):
            cache.get(relation)
        assert len(cache) <= 4
        assert cache.stats.evictions > 0

    def test_element_budget_evicts_matrices(self):
        engine = Engine(cache_elements=500)
        rng = np.random.default_rng(29)
        relations = [
            ProbabilisticRelation.from_arrays(
                rng.uniform(0, 100, 30), rng.uniform(0, 1, 30), name=f"big-{i}"
            )
            for i in range(5)
        ]
        for relation in relations:
            engine.positional_matrix(relation)
        assert engine.cache.total_elements() <= 500 or len(engine.cache) == 1

    def test_positional_matrix_matches_algorithm(self):
        engine = Engine()
        rng = np.random.default_rng(31)
        relation = make_relations(1, rng)[0]
        for max_rank in (None, 0, 3, len(relation), len(relation) + 10):
            ordered, matrix = engine.positional_matrix(relation, max_rank=max_rank)
            ref_ordered, ref_matrix = positional_probabilities(relation, max_rank=max_rank)
            assert [t.tid for t in ordered] == [t.tid for t in ref_ordered]
            assert np.array_equal(matrix, ref_matrix)

    def test_positional_matrix_narrowing_after_widening(self):
        engine = Engine()
        relation = ProbabilisticRelation.from_pairs(
            [(9.0, 0.9), (8.0, 0.8), (7.0, 0.7), (6.0, 0.6)]
        )
        _, wide = engine.positional_matrix(relation)
        _, narrow = engine.positional_matrix(relation, max_rank=2)
        assert np.array_equal(wide[:, :2], narrow)

    @pytest.mark.parametrize("model", ["independent", "andxor", "markov"])
    def test_running_extras_count_equals_a_fresh_recount(self, model):
        rng = np.random.default_rng(41)
        data = {
            "independent": lambda: ProbabilisticRelation.from_arrays(
                rng.uniform(0, 100, 300), rng.uniform(0, 1, 300)
            ),
            "andxor": lambda: syn_xor(300, rng),
            "markov": lambda: MarkovChainRelation.homogeneous(
                [Tuple(f"m{i}", float(s), 1.0) for i, s in enumerate(rng.permutation(300)[:100])],
                0.6, 0.7, 0.8,
            ).to_markov_network(),
        }[model]()
        engine = Engine()
        entry = engine.cache.entry_for(data)

        def fresh_elements():
            fixed = [getattr(entry, name, None) for name in
                     ("order", "scores", "probabilities", "prefix", "positional")]
            total = sum(array.nbytes for array in fixed if array is not None)
            for value in dict.values(entry.extras):
                parts = value if isinstance(value, tuple) else (value,)
                total += sum(part.nbytes for part in parts if isinstance(part, np.ndarray))
            extra = [getattr(entry, name, None) for name in ("layout", "base_calibrated")]
            return total // 8 + sum(part.nbytes // 8 for part in extra if part is not None)

        # Memo stores through every path: top-k prefixes (before a network's
        # positional matrix short-cuts them), values, tid strings.
        for alpha in (0.2, 0.5, 0.7):
            engine.rank_top_k(data, PRFe(alpha), 3)
        engine.rank_many(data, [PRFe(alpha) for alpha in (0.3, 0.6, 0.9)])
        assert entry.extras and entry.elements() == fresh_elements()
        # Overwrites of one key, growing, shrinking and changing shape.
        key = ("probe", 1.0)
        for value in (np.zeros(7), np.zeros(3, dtype=complex), (np.zeros(11), 5, 0.5), "tag"):
            entry.extras[key] = value
            assert entry.elements() == fresh_elements()
        del entry.extras[key]
        assert entry.elements() == fresh_elements()
        with pytest.raises(TypeError):
            entry.extras.pop(("prfe", 0.3), None)
        entry.shed()
        assert entry.extras.nbytes == 0 and entry.elements() == fresh_elements()

    @pytest.mark.parametrize("path", ["rank", "rank_batch", "rank_many", "positional_matrix"])
    def test_cached_prefix_is_read_only(self, path):
        rng = np.random.default_rng(37)
        relations = [
            ColumnarRelation(rng.uniform(0, 100, 200), rng.uniform(0.5, 1.0, 200), name=name)
            for name in ("read-only", "other")
        ]
        relation = relations[0]
        rf = PRFOmega(StepWeight(20))
        cold = [(item.tid, item.value) for item in Engine().rank(relation, rf)]
        engine = Engine()
        fill = {
            "rank": lambda: engine.rank(relation, rf),
            "rank_batch": lambda: engine.rank_batch(relations, rf),
            "rank_many": lambda: engine.rank_many(relation, [rf]),
            "positional_matrix": lambda: engine.positional_matrix(relation, max_rank=20),
        }
        fill[path]()
        entry = engine.cache.entry_for(relation)
        with pytest.raises(ValueError, match="read-only"):
            entry.prefix[0, 0] = 2.0
        for _ in range(2):
            assert [(item.tid, item.value) for item in engine.rank(relation, rf)] == cold
        assert engine.rank(relation, rf).tids() == rank_independent(relation, rf).tids()


class TestDefaultEngineRouting:
    def test_core_rank_routes_through_engine(self):
        from repro.engine import default_engine

        relation = ProbabilisticRelation.from_pairs([(3.0, 0.5), (2.0, 0.6), (1.0, 0.4)])
        engine = default_engine()
        before = engine.cache_stats()["misses"] + engine.cache_stats()["hits"]
        result = rank(relation, PRFOmega(StepWeight(2)))
        after = engine.cache_stats()["misses"] + engine.cache_stats()["hits"]
        assert after > before
        assert result.tids() == rank_independent(relation, PRFOmega(StepWeight(2))).tids()

    def test_set_default_engine_roundtrip(self):
        from repro.engine import default_engine, set_default_engine

        custom = Engine(cache_relations=2)
        previous = set_default_engine(custom)
        try:
            assert default_engine() is custom
        finally:
            set_default_engine(previous)


class TestServiceHooks:
    """The engine hooks added for the async ranking service."""

    def test_submit_batch_is_nonblocking_and_matches_rank_batch(self):
        rng = np.random.default_rng(23)
        relations = make_relations(12, rng)
        engine = Engine()
        try:
            future = engine.submit_batch(relations, PRFe(0.95))
            background = future.result(timeout=30)
        finally:
            engine.close()
        foreground = Engine().rank_batch(relations, PRFe(0.95))
        for a, b in zip(background, foreground):
            assert a.tids() == b.tids()
            assert [item.value for item in a] == [item.value for item in b]

    def test_plan_batch_tags_each_dataset(self):
        rng = np.random.default_rng(29)
        relations = make_relations(3, rng)
        plans = Engine().plan_batch(relations, PRFe(0.9))
        assert [plan.model for plan in plans] == ["independent"] * len(relations)
        assert all("prfe" in plan.algorithm for plan in plans)

    def test_cache_info_reports_occupancy_and_budgets(self):
        engine = Engine(cache_relations=4, cache_elements=1000)
        relation = ProbabilisticRelation.from_pairs([(3.0, 0.5), (2.0, 0.6)])
        engine.rank(relation, PRFOmega(StepWeight(2)))
        info = engine.cache_info()
        assert info["entries"] == 1
        assert info["elements"] > 0
        assert info["max_relations"] == 4
        assert info["max_elements"] == 1000
        assert info["misses"] >= 1
        assert 0.0 <= info["hit_rate"] <= 1.0

    def test_close_is_idempotent_and_engine_stays_usable(self):
        engine = Engine()
        relation = ProbabilisticRelation.from_pairs([(3.0, 0.5), (2.0, 0.6)])
        engine.close()
        engine.close()
        future = engine.submit_batch([relation], PRFe(0.9))
        assert future.result(timeout=30)[0].tids()
        engine.close()

    def test_context_manager_closes_executor(self):
        relation = ProbabilisticRelation.from_pairs([(3.0, 0.5), (2.0, 0.6)])
        with Engine() as engine:
            future = engine.submit_batch([relation], PRFe(0.9))
            assert len(future.result(timeout=30)) == 1
        assert engine._submit_executor is None

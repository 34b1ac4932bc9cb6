"""Tests for the columnar data plane (``ColumnarRelation`` and friends).

The core contract: a :class:`~repro.core.columnar.ColumnarRelation` is
indistinguishable from the tuple-backed
:class:`~repro.core.tuples.ProbabilisticRelation` it mirrors — same
fingerprints (so both hit the same engine cache entries), bit-identical
``rank`` / ``rank_top_k`` output for every member of the PRF family, and
unchanged dispatch for the correlated (and/xor, Markov) models.
"""

from __future__ import annotations

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
    rank,
)
from repro.andxor.tree import AndXorTree
from repro.core.columnar import ColumnarRelation
from repro.core.result import ColumnarRankingResult, RankingResult
from repro.core.weights import NDCGDiscountWeight, StepWeight
from repro.datasets import (
    generate_independent,
    load_columnar,
    load_relation_csv,
    save_columnar,
    save_relation_csv,
)
from repro.engine.cache import dataset_fingerprint, relation_fingerprint
from repro.graphical import MarkovNetworkRelation

FAMILY = [
    pytest.param(PRFe(0.95), id="PRFe-real"),
    pytest.param(PRFe(0.5 + 0.25j), id="PRFe-complex"),
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


def make_pair(n, rng, name="pair"):
    """The same relation in tuple and columnar form."""
    scores = rng.uniform(0.0, 1000.0, size=n)
    probabilities = rng.uniform(0.0, 1.0, size=n)
    tuple_form = ProbabilisticRelation.from_arrays(scores, probabilities, name=name)
    columnar_form = ColumnarRelation(scores, probabilities, name=name)
    return tuple_form, columnar_form


def assert_same_result(a: RankingResult, b: RankingResult) -> None:
    """Bit-identical rankings: same order, same tids, same complex values."""
    assert a.tids() == b.tids()
    va, vb = a.values(), b.values()
    assert va.keys() == vb.keys()
    for tid in va:
        assert va[tid] == vb[tid]


class TestConstruction:
    def test_adopts_contiguous_float64_without_copy(self):
        scores = np.ascontiguousarray([3.0, 2.0, 1.0])
        probabilities = np.ascontiguousarray([0.5, 0.5, 0.5])
        relation = ColumnarRelation(scores, probabilities)
        assert relation.scores() is scores
        assert relation.probabilities() is probabilities

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ColumnarRelation([1.0, 2.0], [0.5])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError):
            ColumnarRelation([np.inf], [0.5])

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(ValueError):
            ColumnarRelation([1.0], [1.5])

    def test_probability_tolerance_clamps_like_tuple(self):
        relation = ColumnarRelation([1.0], [1.0 + 1e-10])
        assert relation.probabilities()[0] == 1.0
        assert relation[0].probability == Tuple("t1", 1.0, 1.0 + 1e-10).probability

    def test_duplicate_tids_rejected(self):
        with pytest.raises(ValueError):
            ColumnarRelation([1.0, 2.0], [0.5, 0.5], tids=["a", "a"])

    def test_tid_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ColumnarRelation([1.0, 2.0], [0.5, 0.5], tids=["a"])


class TestTupleCompatibility:
    def test_iteration_matches_tuple_relation(self, rng):
        tuple_form, columnar_form = make_pair(17, rng)
        assert len(columnar_form) == len(tuple_form)
        for a, b in zip(columnar_form, tuple_form):
            assert a == b

    def test_indexing_contains_get(self, rng):
        _, columnar_form = make_pair(9, rng)
        assert columnar_form[3].tid == "t4"
        assert "t4" in columnar_form
        assert "missing" not in columnar_form
        assert columnar_form.get("t4") == columnar_form[3]
        with pytest.raises(KeyError):
            columnar_form.get("missing")

    def test_sorted_by_score_matches(self, rng):
        tuple_form, columnar_form = make_pair(25, rng)
        assert columnar_form.sorted_by_score() == tuple_form.sorted_by_score()
        assert columnar_form.score_rank_index() == tuple_form.score_rank_index()

    def test_sorted_by_score_breaks_ties_by_position(self):
        relation = ColumnarRelation([5.0, 7.0, 5.0], [0.1, 0.2, 0.3])
        assert [t.tid for t in relation.sorted_by_score()] == ["t2", "t1", "t3"]

    def test_order_permutation_consistent_with_sorted_columns(self, rng):
        _, columnar_form = make_pair(31, rng)
        order = columnar_form.order()
        assert np.array_equal(columnar_form.sorted_scores(), columnar_form.scores()[order])
        assert np.array_equal(
            columnar_form.sorted_probabilities(), columnar_form.probabilities()[order]
        )

    def test_implicit_tids_match_from_arrays(self, rng):
        tuple_form, columnar_form = make_pair(7, rng)
        assert columnar_form.has_implicit_tids
        assert columnar_form.tid_values() == [t.tid for t in tuple_form]
        assert columnar_form.tid_of(0) == "t1"

    def test_subset(self, rng):
        _, columnar_form = make_pair(10, rng)
        sub = columnar_form.subset(["t2", "t5"])
        assert isinstance(sub, ColumnarRelation)
        assert sub.tid_values() == ["t2", "t5"]
        assert sub.scores()[0] == columnar_form.scores()[1]


class TestShims:
    def test_round_trip_through_columnar(self, rng):
        tuple_form, _ = make_pair(12, rng, name="shim")
        columnar_form = tuple_form.to_columnar()
        assert isinstance(columnar_form, ColumnarRelation)
        back = ProbabilisticRelation.from_columnar(columnar_form)
        assert isinstance(back, ProbabilisticRelation)
        assert back.name == tuple_form.name
        assert list(back) == list(tuple_form)
        assert dataset_fingerprint(back) == dataset_fingerprint(tuple_form)

    def test_to_columnar_rejects_attributes(self):
        relation = ProbabilisticRelation(
            [Tuple("t1", 1.0, 0.5, attributes={"source": "VIS"})]
        )
        with pytest.raises(ValueError):
            relation.to_columnar()

    def test_from_relation_preserves_explicit_tids(self):
        relation = ProbabilisticRelation(
            [Tuple("alpha", 2.0, 0.5), Tuple("beta", 1.0, 0.25)], name="named"
        )
        columnar_form = ColumnarRelation.from_relation(relation)
        assert not columnar_form.has_implicit_tids
        assert columnar_form.tid_values() == ["alpha", "beta"]
        assert list(columnar_form.to_relation()) == list(relation)


class TestFingerprints:
    def test_columnar_fingerprint_equals_tuple_fingerprint(self, rng):
        tuple_form, columnar_form = make_pair(40, rng)
        assert dataset_fingerprint(columnar_form) == dataset_fingerprint(tuple_form)

    def test_explicit_tids_change_fingerprint(self, rng):
        _, columnar_form = make_pair(6, rng)
        renamed = ColumnarRelation(
            columnar_form.scores(),
            columnar_form.probabilities(),
            tids=[f"x{i}" for i in range(6)],
        )
        assert dataset_fingerprint(renamed) != dataset_fingerprint(columnar_form)

    def test_content_equal_columnar_relations_share_cache_entries(self, rng):
        scores = rng.uniform(0.0, 1000.0, size=30)
        probabilities = rng.uniform(0.0, 1.0, size=30)
        first = ColumnarRelation(scores, probabilities, name="a")
        second = ColumnarRelation(scores.copy(), probabilities.copy(), name="b")
        engine = Engine()
        engine.rank(first, PRFe(0.9))
        before = engine.cache.stats.hits
        result = engine.rank(second, PRFe(0.9))
        assert engine.cache.stats.hits > before
        # The warm result refers to the caller's own relation object.
        assert result.relation is second


GOLDEN_RELATIONS = {
    "tuples": lambda: ProbabilisticRelation(
        [Tuple("a", 3.0, 0.5), Tuple("b", 1.5, 0.25), Tuple("c", 1.5, 1.0), Tuple("d", -2.0, 0.0)]
    ),
    "tuples_with_attributes": lambda: ProbabilisticRelation(
        [
            Tuple("a", 3.0, 0.5, {"source": "VIS"}),
            Tuple("b", 1.5, 0.25),
            Tuple("c", 1.5, 1.0, {"k": 1}),
            Tuple("d", -2.0, 0.0),
        ]
    ),
    "columnar_implicit_tids": lambda: ColumnarRelation(
        [0.5, -0.0, 7.25, 0.5, 1e300], [0.1, 1.0, 0.0, 0.75, 0.3]
    ),
    "columnar_int_tids": lambda: ColumnarRelation(
        [2.0, 9.0, 4.5], [0.9, 0.125, 0.5], tids=[10, 20, 30]
    ),
}

#: Digests of the relations above, pinned when tuple and columnar
#: relations still had separate fingerprint functions: service dedup and
#: TTL keys must not move.
GOLDEN_DIGESTS = {
    "tuples": "7a9e61f01e3f241774bcb68f07e0f650",
    "tuples_with_attributes": "50ff07bd85e57c3160826bc299ca668d",
    "columnar_implicit_tids": "f3b0ca8cdcad05720f02497757010ce2",
    "columnar_int_tids": "cfbef5fdab59061ebb876e450ddfde48",
}


class TestGoldenFingerprints:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_DIGESTS))
    def test_digest_is_unchanged(self, kind):
        assert relation_fingerprint(GOLDEN_RELATIONS[kind]()) == GOLDEN_DIGESTS[kind]

    def test_twins_share_one_digest(self):
        plain = GOLDEN_RELATIONS["tuples"]()
        assert relation_fingerprint(plain.to_columnar()) == GOLDEN_DIGESTS["tuples"]
        for kind in ("columnar_implicit_tids", "columnar_int_tids"):
            twin = GOLDEN_RELATIONS[kind]().to_relation()
            assert relation_fingerprint(twin) == GOLDEN_DIGESTS[kind]


class TestRankingEquivalence:
    @pytest.mark.parametrize("rf", FAMILY)
    def test_rank_bit_identical(self, rf, rng):
        tuple_form, columnar_form = make_pair(60, rng)
        assert_same_result(Engine().rank(tuple_form, rf), Engine().rank(columnar_form, rf))

    @pytest.mark.parametrize("rf", FAMILY)
    def test_rank_top_k_bit_identical(self, rf, rng):
        tuple_form, columnar_form = make_pair(60, rng)
        a, report_a = Engine().rank_top_k(tuple_form, rf, 7)
        b, report_b = Engine().rank_top_k(columnar_form, rf, 7)
        assert_same_result(a, b)
        assert report_a.k == report_b.k == 7

    def test_rank_batch_mixed_forms(self, rng):
        pairs = [make_pair(int(rng.integers(5, 30)), rng, name=f"p{i}") for i in range(6)]
        rf = PRFe(0.9)
        tuple_results = Engine().rank_batch([t for t, _ in pairs], rf)
        columnar_results = Engine().rank_batch([c for _, c in pairs], rf)
        for a, b in zip(tuple_results, columnar_results):
            assert_same_result(a, b)

    def test_degenerate_relations(self):
        rf = PRFe(0.9)
        for pairs in ([], [(5.0, 0.0), (4.0, 1.0), (3.0, 0.0)]):
            tuple_form = ProbabilisticRelation.from_pairs(pairs)
            columnar_form = ColumnarRelation(
                [score for score, _ in pairs], [p for _, p in pairs]
            )
            assert_same_result(Engine().rank(tuple_form, rf), Engine().rank(columnar_form, rf))

    def test_module_level_rank_accepts_columnar(self, rng):
        tuple_form, columnar_form = make_pair(15, rng)
        assert_same_result(rank(tuple_form, PRFe(0.8)), rank(columnar_form, PRFe(0.8)))

    def test_correlated_dispatch_unaffected(self, rng):
        """and/xor and Markov datasets still rank exactly as before."""
        tuple_form, columnar_form = make_pair(6, rng)
        tree = AndXorTree.from_independent(tuple_form)
        network = MarkovNetworkRelation.from_independent(tuple_form)
        rf = PRFOmega(StepWeight(3))
        engine = Engine()
        expected = engine.rank(columnar_form, rf).tids()
        assert engine.rank(tree, rf).tids() == expected
        assert engine.rank(network, rf).tids() == expected
        assert engine.plan(columnar_form, rf).model == "independent"
        assert engine.plan(tree, rf).model == "andxor"
        assert engine.plan(network, rf).model == "markov"


class TestColumnarResult:
    def test_result_is_columnar_backed(self, rng):
        _, columnar_form = make_pair(20, rng)
        result = Engine().rank(columnar_form, PRFe(0.9))
        assert isinstance(result, ColumnarRankingResult)

    def test_container_semantics_match_eager_result(self, rng):
        tuple_form, columnar_form = make_pair(20, rng)
        eager = Engine().rank(tuple_form, PRFe(0.9))
        lazy = Engine().rank(columnar_form, PRFe(0.9))
        assert len(lazy) == len(eager)
        assert lazy.tids() == eager.tids()
        assert lazy.top_k(5) == eager.top_k(5)
        assert [item.position for item in lazy] == [item.position for item in eager]
        assert [item.item for item in lazy] == [item.item for item in eager]
        assert lazy[3].item == eager[3].item
        for tid in lazy.tids():
            assert lazy.position_of(tid) == eager.position_of(tid)
            assert lazy.value_of(tid) == eager.value_of(tid)


class TestColumnarIO:
    def test_directory_round_trip_is_memory_mapped(self, rng, tmp_path):
        relation = generate_independent(5_000, rng=int(rng.integers(1 << 30)), columnar=True)
        directory = save_columnar(relation, tmp_path / "cols")
        loaded = load_columnar(directory)
        backing = loaded.scores() if loaded.scores().base is None else loaded.scores().base
        assert isinstance(backing, np.memmap)
        assert dataset_fingerprint(loaded) == dataset_fingerprint(relation)
        assert loaded.name == relation.name

    def test_npz_round_trip_with_explicit_tids(self, tmp_path):
        relation = ProbabilisticRelation(
            [Tuple("alpha", 9.0, 0.5), Tuple("beta", 5.0, 0.9)], name="named"
        )
        archive = save_columnar(relation, tmp_path / "rel.npz")
        loaded = load_columnar(archive)
        assert loaded.tid_values() == ["alpha", "beta"]
        assert loaded.name == "named"
        assert dataset_fingerprint(loaded) == dataset_fingerprint(relation)

    def test_save_columnar_rejects_attributes(self, tmp_path):
        relation = ProbabilisticRelation(
            [Tuple("t1", 1.0, 0.5, attributes={"source": "VIS"})]
        )
        with pytest.raises(ValueError):
            save_columnar(relation, tmp_path / "rel.npz")

    def test_csv_fast_path_returns_columnar(self, rng, tmp_path):
        relation = generate_independent(200, rng=int(rng.integers(1 << 30)))
        path = save_relation_csv(relation, tmp_path / "rel.csv")
        loaded = load_relation_csv(path)
        assert isinstance(loaded, ColumnarRelation)
        assert loaded.has_implicit_tids
        assert dataset_fingerprint(loaded) == dataset_fingerprint(relation)

    def test_csv_columnar_flag(self, rng, tmp_path):
        relation = generate_independent(50, rng=int(rng.integers(1 << 30)))
        path = save_relation_csv(relation, tmp_path / "rel.csv")
        forced_tuple = load_relation_csv(path, columnar=False)
        assert isinstance(forced_tuple, ProbabilisticRelation)
        assert dataset_fingerprint(forced_tuple) == dataset_fingerprint(relation)

    def test_csv_attributes_keep_tuple_path(self, tmp_path):
        relation = ProbabilisticRelation(
            [Tuple("t1", 1.0, 0.5, attributes={"source": "VIS"})]
        )
        path = save_relation_csv(relation, tmp_path / "rel.csv")
        loaded = load_relation_csv(path)
        assert isinstance(loaded, ProbabilisticRelation)
        assert loaded[0].attributes == {"source": "VIS"}
        with pytest.raises(ValueError):
            load_relation_csv(path, columnar=True)

    def test_ranking_memory_mapped_relation_is_bit_identical(self, rng, tmp_path):
        relation = generate_independent(
            1_000, rng=int(rng.integers(1 << 30)), columnar=True
        )
        loaded = load_columnar(save_columnar(relation, tmp_path / "cols"))
        assert_same_result(
            Engine().rank(relation, PRFe(0.95)), Engine().rank(loaded, PRFe(0.95))
        )

    def test_synthetic_columnar_matches_tuple_generator(self):
        columnar_form = generate_independent(300, rng=7, columnar=True)
        tuple_form = generate_independent(300, rng=7)
        assert isinstance(columnar_form, ColumnarRelation)
        assert dataset_fingerprint(columnar_form) == dataset_fingerprint(tuple_form)


@st.composite
def twin_inputs(draw):
    """``(pairs, tids, k)`` for a tuple/columnar twin pair and a top-k cutoff.

    Scores and probabilities also come from small pools, so score ties
    and value ties (every ``p = 0`` tuple, for one) are common;
    identifiers are implicit, explicit strings or explicit ints.
    """
    n = draw(st.integers(min_value=0, max_value=20))
    score = st.one_of(
        st.sampled_from([1.0, 2.0, 3.0]),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    probability = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0]),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    pairs = draw(st.lists(st.tuples(score, probability), min_size=n, max_size=n))
    numbers = draw(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=n, max_size=n, unique=True)
    )
    tids = draw(st.sampled_from([None, [f"x{v}" for v in numbers], numbers]))
    return pairs, tids, draw(st.integers(min_value=0, max_value=n + 1))


def ranking_columns(result):
    """``(tids, positions, values)`` of a ranking, read item by item."""
    items = list(result)
    return (
        [item.tid for item in items],
        [item.position for item in items],
        np.array([item.value for item in items]),
    )


def assert_twins_rank_alike(tuple_form, columnar_form, rf, k) -> None:
    """Both forms rank alike on every engine path, through one shared engine.

    Every item of a tuple-form result is the caller's own ``Tuple``.
    """
    engine = Engine()
    specs = [rf, PRFe(0.7)]
    pairs = [
        (engine.rank(tuple_form, rf), engine.rank(columnar_form, rf)),
        tuple(engine.rank_batch([tuple_form, columnar_form], rf)),
        *zip(engine.rank_many(tuple_form, specs), engine.rank_many(columnar_form, specs)),
        *[
            (engine.rank_top_k(tuple_form, spec, k)[0], engine.rank_top_k(columnar_form, spec, k)[0])
            for spec in specs
        ],
    ]
    assert isinstance(pairs[0][0], ColumnarRankingResult)
    for from_tuples, from_columns in pairs:
        tids, positions, values = ranking_columns(from_tuples)
        expected_tids, expected_positions, expected_values = ranking_columns(from_columns)
        assert tids == expected_tids
        assert positions == expected_positions
        assert np.array_equal(values, expected_values)
        assert all(item.item is tuple_form.get(item.tid) for item in from_tuples)


@settings(max_examples=60, deadline=None)
@given(
    twin_inputs(),
    st.sampled_from(
        [
            PRFe(0.9),
            PRFOmega([1.0, 0.5, 0.25]),
            PRF(NDCGDiscountWeight()),
            PRFe(0.5 + 0.25j),
            PRF(NDCGDiscountWeight(), tuple_factor=lambda t: t.score),
        ]
    ),
)
def test_property_columnar_equals_tuple(case, rf):
    """Any score/probability mix ranks identically in both storage forms.

    The tuple form is checked with and without attributes (which never
    influence ranking) against its columnar twin on every engine path.
    """
    pairs, tids, k = case
    scores = np.asarray([score for score, _ in pairs], dtype=float)
    probabilities = np.asarray([p for _, p in pairs], dtype=float)
    columnar_form = ColumnarRelation(scores, probabilities, tids=tids)
    tuple_form = ProbabilisticRelation(
        [Tuple(tid, s, p) for tid, s, p in zip(columnar_form.tid_values(), scores, probabilities)]
    )
    assert dataset_fingerprint(tuple_form) == dataset_fingerprint(columnar_form)
    assert_same_result(Engine().rank(tuple_form, rf), Engine().rank(columnar_form, rf))
    attributed = ProbabilisticRelation(
        [Tuple(t.tid, t.score, t.probability, {"row": i}) for i, t in enumerate(tuple_form)]
    )
    for twin in (tuple_form, attributed):
        assert_twins_rank_alike(twin, columnar_form, rf, k)

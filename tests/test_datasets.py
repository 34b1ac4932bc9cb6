"""Tests for the dataset generators and the import/export round-trips."""

import numpy as np
import pytest

from repro import ProbabilisticRelation, Tuple
from repro.datasets import (
    CONFIDENCE_LEVELS,
    CONFIDENCE_PROBABILITIES,
    TreeShape,
    generate_iip_like,
    generate_independent,
    generate_random_tree,
    generate_x_tuples,
    load_relation_csv,
    load_tree_json,
    save_relation_csv,
    save_tree_json,
    syn_high,
    syn_low,
    syn_med,
    syn_xor,
)


class TestSyntheticGenerators:
    def test_independent_sizes_and_ranges(self):
        relation = generate_independent(200, rng=1)
        assert len(relation) == 200
        assert np.all(relation.probabilities() >= 0) and np.all(relation.probabilities() <= 1)
        assert np.all(relation.scores() >= 0) and np.all(relation.scores() <= 10_000)

    def test_independent_deterministic_with_seed(self):
        first = generate_independent(50, rng=3)
        second = generate_independent(50, rng=3)
        assert np.allclose(first.scores(), second.scores())

    def test_x_tuples_groups_are_exclusive(self):
        tree = generate_x_tuples(20, group_size=4, rng=2)
        assert len(tree) == 20
        assert tree.height() == 3
        # Within every xor group the marginals sum to at most one.
        from repro.andxor.tree import XorNode

        for node in tree.root.children_nodes():
            assert isinstance(node, XorNode)
            assert sum(p for p, _ in node.children) <= 1.0 + 1e-9

    def test_x_tuples_tree_equals_from_x_tuples(self):
        from repro.andxor.tree import AndXorTree
        from repro.engine import tree_fingerprint

        for n, group_size in ((1, 5), (23, 4), (200, 5)):
            tree = generate_x_tuples(n, group_size=group_size, rng=n)
            groups = [
                [leaf.item.with_probability(p) for p, leaf in node.children]
                for node in tree.root.children_nodes()
            ]
            reference = AndXorTree.from_x_tuples(groups, name=tree.name)
            assert tree_fingerprint(tree) == tree_fingerprint(reference)
            assert [
                [(p, leaf.item) for p, leaf in node.children]
                for node in tree.root.children_nodes()
            ] == [
                [(p, leaf.item) for p, leaf in node.children]
                for node in reference.root.children_nodes()
            ]

    def test_x_tuples_invalid_group_size(self):
        with pytest.raises(ValueError):
            generate_x_tuples(10, group_size=0)

    def test_random_tree_leaf_count_and_height(self):
        shape = TreeShape(height=4, max_degree=4, xor_to_and_ratio=2.0)
        tree = generate_random_tree(60, shape, rng=5)
        assert len(tree) == 60
        assert tree.height() <= shape.height + 1  # root + generated levels

    def test_random_tree_validation(self):
        with pytest.raises(ValueError):
            generate_random_tree(0, TreeShape(3, 2, 1.0))
        with pytest.raises(ValueError):
            generate_random_tree(5, TreeShape(1, 2, 1.0))

    def test_named_families(self):
        for factory in (syn_xor, syn_low, syn_med, syn_high):
            tree = factory(40, rng=7)
            assert len(tree) == 40
            worlds_probability = tree.marginal_probabilities()
            assert all(0 <= p <= 1 + 1e-9 for p in worlds_probability.values())

    def test_tree_shape_xor_probability(self):
        assert TreeShape(3, 2, float("inf")).xor_probability() == 1.0
        assert TreeShape(3, 2, 1.0).xor_probability() == pytest.approx(0.5)


class TestIcebergGenerator:
    def test_sizes_and_attributes(self):
        relation = generate_iip_like(300, rng=11)
        assert len(relation) == 300
        sample = relation[0]
        assert sample.attributes["confidence"] in CONFIDENCE_LEVELS
        assert "latitude" in sample.attributes

    def test_probabilities_follow_confidence_mapping(self):
        relation = generate_iip_like(500, rng=13, noise=0.0)
        for t in relation:
            expected = CONFIDENCE_PROBABILITIES[t.attributes["confidence"]]
            assert t.probability == pytest.approx(expected, abs=1e-9)

    def test_noise_breaks_ties(self):
        relation = generate_iip_like(200, rng=17)
        assert len(set(relation.probabilities().tolist())) > 7

    def test_scores_are_heavy_tailed_drift_days(self):
        relation = generate_iip_like(2000, rng=19)
        scores = relation.scores()
        assert scores.min() >= 0
        assert scores.max() <= 3000
        assert np.mean(scores) < np.percentile(scores, 90)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            generate_iip_like(-1)


class TestIO:
    def test_relation_csv_roundtrip(self, tmp_path):
        relation = ProbabilisticRelation(
            [
                Tuple("a", 3.5, 0.25, {"source": "VIS"}),
                Tuple("b", 1.0, 0.75, {"source": "RAD"}),
            ],
            name="demo",
        )
        path = save_relation_csv(relation, tmp_path / "relation.csv")
        loaded = load_relation_csv(path)
        assert len(loaded) == 2
        assert loaded.get("a").score == pytest.approx(3.5)
        assert loaded.get("a").probability == pytest.approx(0.25)
        assert loaded.get("b").attributes["source"] == "RAD"

    def test_relation_csv_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError):
            load_relation_csv(path)

    def test_tree_json_roundtrip(self, tmp_path, figure1_tree):
        path = save_tree_json(figure1_tree, tmp_path / "tree.json")
        loaded = load_tree_json(path)
        assert len(loaded) == len(figure1_tree)
        original = {w.tids(): w.probability for w in figure1_tree.enumerate_worlds()}
        rebuilt = {w.tids(): w.probability for w in loaded.enumerate_worlds()}
        for key, probability in original.items():
            assert rebuilt[key] == pytest.approx(probability)

    def test_tree_json_bad_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "root": {"kind": "mystery"}}')
        with pytest.raises(ValueError):
            load_tree_json(path)

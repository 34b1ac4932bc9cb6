"""Tests for Markov networks, junction trees and ranking over them (Section 9)."""

import sys

import numpy as np
import pytest

from repro import PRFOmega, PRFe, ProbabilisticRelation, Tuple, rank
from repro.core.possible_worlds import rank_distribution_by_enumeration
from repro.core.weights import StepWeight
from repro.graphical import (
    Factor,
    JunctionTree,
    MarkovChainRelation,
    MarkovNetworkRelation,
    build_junction_tree,
    min_fill_order,
    positional_probabilities_markov,
    rank_distribution_markov,
    rank_markov_network,
)


def _random_chain(rng: np.random.Generator, length: int) -> MarkovChainRelation:
    scores = rng.permutation(np.arange(1, length + 1)).astype(float)
    tuples = [Tuple(f"y{i}", float(scores[i]), 1.0) for i in range(length)]
    transitions = []
    for _ in range(length - 1):
        stay_absent = rng.uniform(0.2, 0.9)
        stay_present = rng.uniform(0.2, 0.9)
        transitions.append(
            np.array([[stay_absent, 1 - stay_absent], [1 - stay_present, stay_present]])
        )
    return MarkovChainRelation(tuples, float(rng.uniform(0.2, 0.8)), transitions)


def _loopy_network(rng: np.random.Generator, length: int = 5) -> MarkovNetworkRelation:
    """A cycle of pairwise factors (requires triangulation)."""
    scores = rng.permutation(np.arange(1, length + 1)).astype(float)
    tuples = [Tuple(f"v{i}", float(scores[i]), 1.0) for i in range(length)]
    factors = []
    for i in range(length):
        j = (i + 1) % length
        table = rng.uniform(0.1, 1.0, size=(2, 2))
        factors.append(Factor((f"v{i}", f"v{j}"), table))
    return MarkovNetworkRelation(tuples, factors)


class TestModelValidation:
    def test_factor_over_unknown_variable_rejected(self):
        tuples = [Tuple("a", 1.0, 1.0)]
        with pytest.raises(ValueError):
            MarkovNetworkRelation(tuples, [Factor(("b",), [0.5, 0.5])])

    def test_uncovered_tuple_rejected(self):
        tuples = [Tuple("a", 1.0, 1.0), Tuple("b", 2.0, 1.0)]
        with pytest.raises(ValueError):
            MarkovNetworkRelation(tuples, [Factor(("a",), [0.5, 0.5])])

    def test_duplicate_ids_rejected(self):
        tuples = [Tuple("a", 1.0, 1.0), Tuple("a", 2.0, 1.0)]
        with pytest.raises(ValueError):
            MarkovNetworkRelation(tuples, [Factor(("a",), [0.5, 0.5])])

    def test_from_independent_marginals(self):
        relation = ProbabilisticRelation.from_pairs([(3, 0.3), (2, 0.7)])
        network = MarkovNetworkRelation.from_independent(relation)
        marginals = network.marginal_probabilities_bruteforce()
        assert marginals["t1"] == pytest.approx(0.3)
        assert marginals["t2"] == pytest.approx(0.7)

    def test_enumeration_guard(self, rng):
        tuples = [Tuple(f"x{i}", float(i), 1.0) for i in range(25)]
        factors = [Factor((t.tid,), [0.5, 0.5]) for t in tuples]
        network = MarkovNetworkRelation(tuples, factors)
        with pytest.raises(ValueError):
            network.enumerate_worlds()


class TestJunctionTree:
    def test_min_fill_covers_all_variables(self):
        adjacency = {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}}
        order, cliques = min_fill_order(adjacency)
        assert set(order) == {"a", "b", "c"}
        assert any({"a", "b"} <= clique for clique in cliques)

    def test_chain_treewidth_is_one(self, rng):
        chain = _random_chain(rng, 6)
        network = chain.to_markov_network()
        tree = build_junction_tree(network.variables(), network.factors)
        assert tree.treewidth() == 1

    def test_cycle_treewidth_is_two(self, rng):
        network = _loopy_network(rng, 5)
        tree = build_junction_tree(network.variables(), network.factors)
        assert tree.treewidth() == 2

    def test_calibration_marginals_match_bruteforce(self, rng):
        for _ in range(3):
            network = _loopy_network(rng, 5)
            tree = build_junction_tree(network.variables(), network.factors)
            calibrated = tree.calibrate()
            exact = network.marginal_probabilities_bruteforce()
            for variable in network.variables():
                assert calibrated.variable_marginal(variable) == pytest.approx(
                    exact[variable], abs=1e-9
                )

    def test_calibration_with_evidence(self, rng):
        chain = _random_chain(rng, 5)
        network = chain.to_markov_network()
        tree = build_junction_tree(network.variables(), network.factors)
        target = network.variables()[2]
        calibrated = tree.calibrate(evidence={target: 1})
        assert calibrated.variable_marginal(target) == pytest.approx(1.0)

    def test_unknown_evidence_variable(self, rng):
        chain = _random_chain(rng, 4)
        network = chain.to_markov_network()
        tree = build_junction_tree(network.variables(), network.factors)
        with pytest.raises(KeyError):
            tree.calibrate(evidence={"bogus": 1})

    def test_cyclic_edges_rejected(self):
        cliques = [frozenset("ab"), frozenset("bc"), frozenset("ac")]
        with pytest.raises(ValueError):
            JunctionTree(cliques, [(0, 1), (1, 2), (2, 0)], [], ["a", "b", "c"])

    def test_disconnected_components(self):
        tuples = [Tuple("a", 2.0, 1.0), Tuple("b", 1.0, 1.0)]
        factors = [Factor(("a",), [0.4, 0.6]), Factor(("b",), [0.3, 0.7])]
        network = MarkovNetworkRelation(tuples, factors)
        tree = build_junction_tree(network.variables(), network.factors)
        assert len(tree.components()) == 2
        calibrated = tree.calibrate()
        assert calibrated.variable_marginal("a") == pytest.approx(0.6)
        assert calibrated.variable_marginal("b") == pytest.approx(0.7)


def _forest_network(rng: np.random.Generator) -> MarkovNetworkRelation:
    """Four components: a chain, a 4-cycle, and tuples of probability 0 and 1."""
    names = ["a", "b", "c", "d", "e", "f", "g", "h", "i"]
    tuples = [Tuple(v, float(score), 1.0) for v, score in zip(names, rng.permutation(9))]
    pairs = [("a", "b"), ("b", "c"), ("d", "e"), ("e", "f"), ("f", "g"), ("g", "d")]
    factors = [Factor(pair, rng.uniform(0.1, 1.0, size=(2, 2))) for pair in pairs]
    factors += [Factor(("h",), [1.0, 0.0]), Factor(("i",), [0.0, 1.0])]
    return MarkovNetworkRelation(tuples, factors)


class TestEvidenceCalibration:
    """Evidence calibrations reuse the evidence-free messages of their tree."""

    def test_reused_messages_match_a_from_scratch_calibration(self, rng):
        network = _forest_network(rng)
        tree = build_junction_tree(network.variables(), network.factors)
        assert len(tree.components()) == 4
        base = tree.calibrate()
        for variable in network.variables():
            for value in (0, 1):
                evidence = {variable: value}
                reused = tree.calibrate(evidence=evidence)
                # The indicator factor lands in the same home clique, after
                # the clique's own factors, so a tree built for the
                # conditioned factors calibrates the same products from
                # scratch.
                fresh_tree = build_junction_tree(
                    network.variables(), network.condition_factors(evidence)
                )
                assert fresh_tree.cliques == tree.cliques
                fresh = fresh_tree.calibrate()
                for ours, theirs in zip(reused.beliefs, fresh.beliefs):
                    assert ours.variables == theirs.variables
                    assert np.array_equal(ours.table, theirs.table), evidence
                assert reused.evidence_probability() == fresh.evidence_probability()
                home = next(i for i, c in enumerate(tree.cliques) if variable in c)
                for component in tree.components():
                    if home not in component:
                        for index in component:
                            assert reused.beliefs[index] is base.beliefs[index]

    def test_zero_probability_evidence(self, rng):
        network = _forest_network(rng)
        tree = build_junction_tree(network.variables(), network.factors)
        calibrated = tree.calibrate(evidence={"h": 1})
        assert calibrated.evidence_probability() == 0.0
        assert calibrated.variable_marginal("a") == pytest.approx(
            tree.calibrate().variable_marginal("a")
        )
        assert rank_distribution_markov(network, "h").sum() == 0.0

    def test_shared_state_is_not_handed_out(self, rng):
        network = _forest_network(rng)
        tree = build_junction_tree(network.variables(), network.factors)
        calibrated = tree.calibrate()
        marginal = calibrated.clique_marginal(0)
        marginal.table[...] = 0.0
        assert calibrated.clique_marginal(0).total() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            calibrated.beliefs[0].table[...] = 0.0
        tree.components()[0].append(99)
        assert 99 not in tree.components()[0]


class TestMarkovChainRanking:
    def test_marginals_forward_propagation(self, rng):
        chain = _random_chain(rng, 6)
        network = chain.to_markov_network()
        exact = network.marginal_probabilities_bruteforce()
        marginals = chain.marginals()
        for tid, value in exact.items():
            assert marginals[tid] == pytest.approx(value, abs=1e-9)

    def test_rank_distribution_matches_enumeration(self, rng):
        for _ in range(3):
            chain = _random_chain(rng, 6)
            worlds = chain.to_markov_network().enumerate_worlds()
            for t in chain.tuples:
                exact = rank_distribution_by_enumeration(worlds, t.tid, len(chain))
                computed = chain.rank_distribution(t.tid)
                assert np.allclose(computed, exact, atol=1e-9), t.tid

    def test_rank_method(self, rng):
        chain = _random_chain(rng, 6)
        result = chain.rank(PRFe(0.9))
        assert len(result) == 6

    def test_homogeneous_constructor_validation(self):
        tuples = [Tuple("a", 1.0, 1.0), Tuple("b", 2.0, 1.0)]
        with pytest.raises(ValueError):
            MarkovChainRelation(tuples, initial=1.5, transitions=[np.eye(2)])
        with pytest.raises(ValueError):
            MarkovChainRelation(tuples, initial=0.5, transitions=[])
        with pytest.raises(ValueError):
            MarkovChainRelation(
                tuples, initial=0.5, transitions=[np.array([[0.5, 0.6], [0.5, 0.5]])]
            )

    def test_unknown_tuple(self, rng):
        chain = _random_chain(rng, 4)
        with pytest.raises(KeyError):
            chain.rank_distribution("bogus")


class TestMarkovNetworkRanking:
    def test_chain_longer_than_the_recursion_limit(self):
        """Calibration and the DP walk the tree iteratively, not recursively."""
        n = sys.getrecursionlimit() + 200
        tuples = [Tuple(f"t{i}", float(i), 1.0) for i in range(n)]
        chain = MarkovChainRelation.homogeneous(tuples, 0.6, 0.7, 0.8)
        network = chain.to_markov_network()
        tid = f"t{n - 4}"
        assert np.allclose(
            rank_distribution_markov(network, tid), chain.rank_distribution(tid), atol=1e-9
        )

    def test_chain_network_matches_chain_algorithm(self, rng):
        chain = _random_chain(rng, 6)
        network = chain.to_markov_network()
        for t in chain.tuples:
            direct = chain.rank_distribution(t.tid)
            general = rank_distribution_markov(network, t.tid)
            assert np.allclose(direct, general, atol=1e-9), t.tid

    def test_loopy_network_matches_enumeration(self, rng):
        for _ in range(2):
            network = _loopy_network(rng, 5)
            worlds = network.enumerate_worlds()
            for t in network.tuples:
                exact = rank_distribution_by_enumeration(worlds, t.tid, len(network))
                computed = rank_distribution_markov(network, t.tid)
                assert np.allclose(computed, exact, atol=1e-9), t.tid

    def test_independent_network_matches_flat_relation(self, rng):
        relation = ProbabilisticRelation.from_pairs(
            [(5, 0.3), (4, 0.8), (3, 0.5), (2, 0.6)]
        )
        network = MarkovNetworkRelation.from_independent(relation)
        for rf in (PRFe(0.8), PRFOmega(StepWeight(2))):
            assert rank(network, rf).tids() == rank(relation, rf).tids()

    def test_positional_matrix_rows_sum_to_marginals(self, rng):
        network = _loopy_network(rng, 5)
        ordered, matrix = positional_probabilities_markov(network)
        marginals = network.marginal_probabilities_bruteforce()
        for i, t in enumerate(ordered):
            assert matrix[i].sum() == pytest.approx(marginals[t.tid], abs=1e-9)

    def test_rank_markov_network_result(self, rng):
        network = _loopy_network(rng, 5)
        result = rank_markov_network(network, PRFe(0.9))
        assert len(result) == 5

    def test_unknown_tuple_rejected(self, rng):
        network = _loopy_network(rng, 4)
        with pytest.raises(KeyError):
            rank_distribution_markov(network, "bogus")

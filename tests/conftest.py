"""Shared fixtures: the paper's worked examples and small random datasets."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import AndNode, AndXorTree, LeafNode, ProbabilisticRelation, Tuple, XorNode
from repro.core.possible_worlds import enumerate_worlds, prf_by_enumeration
from repro.core.result import ColumnarRankingResult, RankingResult


@pytest.fixture
def example1_relation() -> ProbabilisticRelation:
    """Example 1 of the paper: three independent tuples, already score-sorted."""
    return ProbabilisticRelation.from_pairs([(3.0, 0.5), (2.0, 0.6), (1.0, 0.4)])


@pytest.fixture
def example7_relation() -> ProbabilisticRelation:
    """Example 7 of the paper: four independent tuples used for the PRFe curves."""
    return ProbabilisticRelation.from_pairs(
        [(100.0, 0.4), (80.0, 0.6), (50.0, 0.5), (30.0, 0.9)]
    )


@pytest.fixture
def figure1_tree() -> AndXorTree:
    """The speeding-cars database of Figure 1 as an and/xor tree.

    t2/t3 and t4/t5 are mutually exclusive; t1 exists with probability 0.4
    and t6 with probability 1.  Scores are the speeds.
    """
    t1 = Tuple("t1", 120.0, 1.0)
    t2 = Tuple("t2", 130.0, 1.0)
    t3 = Tuple("t3", 80.0, 1.0)
    t4 = Tuple("t4", 95.0, 1.0)
    t5 = Tuple("t5", 110.0, 1.0)
    t6 = Tuple("t6", 105.0, 1.0)
    return AndXorTree(
        AndNode(
            [
                XorNode([(0.4, LeafNode(t1))]),
                XorNode([(0.7, LeafNode(t2)), (0.3, LeafNode(t3))]),
                XorNode([(0.4, LeafNode(t4)), (0.6, LeafNode(t5))]),
                XorNode([(1.0, LeafNode(t6))]),
            ]
        ),
        name="figure1",
    )


@pytest.fixture
def figure2_tree() -> AndXorTree:
    """The highly correlated three-world database of Figure 2.

    Leaf identifiers are suffixed per world because the same logical tuple
    appears with different scores in different worlds.
    """
    world1 = AndNode(
        [
            LeafNode(Tuple("t3@1", 6.0, 1.0)),
            LeafNode(Tuple("t2@1", 5.0, 1.0)),
            LeafNode(Tuple("t1@1", 1.0, 1.0)),
        ]
    )
    world2 = AndNode(
        [LeafNode(Tuple("t3@2", 9.0, 1.0)), LeafNode(Tuple("t1@2", 7.0, 1.0))]
    )
    world3 = AndNode(
        [
            LeafNode(Tuple("t2@3", 8.0, 1.0)),
            LeafNode(Tuple("t4@3", 4.0, 1.0)),
            LeafNode(Tuple("t5@3", 3.0, 1.0)),
        ]
    )
    return AndXorTree(
        XorNode([(0.3, world1), (0.3, world2), (0.4, world3)]), name="figure2"
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_relation(
    n: int, rng: np.random.Generator, allow_certain: bool = True
) -> ProbabilisticRelation:
    """A random independent relation with distinct scores."""
    scores = rng.permutation(np.arange(1, n + 1)).astype(float)
    if allow_certain:
        probabilities = rng.uniform(0.0, 1.0, size=n)
    else:
        probabilities = rng.uniform(0.05, 0.95, size=n)
    return ProbabilisticRelation.from_arrays(scores, probabilities)


def random_small_tree(rng: np.random.Generator, num_leaves: int = 6) -> AndXorTree:
    """A random small and/xor tree suitable for brute-force enumeration."""
    scores = rng.permutation(np.arange(1, num_leaves + 1)).astype(float)
    leaves = [LeafNode(Tuple(f"t{i + 1}", float(scores[i]), 1.0)) for i in range(num_leaves)]
    nodes: list = list(leaves)
    counter = 0
    while len(nodes) > 1:
        take = min(len(nodes), int(rng.integers(2, 4)))
        children, nodes = nodes[:take], nodes[take:]
        if rng.random() < 0.5:
            raw = rng.uniform(0.1, 1.0, size=len(children))
            scale = rng.uniform(0.5, 1.0)
            probabilities = raw / raw.sum() * scale
            node = XorNode(list(zip(probabilities.tolist(), children)))
        else:
            node = AndNode(children)
        nodes.append(node)
        counter += 1
    return AndXorTree(nodes[0], name=f"random-tree-{counter}")


def assert_matches_oracle(result, data, rf, context=""):
    """Every value of ``result`` is within 1e-12 of its possible-worlds PRF value."""
    if isinstance(data, ProbabilisticRelation):
        worlds, tuples = enumerate_worlds(data), list(data)
    elif isinstance(data, AndXorTree):
        worlds, tuples = data.enumerate_worlds(), data.tuples()
    else:
        worlds, tuples = data.enumerate_worlds(), data.tuples
    assert len(result) == len(tuples) <= 10, context
    values = result.values()
    for t in tuples:
        exact = rf.factor(t) * prf_by_enumeration(worlds, t.tid, rf.weight)
        assert abs(values[t.tid] - exact) <= 1e-12, (context, t.tid)


def eager_ranking(result, ordered):
    """The eager ``RankingResult.from_values`` of ``result``'s values over ``ordered``.

    ``ordered`` are the dataset's tuples in score order; ``from_values``
    sorts them by its own ``(-|value|, -score, str(tid))`` key.
    """
    values = result.values()
    return RankingResult.from_values(
        ordered, [values[t.tid] for t in ordered], name=result.name
    )


def assert_lazy_equals_eager(result, reference, tuples):
    """``result`` is lazy and item-for-item the eager ``reference``, on ``tuples``."""
    assert isinstance(result, ColumnarRankingResult)
    n = len(reference)
    by_tid = {t.tid: t for t in tuples}
    expected_values = np.array([item.value for item in reference])
    # Views answered from the arrays, before any item is built.
    assert result.tids() == reference.tids()
    assert result.top_k(3) == reference.top_k(3)
    assert np.array_equal(result.values_array(), expected_values)
    assert result.values() == reference.values()
    for item in reference:
        assert result.value_of(item.tid) == item.value
        assert result.position_of(item.tid) == item.position
    # Indexing and slicing, before any iteration.
    for index in {0, n // 2, n - 1, -1}:
        assert ranked_item(result[index]) == ranked_item(reference[index])
    assert [ranked_item(item) for item in result[1:4]] == [ranked_item(i) for i in reference[1:4]]
    renamed = result.renamed("other")
    assert isinstance(renamed, ColumnarRankingResult) and renamed.name == "other"
    assert renamed.values_array() is result.values_array()
    thawed = pickle.loads(pickle.dumps(result))
    assert isinstance(thawed, ColumnarRankingResult)
    assert [ranked_item(item) for item in thawed] == [ranked_item(item) for item in reference]
    # Iteration: the caller's own tuples, positions and bit-equal values.
    items = list(result)
    assert [ranked_item(item) for item in items] == [ranked_item(item) for item in reference]
    assert all(item.item is by_tid[item.tid] for item in items)
    assert np.array_equal(np.array([item.value for item in items]), expected_values)


def ranked_item(item):
    """``(position, tid, value type, value bits)`` of a ranked item, compared bit for bit."""
    value = complex(item.value)
    return item.position, item.tid, type(item.value), value.real.hex(), value.imag.hex()

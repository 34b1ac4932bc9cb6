"""Small helpers shared by the benchmark modules."""

from __future__ import annotations

import gc


def run_once(benchmark, function):
    """Time ``function`` exactly once — the experiments are heavyweight.

    Collect garbage first: with a single round and no warmup, a
    phase-aligned gen-2 collection (whose trigger point depends on
    everything imported and run before this test) otherwise lands
    inside the one measured window and doubles the recorded time.
    """
    gc.collect()
    return benchmark.pedantic(function, rounds=1, iterations=1)


def assert_matches_oracle(result, data, rf, tolerance: float = 1e-12) -> None:
    """Every value of ``result`` is within ``tolerance`` of its possible-worlds value.

    ``data`` is a small (n <= 10) independent relation, and/xor tree or
    Markov network; the oracle enumerates its worlds.
    """
    from repro.andxor.tree import AndXorTree
    from repro.core.possible_worlds import enumerate_worlds, prf_by_enumeration
    from repro.graphical import MarkovNetworkRelation

    if isinstance(data, AndXorTree):
        worlds, tuples = data.enumerate_worlds(), data.tuples()
    elif isinstance(data, MarkovNetworkRelation):
        worlds, tuples = data.enumerate_worlds(), data.tuples
    else:
        worlds, tuples = enumerate_worlds(data), list(data)
    assert len(result) == len(tuples) <= 10
    values = result.values()
    for t in tuples:
        exact = rf.factor(t) * prf_by_enumeration(worlds, t.tid, rf.weight)
        assert abs(values[t.tid] - exact) <= tolerance, t.tid

"""Row-parallel kernels: a split stack ranks exactly as one core does.

The alpha sweep of ``rank_many``, the PRFe stacks of ``rank_batch`` and
the terms of a linear combination are split across cores by
:mod:`repro.engine.parallel` once a stack reaches
``PARALLEL_MIN_ELEMENTS``.  Patching that floor to 1 splits every stack;
patching it past any input keeps every stack on the calling thread.  The
two runs must agree in tids, positions, values and dtype.  Forked workers
(the serving tier's default start method) must build their own pool.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import sys
import threading
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Engine, PRFe, PRFOmega
from repro.core.columnar import ColumnarRelation
from repro.core.prf import LinearCombinationPRFe, RankingFunction
from repro.core.weights import StepWeight
from repro.engine import parallel
from repro.engine.cache import CachedRelation
from repro.service import PooledRankingService, ProcessWorker, WorkerPool

SERIAL = 1 << 62

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)


@contextmanager
def split(floor: int, cores: int = 2):
    """Every stack of at least ``floor`` elements split over ``cores`` parts."""
    with mock.patch.object(parallel, "PARALLEL_MIN_ELEMENTS", floor), mock.patch.object(
        parallel, "available_cores", lambda: cores
    ):
        yield


@contextmanager
def no_executor():
    """Fail the test if anything asks for the process-wide pool."""
    with mock.patch.object(parallel, "_executor", side_effect=AssertionError("pool used")):
        yield


def arrays(result):
    """Positions, tids and values of a ranking, for ``np.array_equal``."""
    return (
        np.asarray(result.original_indices()),
        np.asarray(result.tids()),
        np.asarray(result.values_array()),
    )


def assert_same(results, expected):
    assert len(results) == len(expected)
    for result, reference in zip(results, expected):
        assert result.name == reference.name
        for got, want in zip(arrays(result), arrays(reference)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want, equal_nan=got.dtype.kind in "fc")


def relation(rng, n: int, zero_share: float = 0.0, score_levels: int = 0, name: str = "r"):
    """A columnar relation with an optional share of p = 0 tuples and tied scores."""
    scores = rng.uniform(0.0, 1000.0, n)
    if score_levels:
        scores = rng.integers(0, score_levels, n).astype(float)
    probabilities = rng.uniform(0.0, 1.0, n)
    probabilities[rng.uniform(size=n) < zero_share] = 0.0
    return ColumnarRelation(scores, probabilities, name=name)


def mixed_specs(rng, alphas: int) -> list[RankingFunction]:
    """Real alphas among complex ones, both combination paths and general weights."""
    specs: list[RankingFunction] = [PRFe(float(a)) for a in rng.uniform(0.05, 1.0, alphas)]
    specs += [PRFe(1.0), PRFe(complex(0.9, 0.05)), PRFe(1.2)]
    # Paired path: a real term and a conjugate pair.
    specs.append(
        LinearCombinationPRFe([0.5, 0.25 + 0.1j, 0.25 - 0.1j], [0.8, 0.9 + 0.05j, 0.9 - 0.05j])
    )
    # Generic complex path: no conjugate partner.
    specs.append(LinearCombinationPRFe([0.5, 0.3 + 0.2j, 0.2], [0.95, 0.7 + 0.1j, 0.6]))
    specs.append(LinearCombinationPRFe([1.0, -0.5], [0.99, 0.5]))
    specs.append(PRFOmega(StepWeight(5)))
    specs.insert(1, PRFe(float(rng.uniform(0.5, 0.99))))
    return specs


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([0, 1, 2, 3, 40, 700, 2500]),
    alphas=st.integers(1, 9),
    cores=st.integers(2, 4),
    zero_share=st.sampled_from([0.0, 0.3, 0.9]),
    score_levels=st.sampled_from([0, 1, 5]),
)
def test_split_rank_many_equals_one_core(seed, n, alphas, cores, zero_share, score_levels):
    rng = np.random.default_rng(seed)
    data = relation(rng, n, zero_share, score_levels)
    specs = mixed_specs(rng, alphas)
    with split(SERIAL):
        expected = Engine().rank_many(data, specs)
    with split(1, cores):
        assert_same(Engine().rank_many(data, specs), expected)
        warm = Engine()
        warm.rank(data, specs[0])
        assert_same(warm.rank_many(data, specs), expected)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([0, 1, 2, 50, 900]),
    count=st.integers(1, 7),
    cores=st.integers(2, 4),
    zero_share=st.sampled_from([0.0, 0.4]),
    score_levels=st.sampled_from([0, 3]),
    spec=st.sampled_from(
        [
            PRFe(0.9),
            PRFe(1.0),
            PRFe(0.3 + 0.2j),
            LinearCombinationPRFe([0.6, 0.2 + 0.1j, 0.2 - 0.1j], [0.7, 0.95 + 0.02j, 0.95 - 0.02j]),
            LinearCombinationPRFe([0.6, 0.4j], [0.7, 0.95 + 0.02j]),
        ]
    ),
)
def test_split_rank_batch_equals_one_core(seed, n, count, cores, zero_share, score_levels, spec):
    rng = np.random.default_rng(seed)
    batch = [relation(rng, n, zero_share, score_levels, name=f"r{i}") for i in range(count)]
    # A content-equal twin (a separate object, its own name) shares the cache entry.
    twin = batch[0]
    batch.append(ColumnarRelation(twin.scores(), twin.probabilities(), name="twin"))
    with split(SERIAL):
        expected = Engine().rank_batch(batch, spec)
    with split(1, cores):
        assert_same(Engine().rank_batch(batch, spec), expected)


def test_tie_fallback_runs_on_a_pool_thread():
    # Equal scores and p = 0 tuples tie on key and score, so every row
    # needs the tid column; the second part of the sweep asks from the pool.
    rng = np.random.default_rng(5)
    data = relation(rng, 3000, zero_share=0.5, score_levels=4)
    specs = [PRFe(float(a)) for a in np.linspace(0.5, 0.95, 6)]
    with split(SERIAL):
        expected = Engine().rank_many(data, specs)
    callers = []
    original = CachedRelation.tid_strings

    def spy(entry, *args, **kwargs):
        callers.append(threading.current_thread().name)
        return original(entry, *args, **kwargs)

    with split(1), mock.patch.object(CachedRelation, "tid_strings", spy):
        assert_same(Engine().rank_many(data, specs), expected)
    assert any(name.startswith("engine-rows") for name in callers), callers


def test_threads_sharing_an_engine_and_the_pool_rank_alike():
    rng = np.random.default_rng(11)
    data = [relation(rng, 20_000, zero_share=0.1, name=f"r{i}") for i in range(2)]
    specs = [PRFe(float(a)) for a in np.sort(rng.uniform(0.8, 0.99, 8))]
    specs.append(
        LinearCombinationPRFe([0.5, 0.25 + 0.1j, 0.25 - 0.1j], [0.8, 0.9 + 0.1j, 0.9 - 0.1j])
    )
    with split(SERIAL):
        expected = [Engine().rank_many(item, specs) for item in data]
    engine = Engine()
    results: dict[int, list] = {}
    errors = []

    def work(index: int) -> None:
        try:
            for round_ in range(3):
                results[index * 3 + round_] = engine.rank_many(data[index % 2], specs)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with split(1 << 16):
            threads = [threading.Thread(target=work, args=(index,)) for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert not any(thread.is_alive() for thread in threads)
    for key, got in results.items():
        assert_same(got, expected[(key // 3) % 2])


def test_row_parts_cover_the_rows_contiguously():
    with split(10, cores=3):
        assert parallel.row_parts(7, 9) == [range(7)]
        assert parallel.row_parts(1, 100) == [range(1)]
        assert parallel.row_parts(2, 100) == [range(0, 1), range(1, 2)]
        assert parallel.row_parts(7, 10) == [range(0, 2), range(2, 4), range(4, 7)]
    with split(10, cores=1):
        assert parallel.row_parts(7, 1000) == [range(7)]


def test_run_parts_takes_back_a_part_the_busy_pool_has_not_started():
    with split(1):
        pool = parallel._executor()
        release = threading.Event()
        blockers = [pool.submit(release.wait, 30) for _ in range(pool._max_workers)]
        ran = []
        try:
            parallel.run_parts(
                lambda part: ran.append((part, threading.current_thread().name)),
                [range(0, 1), range(1, 2)],
            )
        finally:
            release.set()
        for blocker in blockers:
            blocker.result(timeout=30)
    main = threading.current_thread().name
    assert ran == [(range(0, 1), main), (range(1, 2), main)]


def test_run_parts_raises_a_part_error_once_no_part_runs():
    finished = []

    def part(rows: range) -> None:
        if rows.start == 1:
            raise ValueError("part 1")
        time.sleep(0.05)
        finished.append(rows.start)

    with split(1, cores=3):
        with pytest.raises(ValueError, match="part 1"):
            parallel.run_parts(part, [range(0, 1), range(1, 2), range(2, 3)])
        settled = list(finished)
        time.sleep(0.2)
    # The caller's part ran; part 2 either finished before the error was
    # raised or never started.
    assert 0 in settled and finished == settled


def test_one_core_runs_everything_inline():
    rng = np.random.default_rng(3)
    data = relation(rng, 5000, zero_share=0.2)
    specs = mixed_specs(rng, 6)
    batch = [relation(rng, 5000, name=f"b{i}") for i in range(4)]
    with split(SERIAL):
        expected_many = Engine().rank_many(data, specs)
        expected_batch = Engine().rank_batch(batch, PRFe(0.9))
    with split(1, cores=1), no_executor():
        assert parallel.row_parts(16, 1 << 30) == [range(16)]
        assert_same(Engine().rank_many(data, specs), expected_many)
        assert_same(Engine().rank_batch(batch, PRFe(0.9)), expected_batch)


def test_serving_sized_requests_never_reach_the_pool():
    # The serving hot path: n = 200 relations, top-10 PRFe, PRFomega(Step 20),
    # and a 16-alpha sweep and 16-relation batch of the same size.
    rng = np.random.default_rng(7)
    data = [relation(rng, 200, name=f"s{i}") for i in range(16)]
    sweep = [PRFe(float(a)) for a in rng.uniform(0.8, 0.99, 16)]
    engine = Engine()
    with split(parallel.PARALLEL_MIN_ELEMENTS, cores=2), no_executor():
        for item in data:
            engine.rank_top_k(item, PRFe(0.9), 10)
            engine.rank(item, PRFOmega(StepWeight(20)))
            engine.rank(item, PRFe(0.9))
        engine.rank_many(data[0], sweep + mixed_specs(rng, 4))
        engine.rank_batch(data, PRFe(0.9))
        engine.rank_batch(data, PRFOmega(StepWeight(20)))


def _child_ranks_in_parallel(connection, data, specs) -> None:
    """Forked child: two parts run at once on its own pool, then a split sweep."""
    try:
        barrier = threading.Barrier(2, timeout=20)
        names = []

        def part(rows: range) -> None:
            names.append(threading.current_thread().name)
            barrier.wait()

        parallel.run_parts(part, [range(0, 1), range(1, 2)])
        results = Engine().rank_many(data, specs)
        connection.send(("ok", sorted(names), [arrays(result) for result in results]))
    except Exception as exc:  # reported to the parent
        connection.send(("error", repr(exc), None))
    finally:
        connection.close()


def _parent_pool_works() -> None:
    barrier = threading.Barrier(2, timeout=20)
    parallel.run_parts(lambda rows: barrier.wait(), [range(0, 1), range(1, 2)])


@needs_fork
def test_forked_children_build_their_own_pool():
    rng = np.random.default_rng(13)
    data = relation(rng, 4000, zero_share=0.1)
    specs = [PRFe(float(a)) for a in np.sort(rng.uniform(0.8, 0.99, 6))]
    with split(SERIAL):
        expected = Engine().rank_many(data, specs)
    with split(1):
        # The parent's pool is built and idle when the child forks; a
        # child that kept it would wait forever for its dead thread.
        _parent_pool_works()
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_child_ranks_in_parallel, args=(sender, data, specs))
        child.start()
        sender.close()
        try:
            assert receiver.poll(60), "forked child did not answer"
            status, names, got = receiver.recv()
        finally:
            child.join(timeout=30)
            if child.is_alive():
                child.kill()
        assert status == "ok", names
        assert names[0].startswith("engine-rows") or names[1].startswith("engine-rows")
        assert child.exitcode == 0
        for (index, tids, values), reference in zip(got, expected):
            want = arrays(reference)
            assert np.array_equal(index, want[0]) and np.array_equal(tids, want[1])
            assert values.dtype == want[2].dtype and np.array_equal(values, want[2])
        _parent_pool_works()


@needs_fork
def test_forked_serving_workers_rank_parallel_sized_batches():
    rng = np.random.default_rng(17)
    batch = [relation(rng, 3000, zero_share=0.1, name=f"w{i}") for i in range(3)]
    lincomb = LinearCombinationPRFe([0.5, 0.25 + 0.1j, 0.25 - 0.1j], [0.8, 0.9 + 0.1j, 0.9 - 0.1j])
    with split(SERIAL):
        expected = Engine().rank_batch(batch, PRFe(0.9))
        expected_lincomb = Engine().rank_batch(batch[:1], lincomb)
    with split(1):
        _parent_pool_works()
        worker = ProcessWorker(0, mp_context="fork")
        try:
            assert_same(worker.submit(batch, PRFe(0.9)).result(timeout=60), expected)
            assert_same(worker.submit(batch[:1], lincomb).result(timeout=60), expected_lincomb)
        finally:
            worker.stop()

        async def scenario():
            pool = WorkerPool(1, retry_backoff=0.01, mp_context="fork")
            async with PooledRankingService(pool, max_delay=0.001) as service:
                return [(await service.submit(item, PRFe(0.9))).result for item in batch]

        served = asyncio.run(asyncio.wait_for(scenario(), timeout=120))
        assert_same(served, expected)
        _parent_pool_works()

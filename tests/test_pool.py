"""Chaos suite for the sharded worker-pool serving tier.

The contracts under test:

* every request *admitted* by the pooled service gets a reply or a
  clean ``ServiceOverloadedError`` — never a hang, never a lost future —
  under kill-mid-batch, delayed-reply, drop-reply and restart-storm
  fault injection;
* replies stay bit-identical to direct ``Engine.rank`` across all three
  correlation models, faults or not;
* fault injection is seeded and deterministic, so every scenario here
  replays exactly;
* fingerprint-affinity routing keeps each worker's cache hot and hot
  fingerprints fan out across replicas;
* ``ServiceStats`` snapshots are atomic under concurrent mutation
  (regression: the TCP ``stats`` path used to read unlocked);
* the pool's counters export through the Prometheus-style ``metrics``
  op and the plain ``GET /metrics`` HTTP fast path.

Most scenarios run on :class:`ThreadWorker` (simulated death, no
process churn — deterministic and fast); a small set exercises real
:class:`ProcessWorker` processes including a real mid-batch kill.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import queue
import threading
import time

import numpy as np
import pytest

from repro import Engine, PRFe, PRFOmega, ProbabilisticRelation, Tuple
from repro.andxor.tree import AndXorTree
from repro.core.result import ColumnarRankingResult
from repro.core.weights import StepWeight
from repro.engine.cache import dataset_fingerprint
from repro.graphical import MarkovChainRelation
from repro.service import (
    AsyncRankingClient,
    Fault,
    FaultPlan,
    PooledRankingService,
    ProcessWorker,
    ServiceOverloadedError,
    ServiceReply,
    ServiceStats,
    TCPRankingClient,
    ThreadWorker,
    WorkerDiedError,
    WorkerPool,
    render_metrics,
    serve_tcp,
)
from repro.service.__main__ import build_parser


def run(coro):
    return asyncio.run(coro)


def make_relation(n: int, seed: int, name: str = "") -> ProbabilisticRelation:
    rng = np.random.default_rng(seed)
    return ProbabilisticRelation.from_arrays(
        rng.uniform(0.0, 1000.0, n), rng.uniform(0.0, 1.0, n), name=name or f"rel-{seed}"
    )


def make_tree(seed: int) -> AndXorTree:
    rng = np.random.default_rng(seed)
    groups, counter = [], 0
    for _ in range(6):
        group = []
        for _ in range(int(rng.integers(1, 4))):
            group.append(
                Tuple(f"x{counter}", float(rng.uniform(0, 100)), float(rng.uniform(0.05, 0.3)))
            )
            counter += 1
        groups.append(group)
    return AndXorTree.from_x_tuples(groups, name=f"tree-{seed}")


def make_network(seed: int):
    rng = np.random.default_rng(seed)
    tuples = [
        Tuple(f"m{i}", float(score), 1.0)
        for i, score in enumerate(rng.permutation(80)[:8])
    ]
    return MarkovChainRelation.homogeneous(tuples, 0.6, 0.7, 0.8, name=f"net-{seed}").to_markov_network()


def assert_bitwise_equal(result, reference, context=""):
    assert result.tids() == reference.tids(), context
    assert [item.value for item in result] == [item.value for item in reference], context


def thread_pool(shards: int = 2, **kwargs) -> WorkerPool:
    """A pool of in-process workers with fast chaos-friendly timings."""
    kwargs.setdefault("worker_factory", lambda shard: ThreadWorker(shard))
    kwargs.setdefault("retry_backoff", 0.001)
    return WorkerPool(shards, **kwargs)


class SlowEngine(Engine):
    """An engine whose batches block until released (shedding tests)."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.release = threading.Event()

    def rank_batch(self, datasets, rf, **kwargs):
        self.release.wait(5.0)
        return super().rank_batch(datasets, rf, **kwargs)


# ----------------------------------------------------------------------
# FaultPlan determinism
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_scripted_fault_fires_once_on_matching_dispatch(self):
        plan = FaultPlan([Fault("kill", shard=1, batch=2)])
        assert plan.draw(0, 2) is None
        assert plan.draw(1, 1) is None
        fault = plan.draw(1, 2)
        assert fault is not None and fault.kind == "kill"
        assert plan.draw(1, 2) is None  # fired exactly once
        assert plan.injected == 1

    def test_seeded_draws_are_deterministic_and_seed_sensitive(self):
        a = FaultPlan(seed=7, kill_rate=0.2, delay_rate=0.2, drop_rate=0.2)
        b = FaultPlan(seed=7, kill_rate=0.2, delay_rate=0.2, drop_rate=0.2)
        c = FaultPlan(seed=8, kill_rate=0.2, delay_rate=0.2, drop_rate=0.2)
        draws_a = [(s, q, getattr(a.draw(s, q), "kind", None)) for s in range(4) for q in range(32)]
        draws_b = [(s, q, getattr(b.draw(s, q), "kind", None)) for s in range(4) for q in range(32)]
        draws_c = [(s, q, getattr(c.draw(s, q), "kind", None)) for s in range(4) for q in range(32)]
        assert draws_a == draws_b
        assert draws_a != draws_c
        kinds = {kind for _, _, kind in draws_a if kind}
        assert kinds == {"kill", "delay", "drop"}

    def test_max_faults_caps_injection(self):
        plan = FaultPlan(seed=3, kill_rate=1.0, max_faults=2)
        faults = [plan.draw(0, q) for q in range(10)]
        assert sum(f is not None for f in faults) == 2
        assert plan.injected == 2
        assert all(f is None for f in faults[2:])


# ----------------------------------------------------------------------
# Worker primitives
# ----------------------------------------------------------------------
class TestThreadWorker:
    def test_submit_matches_direct_engine(self):
        rel = make_relation(40, 1)
        worker = ThreadWorker(0)
        try:
            results = worker.submit([rel], PRFe(0.9)).result(timeout=30)
            assert_bitwise_equal(results[0], Engine().rank(rel, PRFe(0.9)))
        finally:
            worker.stop()

    def test_kill_fails_outstanding_and_rejects_new_work(self):
        rel = make_relation(30, 2)
        engine = SlowEngine()
        worker = ThreadWorker(0, engine=engine)
        future = worker.submit([rel], PRFe(0.9))
        worker.kill()
        engine.release.set()
        with pytest.raises(WorkerDiedError):
            future.result(timeout=5)
        assert not worker.alive
        with pytest.raises(WorkerDiedError):
            worker.submit([rel], PRFe(0.9))

    def test_ping_and_warm(self):
        rel = make_relation(25, 3)
        worker = ThreadWorker(0)
        try:
            assert worker.ping(timeout=5) >= 0.0
            assert worker.warm([rel], [PRFe(0.9)]) == 1
            assert worker.engine.cache_info()["entries"] == 1
        finally:
            worker.stop()


class TestProcessWorker:
    def test_submit_matches_direct_engine_and_ships_once(self):
        rel = make_relation(40, 4)
        worker = ProcessWorker(0)
        try:
            for _ in range(2):
                results = worker.submit([rel], PRFe(0.9)).result(timeout=60)
                assert_bitwise_equal(results[0], Engine().rank(rel, PRFe(0.9)))
            assert list(worker._shipped) == [dataset_fingerprint(rel)]
            assert worker.ping(timeout=30) >= 0.0
        finally:
            worker.stop()

    def test_need_resend_recovers_from_worker_eviction(self):
        rels = [make_relation(20, seed) for seed in (5, 6)]
        reference = [Engine().rank(rel, PRFe(0.9)) for rel in rels]
        worker = ProcessWorker(0, dataset_cache_entries=1)
        try:
            # Alternating datasets with a 1-entry worker LRU forces the
            # worker to reply ``need`` and the parent to re-send.
            for _ in range(3):
                for rel, expected in zip(rels, reference):
                    results = worker.submit([rel], PRFe(0.9)).result(timeout=60)
                    assert_bitwise_equal(results[0], expected)
        finally:
            worker.stop()

    def test_send_type_error_fails_pending_jobs(self, monkeypatch):
        """A kill closing the pipe mid-send raises TypeError in ``Connection._send``.

        The writer thread must turn it into a worker death that fails the
        pending job with :class:`WorkerDiedError`, not die unhandled.
        """

        class ClosedMidSend:
            def send(self, message):
                raise TypeError("'NoneType' object cannot be interpreted as an integer")

        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        worker = ProcessWorker.__new__(ProcessWorker)
        worker.shard = 0
        worker._conn = ClosedMidSend()
        worker._ids = itertools.count(1)
        worker._pending = {}
        worker._state_lock = threading.Lock()
        worker._dead = False
        worker._send_queue = queue.SimpleQueue()
        future = concurrent.futures.Future()
        job_id = worker._register(future, None)
        worker._send(("job", job_id))
        writer = threading.Thread(target=worker._write_loop)
        writer.start()
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert escaped == []
        with pytest.raises(WorkerDiedError, match="pipe broke"):
            future.result(timeout=0)
        assert worker._dead

    def test_kill_fails_outstanding_futures(self):
        rel = make_relation(20, 7)
        worker = ProcessWorker(0)
        worker.kill()
        assert not worker.alive
        with pytest.raises(WorkerDiedError):
            worker.submit([rel], PRFe(0.9))

    def test_worker_errors_are_forwarded_not_fatal(self):
        worker = ProcessWorker(0)
        try:
            rel = make_relation(10, 8)
            with pytest.raises(Exception):
                worker.submit([rel], "not a ranking function").result(timeout=60)
            # The worker survives a per-job error.
            results = worker.submit([rel], PRFe(0.9)).result(timeout=60)
            assert_bitwise_equal(results[0], Engine().rank(rel, PRFe(0.9)))
        finally:
            worker.stop()


    def test_trees_and_networks_round_trip_through_process_workers(self):
        datasets = [make_tree(40), make_network(41)]
        specs = [PRFe(0.9), PRFe(0.6 + 0.2j), PRFOmega(StepWeight(3))]
        engine = Engine()
        expected_rank = [engine.rank(data, specs[0]) for data in datasets]
        expected_many = [engine.rank_many(data, specs) for data in datasets]

        async def scenario():
            pool = WorkerPool(1, retry_backoff=0.01)
            async with PooledRankingService(pool, max_delay=0.001) as service:
                replies = [await service.submit(data, specs[0]) for data in datasets]
                many = await AsyncRankingClient(service).rank_all(
                    [(data, rf) for data in datasets for rf in specs]
                )
            return [reply.result for reply in replies], many

        ranked, many = run(scenario())
        for result, expected in zip(ranked, expected_rank):
            # Pickled whole across the pipe: the lazy result and its rows.
            assert isinstance(result, ColumnarRankingResult)
            assert np.array_equal(result.original_indices(), expected.original_indices())
            assert_bitwise_equal(result, expected)
        flat = [result for results in expected_many for result in results]
        for result, expected in zip(many, flat, strict=True):
            assert isinstance(result, ColumnarRankingResult)
            assert_bitwise_equal(result, expected)


# ----------------------------------------------------------------------
# Chaos scenarios (seeded, deterministic)
# ----------------------------------------------------------------------
class TestChaosScenarios:
    def test_kill_mid_batch_recovers_bit_identical_all_models(self):
        datasets = [make_relation(30, 10), make_tree(11), make_network(12)]
        rf = PRFe(0.9)
        engine = Engine()
        reference = [engine.rank(data, rf, name=getattr(data, "name", "")) for data in datasets]

        async def scenario():
            # One kill per shard's first dispatch: every dataset's first
            # batch dies mid-flight and must be re-dispatched.
            plan = FaultPlan([Fault("kill", shard=s, batch=0) for s in range(2)])
            pool = thread_pool(2, fault_plan=plan)
            async with PooledRankingService(pool, max_delay=0.001) as service:
                replies = await asyncio.gather(
                    *(
                        service.submit(data, rf, name=getattr(data, "name", ""))
                        for data in datasets
                    )
                )
                snapshot = service.pool.snapshot()
            return replies, snapshot

        replies, snapshot = run(scenario())
        for reply, expected in zip(replies, reference):
            assert isinstance(reply, ServiceReply)
            assert_bitwise_equal(reply.result, expected)
        assert snapshot["faults_injected"] >= 1
        assert snapshot["restarts_total"] >= 1
        assert all(snapshot["alive"])

    def test_delayed_reply_still_correct(self):
        rel = make_relation(25, 13)
        expected = Engine().rank(rel, PRFe(0.9), name=rel.name)

        async def scenario():
            plan = FaultPlan([Fault("delay", batch=0, delay=0.05)])
            pool = thread_pool(1, fault_plan=plan)
            async with PooledRankingService(pool, max_delay=0.001) as service:
                reply = await service.submit(rel, PRFe(0.9), name=rel.name)
                return reply, service.pool.snapshot()

        reply, snapshot = run(scenario())
        assert_bitwise_equal(reply.result, expected)
        assert snapshot["faults_injected"] == 1
        assert snapshot["restarts_total"] == 0  # a delay is not a death

    def test_dropped_reply_recovers_via_timeout_and_restart(self):
        rel = make_relation(25, 14)
        expected = Engine().rank(rel, PRFe(0.9), name=rel.name)

        async def scenario():
            plan = FaultPlan([Fault("drop", batch=0)])
            pool = thread_pool(1, fault_plan=plan, reply_timeout=0.1)
            async with PooledRankingService(pool, max_delay=0.001) as service:
                reply = await service.submit(rel, PRFe(0.9), name=rel.name)
                return reply, service.pool.snapshot()

        reply, snapshot = run(scenario())
        assert_bitwise_equal(reply.result, expected)
        assert snapshot["totals"]["timeouts"] == 1
        assert snapshot["restarts_total"] == 1  # the wedged worker was replaced

    def test_slow_batch_passes_liveness_probe_and_is_not_killed(self):
        """A healthy-but-slow worker survives a missed reply deadline.

        Regression: the timeout path used to kill the worker outright,
        cascading one slow batch into retries and recomputation of its
        unrelated in-flight work.  Now the worker is ping-probed first
        and the (already computed) reply lands during the grace period.
        """
        rel = make_relation(25, 31)
        expected = Engine().rank(rel, PRFe(0.9), name=rel.name)

        class SlowishEngine(Engine):
            def rank_batch(self, datasets, rf, **kwargs):
                time.sleep(0.3)
                return super().rank_batch(datasets, rf, **kwargs)

        async def scenario():
            pool = WorkerPool(
                1,
                worker_factory=lambda shard: ThreadWorker(shard, engine=SlowishEngine()),
                reply_timeout=0.05,
                reply_timeout_per_item=0.0,
                retry_backoff=0.001,
            )
            with pool:
                results = await pool.execute(0, [rel], PRFe(0.9))
                return results, pool.snapshot()

        results, snapshot = run(scenario())
        assert_bitwise_equal(results[0], expected)
        assert snapshot["totals"]["timeouts"] == 0
        assert snapshot["restarts_total"] == 0
        assert all(snapshot["alive"])

    def test_window_failure_resolves_every_request(self):
        """An exception before the per-shard error paths still replies.

        Regression: a failure in the fire-and-forget window task (e.g.
        routing) used to leave every request of the window unresolved
        forever and leak their admission slots permanently.
        """
        rel = make_relation(25, 32)

        def exploding_route(fingerprint):
            raise RuntimeError("router exploded")

        async def scenario():
            pool = thread_pool(1)
            async with PooledRankingService(pool, max_delay=0.001) as service:
                original = service.pool.route
                service.pool.route = exploding_route
                with pytest.raises(RuntimeError, match="router exploded"):
                    await service.submit(rel, PRFe(0.9), name=rel.name)
                service.pool.route = original
                # The admission slot was released: the service still serves.
                reply = await service.submit(rel, PRFe(0.9), name=rel.name)
                return reply, service.pending(), service.stats.as_dict()

        reply, pending, stats = run(scenario())
        assert isinstance(reply, ServiceReply)
        assert pending == 0
        assert stats["errors"] >= 1

    def test_restart_storm_no_admitted_request_is_lost(self):
        """The headline chaos contract, under a seeded kill storm.

        Every admitted request resolves to a bit-identical reply or a
        clean ``ServiceOverloadedError``; once the fault budget is spent
        the pool converges back to all-shards-alive and serves again.
        """
        rf = PRFe(0.9)
        datasets = [make_relation(20, seed) for seed in range(20, 28)]
        engine = Engine()
        reference = {
            dataset_fingerprint(data): engine.rank(data, rf, name=data.name)
            for data in datasets
        }

        async def scenario():
            plan = FaultPlan(seed=42, kill_rate=0.35, max_faults=6)
            pool = thread_pool(2, fault_plan=plan, reply_timeout=5.0)
            async with PooledRankingService(
                pool, max_delay=0.001, cache_ttl=0.0
            ) as service:
                outcomes = await asyncio.gather(
                    *(
                        service.submit(datasets[i % len(datasets)], rf,
                                       name=datasets[i % len(datasets)].name)
                        for i in range(40)
                    ),
                    return_exceptions=True,
                )
                # Convergence: the storm is over (max_faults), so a fresh
                # request must succeed and every shard must be healthy.
                final = await service.submit(datasets[0], rf, name=datasets[0].name)
                health = service.pool.health()
                stats = service.stats.as_dict()
                pending = service.pending()
            return outcomes, final, health, stats, pending

        outcomes, final, health, stats, pending = run(scenario())
        assert len(outcomes) == 40
        served = 0
        for i, outcome in enumerate(outcomes):
            if isinstance(outcome, ServiceOverloadedError):
                continue
            assert isinstance(outcome, ServiceReply), f"request {i}: {outcome!r}"
            expected = reference[dataset_fingerprint(datasets[i % len(datasets)])]
            assert_bitwise_equal(outcome.result, expected, f"request {i}")
            served += 1
        # Every outcome is a reply or a clean shed -- nothing hung, nothing lost.
        shed = sum(isinstance(o, ServiceOverloadedError) for o in outcomes)
        assert served + shed == 40
        assert served >= 1
        assert_bitwise_equal(final.result, reference[dataset_fingerprint(datasets[0])])
        assert all(health["alive"])
        assert pending == 0  # every admitted request was disposed of
        assert stats["requests"] == 41

    def test_retry_exhaustion_sheds_cleanly(self):
        rel = make_relation(20, 30)

        async def scenario():
            plan = FaultPlan(seed=1, kill_rate=1.0)
            pool = thread_pool(1, fault_plan=plan, max_retries=2)
            async with PooledRankingService(pool, max_delay=0.001) as service:
                with pytest.raises(ServiceOverloadedError):
                    await service.submit(rel, PRFe(0.9))
                assert service.pending() == 0

        run(scenario())

    def test_restart_budget_exhaustion_sheds_cleanly(self):
        rel = make_relation(20, 31)

        async def scenario():
            plan = FaultPlan(seed=2, kill_rate=1.0)
            pool = thread_pool(1, fault_plan=plan, max_restarts=0)
            async with PooledRankingService(pool, max_delay=0.001) as service:
                with pytest.raises(ServiceOverloadedError):
                    await service.submit(rel, PRFe(0.9))

        run(scenario())

    def test_real_process_kill_mid_batch_recovers(self):
        """A real SIGKILL on a ProcessWorker mid-batch, not a simulation.

        The relation is large enough that the worker cannot answer
        before the parent's SIGKILL lands, so the batch reliably dies
        mid-flight and must be re-dispatched to a respawned worker.
        """
        rel = make_relation(5_000, 32)
        expected = Engine().rank(rel, PRFe(0.9), name=rel.name)

        async def scenario():
            plan = FaultPlan([Fault("kill", batch=0)])
            pool = WorkerPool(1, fault_plan=plan, retry_backoff=0.01)
            async with PooledRankingService(pool, max_delay=0.001) as service:
                reply = await service.submit(rel, PRFe(0.9), name=rel.name)
                probe = await service.pool.probe(timeout=30)
                return reply, service.pool.snapshot(), probe

        reply, snapshot, probe = run(scenario())
        assert_bitwise_equal(reply.result, expected)
        assert snapshot["restarts_total"] == 1
        assert all(latency is not None for latency in probe)


# ----------------------------------------------------------------------
# Pool mechanics: shedding, restart, affinity, warm-up
# ----------------------------------------------------------------------
class TestPoolMechanics:
    def test_per_shard_queue_bound_sheds(self):
        rel = make_relation(20, 40)
        engine = SlowEngine()

        async def scenario():
            pool = WorkerPool(
                1,
                worker_factory=lambda shard: ThreadWorker(shard, engine=engine),
                max_shard_depth=1,
            )
            pool.start()
            try:
                first = asyncio.ensure_future(pool.execute(0, [rel], PRFe(0.9)))
                await asyncio.sleep(0.01)  # first occupies the only slot
                with pytest.raises(ServiceOverloadedError):
                    await pool.execute(0, [rel], PRFe(0.9))
                engine.release.set()
                results = await first
                assert len(results) == 1
                assert pool.shard_stats[0].shed == 1
                assert pool.depth(0) == 0
            finally:
                engine.release.set()
                await asyncio.to_thread(pool.close)

        run(scenario())

    def test_graceful_restart_drains_and_respawns(self):
        rel = make_relation(20, 41)
        expected = Engine().rank(rel, PRFe(0.9), name=rel.name)

        async def scenario():
            pool = thread_pool(1)
            async with PooledRankingService(pool, max_delay=0.001) as service:
                before = service.pool._workers[0]
                await service.pool.restart(0)
                after = service.pool._workers[0]
                assert after is not before
                assert not before.alive
                assert after.alive
                reply = await service.submit(rel, PRFe(0.9), name=rel.name)
                assert_bitwise_equal(reply.result, expected)
                assert service.pool.snapshot()["restarts_total"] == 1

        run(scenario())

    def test_respawn_does_not_block_the_event_loop(self):
        """A worker respawn must not stall the loop for the spawn duration.

        Regression (ASYNC-hygiene sweep): ``_dispatch_once`` called
        ``_ensure_worker`` inline, so respawning a dead worker ran the
        factory (a process fork in production, 0.3s here) plus the dead
        worker's ``stop()`` join *on the event loop*, freezing every
        coalescing window and connection for that long.  The respawn now
        runs on a worker thread; a heartbeat task must keep ticking
        through it, and concurrent dispatches must share one respawn.
        """
        rel = make_relation(20, 43)
        expected = Engine().rank(rel, PRFe(0.9), name=rel.name)
        spawn_seconds = 0.3
        spawned = []

        def slow_factory(shard):
            time.sleep(spawn_seconds)  # stands in for a process fork + warm-up
            worker = ThreadWorker(shard)
            spawned.append(worker)
            return worker

        async def scenario():
            pool = WorkerPool(
                1, worker_factory=slow_factory, retry_backoff=0.001
            )
            pool.start()
            try:
                pool._workers[0].kill()  # next dispatch must respawn
                gaps = []
                ticking = True

                async def heartbeat():
                    last = time.monotonic()
                    while ticking:
                        await asyncio.sleep(0.005)
                        now = time.monotonic()
                        gaps.append(now - last)
                        last = now

                beat = asyncio.ensure_future(heartbeat())
                results = await asyncio.gather(
                    pool.execute(0, [rel], PRFe(0.9)),
                    pool.execute(0, [rel], PRFe(0.9)),
                )
                ticking = False
                await beat
                return results, max(gaps), pool.snapshot()
            finally:
                await asyncio.to_thread(pool.close)

        results, max_gap, snapshot = run(scenario())
        for batch in results:
            assert_bitwise_equal(batch[0], expected)
        # Pre-fix the loop froze for the whole spawn; post-fix the
        # heartbeat keeps ticking (generous margin for CI scheduling).
        assert max_gap < spawn_seconds * 0.67, f"event loop stalled {max_gap:.3f}s"
        assert snapshot["restarts_total"] == 1  # concurrent dispatches shared it
        assert len(spawned) == 2  # initial start + one respawn

    def test_affinity_routing_keeps_worker_caches_disjoint_and_hot(self):
        rf = PRFe(0.9)
        datasets = [make_relation(20, seed) for seed in range(50, 58)]
        router_shards = 2

        async def scenario():
            pool = thread_pool(router_shards, hot_threshold=0)  # fan-out off
            async with PooledRankingService(
                pool, max_delay=0.001, cache_ttl=0.0
            ) as service:
                for _ in range(2):
                    for data in datasets:
                        await service.submit(data, rf, name=data.name)
                return service.pool

        pool = run(scenario())
        assigned = {
            shard: [
                data for data in datasets
                if pool.router.shard(dataset_fingerprint(data)) == shard
            ]
            for shard in range(router_shards)
        }
        for shard in range(router_shards):
            worker = pool._workers[shard]
            info = worker.engine.cache_info()
            # Each worker cached exactly its own slice of the universe --
            # and the second pass hit those entries.
            assert info["entries"] == len(assigned[shard])
            assert info["hits"] > 0

    def test_hot_fingerprint_fans_out_across_replicas(self):
        pool = thread_pool(4, hot_threshold=4, replicas=2)
        try:
            fingerprint = "hot-dataset"
            shards = {pool.route(fingerprint) for _ in range(32)}
            preference = pool.router.preference(fingerprint, 2)
            assert shards == set(preference)
            assert len(shards) == 2
        finally:
            pool.close()

    def test_pool_warm_ships_hot_set_to_affine_workers(self):
        rf = PRFe(0.9)
        datasets = [make_relation(20, seed) for seed in range(60, 66)]
        pool = thread_pool(2)
        pool.start()
        try:
            assert pool.warm(datasets, [rf]) == len(datasets)
            for shard in range(2):
                expected = sum(
                    1 for data in datasets
                    if pool.router.shard(dataset_fingerprint(data)) == shard
                )
                assert pool._workers[shard].engine.cache_info()["entries"] == expected
        finally:
            pool.close()

    def test_engine_warm_hook_fills_cache(self):
        engine = Engine()
        datasets = [make_relation(20, 70), make_tree(71)]
        assert engine.warm(datasets, [PRFe(0.9), PRFOmega(StepWeight(5))]) == 2
        assert engine.cache_info()["entries"] == 2

    def test_pool_rejects_invalid_configuration(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
        with pytest.raises(ValueError):
            WorkerPool(1, max_shard_depth=0)

    def test_health_reports_dead_worker_until_next_dispatch(self):
        pool = thread_pool(2)
        pool.start()
        try:
            pool._workers[1].kill()
            health = pool.health()
            assert health["alive"] == [True, False]
        finally:
            pool.close()


# ----------------------------------------------------------------------
# Pooled service semantics (dedup/cache/identity preserved)
# ----------------------------------------------------------------------
class TestPooledService:
    def test_dedup_and_cache_still_apply(self):
        rel = make_relation(20, 80)
        rf = PRFe(0.9)

        async def scenario():
            pool = thread_pool(2)
            async with PooledRankingService(pool, max_delay=0.005) as service:
                first, second = await asyncio.gather(
                    service.submit(rel, rf, name=rel.name),
                    service.submit(rel, rf, name=rel.name),
                )
                third = await service.submit(rel, rf, name=rel.name)
                return first, second, third, service.stats.as_dict()

        first, second, third, stats = run(scenario())
        assert_bitwise_equal(first.result, second.result)
        assert first.deduplicated or second.deduplicated
        assert third.cached
        assert stats["deduplicated"] == 1
        assert stats["cache_hits"] == 1

    def test_mixed_model_window_partitions_by_shard(self):
        rf = PRFe(0.9)
        datasets = [make_relation(20, 90), make_tree(91), make_network(92),
                    make_relation(20, 93)]
        engine = Engine()
        reference = [engine.rank(d, rf, name=getattr(d, "name", "")) for d in datasets]

        async def scenario():
            pool = thread_pool(3)
            async with PooledRankingService(pool, max_delay=0.01) as service:
                return await asyncio.gather(
                    *(
                        service.submit(d, rf, name=getattr(d, "name", ""))
                        for d in datasets
                    )
                )

        replies = run(scenario())
        for reply, expected in zip(replies, reference):
            assert_bitwise_equal(reply.result, expected)

    def test_top_k_and_approx_ride_the_pool(self):
        rel = make_relation(50, 94)
        engine = Engine()
        expected_topk = engine.rank(rel, PRFe(0.9), name=rel.name, top_k=5)

        async def scenario():
            pool = thread_pool(2)
            async with PooledRankingService(pool, max_delay=0.001) as service:
                topk = await service.submit(rel, PRFe(0.9), name=rel.name, top_k=5)
                approx = await service.submit(
                    rel, PRFOmega(StepWeight(7)), name=rel.name, approx=1e-3
                )
                return topk, approx

        topk, approx = run(scenario())
        assert_bitwise_equal(topk.result, expected_topk)
        assert topk.k == 5
        assert approx.approx is not None and approx.approx["budget"] == 1e-3

    def test_lone_request_does_not_wait_out_max_delay(self):
        rel = make_relation(20, 95)
        expected = Engine().rank(rel, PRFe(0.9), name=rel.name)

        async def scenario():
            pool = thread_pool(2)
            async with PooledRankingService(pool, max_delay=1.0) as service:
                start = time.monotonic()
                reply = await service.submit(rel, PRFe(0.9), name=rel.name)
                return reply, time.monotonic() - start

        reply, elapsed = run(scenario())
        assert elapsed < 0.2
        assert reply.batch_size == 1
        assert_bitwise_equal(reply.result, expected)

    def test_cli_parser_accepts_pool_flags(self):
        args = build_parser().parse_args(
            ["--pool-shards", "4", "--shard-depth", "8", "--pool-retries", "1",
             "--reply-timeout", "2.5", "--pool-replicas", "3"]
        )
        assert args.pool_shards == 4
        assert args.shard_depth == 8
        assert args.pool_retries == 1
        assert args.reply_timeout == 2.5
        assert args.pool_replicas == 3


# ----------------------------------------------------------------------
# Atomic stats snapshots (regression)
# ----------------------------------------------------------------------
class TestStatsAtomicity:
    def test_snapshots_never_observe_partial_updates(self):
        """Regression: stats reads used to race the batching loop's writes.

        Two counters incremented in one :meth:`ServiceStats.add` call
        must never be observed out of sync by a concurrent
        :meth:`as_dict` snapshot.
        """
        stats = ServiceStats()
        stop = threading.Event()
        violations: list[dict] = []

        def hammer_reads():
            while not stop.is_set():
                snapshot = stats.as_dict()
                if snapshot["requests"] != snapshot["executed"]:
                    violations.append(snapshot)

        readers = [threading.Thread(target=hammer_reads) for _ in range(2)]
        for reader in readers:
            reader.start()
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            stats.add(requests=1, executed=1)
        stop.set()
        for reader in readers:
            reader.join()
        assert not violations, violations[:3]
        snapshot = stats.as_dict()
        assert snapshot["requests"] == snapshot["executed"] > 0

    def test_observe_batch_is_atomic_with_largest_batch(self):
        stats = ServiceStats()
        stop = threading.Event()
        violations: list[dict] = []

        def hammer_reads():
            while not stop.is_set():
                snapshot = stats.as_dict()
                if snapshot["executed"] != 3 * snapshot["batches"]:
                    violations.append(snapshot)

        reader = threading.Thread(target=hammer_reads)
        reader.start()
        for _ in range(20_000):
            stats.observe_batch(3)
        stop.set()
        reader.join()
        assert not violations, violations[:3]
        assert stats.as_dict()["largest_batch"] == 3

    def test_stats_snapshot_during_pooled_load(self):
        """The TCP ``stats`` path stays consistent while windows execute."""
        rf = PRFe(0.9)
        datasets = [make_relation(15, seed) for seed in range(100, 108)]

        async def scenario():
            pool = thread_pool(2)
            async with PooledRankingService(
                pool, max_delay=0.001, cache_ttl=0.0
            ) as service:
                submissions = [
                    service.submit(datasets[i % len(datasets)], rf)
                    for i in range(32)
                ]
                snapshots = []
                gather = asyncio.gather(*submissions, return_exceptions=True)
                for _ in range(50):
                    snapshots.append(service.stats_snapshot())
                    await asyncio.sleep(0)
                outcomes = await gather
                snapshots.append(service.stats_snapshot())
                return outcomes, snapshots

        outcomes, snapshots = run(scenario())
        assert all(isinstance(o, ServiceReply) for o in outcomes)
        for snapshot in snapshots:
            disposed = (
                snapshot["cache_hits"] + snapshot["deduplicated"] + snapshot["shed"]
            )
            assert snapshot["requests"] >= disposed
            assert snapshot["executed"] >= snapshot["batches"] >= 0


# ----------------------------------------------------------------------
# Metrics endpoint
# ----------------------------------------------------------------------
class TestMetricsEndpoint:
    def test_render_metrics_covers_service_and_pool_counters(self):
        rel = make_relation(20, 110)

        async def scenario():
            pool = thread_pool(2)
            async with PooledRankingService(pool, max_delay=0.001) as service:
                await service.submit(rel, PRFe(0.9), name=rel.name)
                return render_metrics(service.stats_snapshot())

        text = run(scenario())
        assert "# TYPE repro_service_requests_total counter" in text
        assert "repro_service_requests_total 1" in text
        assert 'repro_pool_shard_up{shard="0"} 1' in text
        assert 'repro_pool_shard_depth{shard="1"} 0' in text
        assert 'repro_pool_dispatched_total{shard="' in text
        assert "repro_pool_worker_restarts_total 0" in text
        # Each metric family appears exactly once (labeled and unlabeled
        # samples must not share a name in a Prometheus exposition).
        families = [
            line.split()[2] for line in text.splitlines() if line.startswith("# TYPE")
        ]
        assert len(families) == len(set(families))
        assert text.endswith("\n")

    def test_metrics_op_over_tcp(self):
        rel = make_relation(20, 111)

        async def scenario():
            pool = thread_pool(2)
            async with PooledRankingService(pool, max_delay=0.001) as service:
                server = await serve_tcp(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                client = await TCPRankingClient.connect("127.0.0.1", port)
                try:
                    await client.rank(rel, PRFe(0.9), name=rel.name)
                finally:
                    await client.close()
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b'{"id": 1, "op": "metrics"}\n')
                await writer.drain()
                import json

                response = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                return response

        response = run(scenario())
        assert response["ok"] is True
        assert "repro_service_requests_total" in response["metrics"]
        assert "repro_pool_shards" in response["metrics"]

    def test_http_get_metrics_fast_path(self):
        rel = make_relation(20, 112)

        async def scenario():
            pool = thread_pool(2)
            async with PooledRankingService(pool, max_delay=0.001) as service:
                await service.submit(rel, PRFe(0.9), name=rel.name)
                server = await serve_tcp(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                return raw.decode()

        raw = run(scenario())
        head, _, body = raw.partition("\r\n\r\n")
        assert head.startswith("HTTP/1.0 200 OK")
        assert "text/plain" in head
        assert "repro_service_requests_total 1" in body
        assert f"Content-Length: {len(body.encode())}" in head

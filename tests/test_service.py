"""Concurrency correctness of the coalescing ranking service.

The contracts under test:

* replies are bit-identical to direct ``Engine.rank`` calls for every
  correlation model and ranking-function family member, no matter how
  the requests were coalesced;
* identical in-flight requests deduplicate onto one engine execution
  (keyed by content fingerprints, not object identity);
* admission is bounded — excess load sheds with
  ``ServiceOverloadedError`` instead of queueing unboundedly;
* completed replies are served from the TTL cache until expiry;
* the JSON-lines TCP front-end round-trips datasets, specs and float
  values exactly.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro import PRF, Engine, PRFe, PRFOmega, ProbabilisticRelation, Tuple
from repro.andxor.tree import AndXorTree
from repro.core.weights import NDCGDiscountWeight, StepWeight
from repro.engine.cache import dataset_fingerprint
from repro.graphical import MarkovChainRelation
from repro.service import (
    AsyncRankingClient,
    ProtocolError,
    RankingService,
    RemoteServiceError,
    ServiceOverloadedError,
    TCPRankingClient,
    TTLCache,
    dataset_from_payload,
    dataset_to_payload,
    ranking_function_from_payload,
    ranking_function_key,
    ranking_function_to_payload,
    serve_tcp,
)


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
    for _ in range(8):
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


class CountingEngine(Engine):
    """An engine recording every batch it executes (datasets per call)."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.calls: list[int] = []
        self.block: threading.Event | None = None

    def rank_batch(self, datasets, rf, **kwargs):
        datasets = list(datasets)
        self.calls.append(len(datasets))
        if self.block is not None:
            self.block.wait(timeout=10.0)
        return super().rank_batch(datasets, rf, **kwargs)


class TestBitwiseEquality:
    def test_coalesced_replies_match_direct_engine_across_models(self):
        datasets = [
            make_relation(60, seed=1),
            make_relation(60, seed=2),
            make_relation(35, seed=3),
            make_tree(seed=4),
            make_tree(seed=5),
            make_network(seed=6),
        ]
        specs = [PRFe(0.95), PRFOmega(StepWeight(5)), PRF(NDCGDiscountWeight())]
        requests = [(data, rf) for rf in specs for data in datasets]

        async def serve():
            async with RankingService(Engine(), max_delay=0.01) as service:
                client = AsyncRankingClient(service)
                return await client.rank_all(requests)

        results = run(serve())
        for (data, rf), result in zip(requests, results):
            reference = Engine().rank(data, rf)
            assert_bitwise_equal(result, reference, context=f"{rf!r} on {type(data).__name__}")

    def test_requests_coalesce_into_few_batches(self):
        relations = [make_relation(40, seed=i) for i in range(12)]

        async def serve():
            async with RankingService(Engine(), max_delay=0.05) as service:
                client = AsyncRankingClient(service)
                await client.rank_all([(r, PRFe(0.9)) for r in relations])
                return service.stats

        stats = run(serve())
        assert stats.requests == 12
        assert stats.batches < 12
        assert stats.largest_batch > 1

    def test_max_batch_bounds_every_window(self):
        relations = [make_relation(25, seed=100 + i) for i in range(10)]

        async def serve():
            async with RankingService(
                CountingEngine(), max_batch=4, max_delay=0.05
            ) as service:
                client = AsyncRankingClient(service)
                replies = await asyncio.gather(
                    *(service.submit(r, PRFe(0.9)) for r in relations)
                )
                return service.engine.calls, replies

        calls, replies = run(serve())
        assert all(size <= 4 for size in calls)
        assert all(reply.batch_size <= 4 for reply in replies)

    def test_named_requests_keep_their_label(self):
        relation = make_relation(10, seed=7)

        async def serve():
            async with RankingService(Engine()) as service:
                reply = await service.submit(relation, PRFe(0.9), name="labelled")
                return reply

        reply = run(serve())
        assert reply.result.name == "labelled"
        assert_bitwise_equal(reply.result, Engine().rank(relation, PRFe(0.9), name="labelled"))

    def test_reply_carries_planner_tags(self):
        async def serve():
            async with RankingService(Engine()) as service:
                return (
                    await service.submit(make_relation(10, seed=8), PRFe(0.9)),
                    await service.submit(make_tree(seed=9), PRFe(0.9)),
                    await service.submit(make_network(seed=10), PRFe(0.9)),
                )

        independent, tree, markov = run(serve())
        assert independent.model == "independent"
        assert tree.model == "andxor"
        assert "Algorithm 3" in tree.algorithm
        assert markov.model == "markov"


class TestDeduplication:
    def test_identical_inflight_requests_execute_once(self):
        relation = make_relation(50, seed=11)

        async def serve():
            engine = CountingEngine()
            async with RankingService(engine, max_delay=0.05, cache_ttl=0.0) as service:
                replies = await asyncio.gather(
                    *(service.submit(relation, PRFe(0.95)) for _ in range(10))
                )
                return engine, service.stats, replies

        engine, stats, replies = run(serve())
        assert engine.calls == [1]
        assert stats.deduplicated == 9
        reference = Engine().rank(relation, PRFe(0.95))
        for reply in replies:
            assert_bitwise_equal(reply.result, reference)
        assert sum(1 for reply in replies if reply.deduplicated) == 9

    def test_dedup_is_content_based_not_identity_based(self):
        pairs = [(float(i), 0.1 + 0.05 * i) for i in range(10)]
        first = ProbabilisticRelation.from_pairs(pairs, name="same")
        second = ProbabilisticRelation.from_pairs(pairs, name="same")
        assert first is not second
        assert dataset_fingerprint(first) == dataset_fingerprint(second)

        async def serve():
            engine = CountingEngine()
            async with RankingService(engine, max_delay=0.05, cache_ttl=0.0) as service:
                replies = await asyncio.gather(
                    service.submit(first, PRFe(0.9)), service.submit(second, PRFe(0.9))
                )
                return engine, replies

        engine, replies = run(serve())
        assert engine.calls == [1]
        assert_bitwise_equal(replies[0].result, replies[1].result)

    def test_opaque_specs_do_not_dedup_but_still_serve(self):
        relation = make_relation(15, seed=12)
        rf = PRF([1.0, 0.5], tuple_factor=lambda t: 1.0)
        assert ranking_function_key(rf) is None

        async def serve():
            engine = CountingEngine()
            async with RankingService(engine, max_delay=0.05) as service:
                replies = await asyncio.gather(
                    *(service.submit(relation, rf) for _ in range(3))
                )
                return engine, service.stats, replies

        engine, stats, replies = run(serve())
        assert stats.deduplicated == 0
        assert sum(engine.calls) == 3
        reference = Engine().rank(relation, rf)
        for reply in replies:
            assert_bitwise_equal(reply.result, reference)


class TestBackpressure:
    def test_overload_sheds_with_explicit_error(self):
        relations = [make_relation(20, seed=200 + i) for i in range(6)]

        async def serve():
            engine = CountingEngine()
            engine.block = threading.Event()
            async with RankingService(
                engine, max_pending=3, max_delay=0.0, cache_ttl=0.0
            ) as service:
                admitted = [
                    asyncio.create_task(service.submit(r, PRFe(0.9)))
                    for r in relations[:3]
                ]
                await asyncio.sleep(0.05)  # let the window close and execution block
                assert service.pending() == 3
                with pytest.raises(ServiceOverloadedError):
                    await service.submit(relations[3], PRFe(0.9))
                shed_count = service.stats.shed
                engine.block.set()
                replies = await asyncio.gather(*admitted)
                return shed_count, service.stats, replies

        shed_count, stats, replies = run(serve())
        assert shed_count == 1
        assert stats.shed == 1
        assert len(replies) == 3
        for relation, reply in zip(relations[:3], replies):
            assert_bitwise_equal(reply.result, Engine().rank(relation, PRFe(0.9)))

    def test_duplicates_do_not_consume_admission_slots(self):
        relation = make_relation(20, seed=13)

        async def serve():
            engine = CountingEngine()
            engine.block = threading.Event()
            async with RankingService(
                engine, max_pending=1, max_delay=0.0, cache_ttl=0.0
            ) as service:
                first = asyncio.create_task(service.submit(relation, PRFe(0.9)))
                await asyncio.sleep(0.05)
                # An identical request piggybacks instead of being shed.
                second = asyncio.create_task(service.submit(relation, PRFe(0.9)))
                await asyncio.sleep(0.01)
                engine.block.set()
                replies = await asyncio.gather(first, second)
                return service.stats, replies

        stats, replies = run(serve())
        assert stats.shed == 0
        assert stats.deduplicated == 1
        assert_bitwise_equal(replies[0].result, replies[1].result)


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTTLCache:
    def test_entries_expire_after_ttl(self):
        clock = FakeClock()
        cache = TTLCache(ttl=5.0, max_entries=4, clock=clock)
        cache.put("a", 1)
        assert cache.get("a") == 1
        clock.advance(4.9)
        assert cache.get("a") == 1
        clock.advance(0.2)
        assert cache.get("a") is None

    def test_lru_bound(self):
        cache = TTLCache(ttl=100.0, max_entries=2, clock=FakeClock())
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3

    def test_zero_ttl_disables_caching(self):
        cache = TTLCache(ttl=0.0, max_entries=4)
        cache.put("a", 1)
        assert cache.get("a") is None

    def test_service_serves_cached_reply_until_expiry(self):
        relation = make_relation(30, seed=14)
        clock = FakeClock()

        async def serve():
            engine = CountingEngine()
            async with RankingService(
                engine, max_delay=0.0, cache_ttl=10.0, cache_clock=clock
            ) as service:
                first = await service.submit(relation, PRFe(0.95))
                warm = await service.submit(relation, PRFe(0.95))
                clock.advance(11.0)
                cold = await service.submit(relation, PRFe(0.95))
                return engine, service.stats, first, warm, cold

        engine, stats, first, warm, cold = run(serve())
        assert engine.calls == [1, 1]  # second engine call only after expiry
        assert stats.cache_hits == 1
        assert not first.cached and warm.cached and not cold.cached
        assert_bitwise_equal(warm.result, first.result)
        assert_bitwise_equal(cold.result, first.result)

    def test_cache_key_includes_label(self):
        relation = make_relation(10, seed=15)

        async def serve():
            engine = CountingEngine()
            async with RankingService(engine, max_delay=0.0) as service:
                a = await service.submit(relation, PRFe(0.9), name="first")
                b = await service.submit(relation, PRFe(0.9), name="second")
                return a, b

        a, b = run(serve())
        assert a.result.name == "first"
        assert b.result.name == "second"
        assert not b.cached


class TestLifecycle:
    def test_submit_requires_running_service(self):
        service = RankingService(Engine())

        async def attempt():
            with pytest.raises(RuntimeError, match="not running"):
                await service.submit(make_relation(5, seed=16), PRFe(0.9))

        run(attempt())

    def test_stats_snapshot_includes_engine_cache(self):
        async def serve():
            async with RankingService(Engine()) as service:
                await service.submit(make_relation(5, seed=17), PRFe(0.9))
                return service.stats_snapshot()

        snapshot = run(serve())
        assert snapshot["requests"] == 1
        assert "hits" in snapshot["engine_cache"]
        assert "entries" in snapshot["engine_cache"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_pending": 0},
            {"max_delay": -0.005},
            {"max_delay": float("nan")},
            {"max_delay": float("inf")},
        ],
        ids=["batch-zero", "pending-zero", "delay-negative", "delay-nan", "delay-inf"],
    )
    def test_constructor_rejects_invalid_bounds(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=name):
            RankingService(Engine(), **kwargs)


class TestAdaptiveWindow:
    def test_lone_request_does_not_wait_out_max_delay(self):
        relation = make_relation(20, seed=18)

        async def serve():
            async with RankingService(Engine(), max_delay=1.0) as service:
                start = time.monotonic()
                reply = await service.submit(relation, PRFe(0.9))
                return reply, time.monotonic() - start

        reply, elapsed = run(serve())
        assert elapsed < 0.2
        assert reply.batch_size == 1
        assert_bitwise_equal(reply.result, Engine().rank(relation, PRFe(0.9)))

    def test_dense_arrivals_still_coalesce(self):
        relations = [make_relation(20, seed=300 + i) for i in range(12)]

        async def serve():
            async with RankingService(
                Engine(), max_batch=1024, max_delay=0.2
            ) as service:
                tasks = []
                for relation in relations:
                    tasks.append(asyncio.create_task(service.submit(relation, PRFe(0.9))))
                    await asyncio.sleep(0.005)
                replies = await asyncio.gather(*tasks)
                return service.stats, replies

        stats, replies = run(serve())
        assert stats.requests == len(relations)
        assert stats.batches < stats.requests
        for relation, reply in zip(relations, replies):
            assert_bitwise_equal(reply.result, Engine().rank(relation, PRFe(0.9)))


class TestWireCodecs:
    @pytest.mark.parametrize(
        "rf",
        [
            PRFe(0.95),
            PRFe(0.3 + 0.4j),
            PRFOmega([1.0, 0.5, 0.25]),
            PRFOmega(StepWeight(7)),
            PRF(NDCGDiscountWeight()),
        ],
    )
    def test_ranking_function_roundtrip_preserves_key(self, rf):
        payload = ranking_function_to_payload(rf)
        rebuilt = ranking_function_from_payload(payload)
        assert ranking_function_key(rebuilt) == ranking_function_key(rf)

    def test_alpha_keys_distinguish_kernel_steering_types(self):
        # PRFe(0.95) runs the log-space kernel, PRFe(complex(0.95, 0.0))
        # the direct-product kernel; sharing a dedup/cache key would let
        # one caller receive the other kernel's (last-ulp different,
        # underflow-prone) values.
        assert ranking_function_key(PRFe(0.95)) != ranking_function_key(
            PRFe(complex(0.95, 0.0))
        )
        assert ranking_function_key(PRFe(0.95)) == ranking_function_key(PRFe(0.95))

    def test_decoded_prfe_stays_on_the_log_space_kernel(self):
        # A real alpha must decode back to a float: a zero-imaginary
        # complex would steer the engine off the real-alpha log-space
        # kernel and perturb the last ulp versus a local PRFe(alpha).
        relation = make_relation(40, seed=25)
        rf = PRFe(0.95)
        decoded = ranking_function_from_payload(ranking_function_to_payload(rf))
        assert isinstance(decoded.alpha, float)
        assert_bitwise_equal(Engine().rank(relation, decoded), Engine().rank(relation, rf))

    def test_relation_roundtrip_preserves_fingerprint(self):
        relation = make_relation(20, seed=18)
        rebuilt = dataset_from_payload(dataset_to_payload(relation))
        assert dataset_fingerprint(rebuilt) == dataset_fingerprint(relation)

    def test_tree_roundtrip_preserves_fingerprint(self):
        tree = make_tree(seed=19)
        rebuilt = dataset_from_payload(dataset_to_payload(tree))
        assert dataset_fingerprint(rebuilt) == dataset_fingerprint(tree)

    def test_markov_networks_are_in_process_only(self):
        with pytest.raises(ProtocolError, match="in-process"):
            dataset_to_payload(make_network(seed=20))

    def test_tuple_factor_specs_cannot_cross_the_wire(self):
        with pytest.raises(ProtocolError, match="tuple_factor"):
            ranking_function_to_payload(PRF([1.0], tuple_factor=lambda t: 1.0))

    def test_unknown_payloads_are_rejected(self):
        with pytest.raises(ProtocolError):
            ranking_function_from_payload({"type": "no-such-spec"})
        with pytest.raises(ProtocolError):
            dataset_from_payload({"kind": "no-such-kind"})


class TestTCPFrontend:
    def test_end_to_end_rank_matches_direct_engine(self):
        relation = make_relation(40, seed=21)
        tree = make_tree(seed=22)

        async def serve():
            async with RankingService(Engine(), max_delay=0.005) as service:
                server = await serve_tcp(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                client = await TCPRankingClient.connect("127.0.0.1", port)
                try:
                    flat = await client.rank(relation, PRFOmega(StepWeight(8)))
                    top = await client.top_k(tree, PRFe(0.95), k=3)
                    detailed = await client.rank_detailed(relation, PRFOmega(StepWeight(8)))
                    stats = await client.stats()
                    latency = await client.ping()
                finally:
                    await client.close()
                    server.close()
                    await server.wait_closed()
                return flat, top, detailed, stats, latency

        flat, top, detailed, stats, latency = run(serve())
        reference = Engine().rank(relation, PRFOmega(StepWeight(8)))
        assert [tid for tid, _ in flat] == reference.tids()
        assert [value for _, value in flat] == [item.value for item in reference]
        assert top == Engine().rank(tree, PRFe(0.95)).top_k(3)
        assert detailed["cached"] is True  # identical request repeated
        assert detailed["model"] == "independent"
        assert stats["requests"] >= 2
        assert latency >= 0.0

    def test_register_then_rank_by_reference(self):
        relation = make_relation(25, seed=23)

        async def serve():
            async with RankingService(Engine(), max_delay=0.0) as service:
                server = await serve_tcp(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                client = await TCPRankingClient.connect("127.0.0.1", port)
                try:
                    await client.register("hot", relation)
                    ranking = await client.rank("hot", PRFe(0.5), k=5)
                finally:
                    await client.close()
                    server.close()
                    await server.wait_closed()
                return ranking

        ranking = run(serve())
        reference = Engine().rank(relation, PRFe(0.5))
        assert [tid for tid, _ in ranking] == reference.top_k(5)

    def test_protocol_errors_keep_the_connection_alive(self):
        relation = make_relation(10, seed=24)

        async def serve():
            async with RankingService(Engine(), max_delay=0.0) as service:
                server = await serve_tcp(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                client = await TCPRankingClient.connect("127.0.0.1", port)
                try:
                    with pytest.raises(RemoteServiceError) as excinfo:
                        await client.rank("never-registered", PRFe(0.9))
                    kind = excinfo.value.kind
                    # The same connection still serves valid requests.
                    ranking = await client.rank(relation, PRFe(0.9), k=2)
                finally:
                    await client.close()
                    server.close()
                    await server.wait_closed()
                return kind, ranking

        kind, ranking = run(serve())
        assert kind == "protocol"
        assert [tid for tid, _ in ranking] == Engine().rank(relation, PRFe(0.9)).top_k(2)

    def test_registry_is_bounded(self):
        relation = make_relation(5, seed=26)

        async def serve():
            async with RankingService(Engine(), max_delay=0.0) as service:
                server = await serve_tcp(service, "127.0.0.1", 0, max_registered=2)
                port = server.sockets[0].getsockname()[1]
                client = await TCPRankingClient.connect("127.0.0.1", port)
                try:
                    await client.register("a", relation)
                    await client.register("b", relation)
                    with pytest.raises(RemoteServiceError) as excinfo:
                        await client.register("c", relation)
                    kind = excinfo.value.kind
                    # Refreshing an existing name still succeeds.
                    await client.register("a", relation)
                    ranking = await client.rank("a", PRFe(0.9), k=2)
                finally:
                    await client.close()
                    server.close()
                    await server.wait_closed()
                return kind, ranking

        kind, ranking = run(serve())
        assert kind == "overloaded"
        assert [tid for tid, _ in ranking] == Engine().rank(relation, PRFe(0.9)).top_k(2)

    def test_concurrent_pipelined_requests_coalesce(self):
        relations = [make_relation(30, seed=300 + i) for i in range(8)]

        async def serve():
            engine = CountingEngine()
            async with RankingService(engine, max_delay=0.05) as service:
                server = await serve_tcp(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                client = await TCPRankingClient.connect("127.0.0.1", port)
                try:
                    rankings = await asyncio.gather(
                        *(client.rank(r, PRFe(0.9), k=3) for r in relations)
                    )
                finally:
                    await client.close()
                    server.close()
                    await server.wait_closed()
                return engine, service.stats, rankings

        engine, stats, rankings = run(serve())
        assert stats.requests == 8
        assert stats.batches < 8
        for relation, ranking in zip(relations, rankings):
            assert [tid for tid, _ in ranking] == Engine().rank(relation, PRFe(0.9)).top_k(3)

"""Regression tests for cache-entry races surfaced by ``repro.analysis``.

The LOCK201 checker flagged every ``shed()`` implementation for mutating
lock-guarded attributes without the lock.  These tests pin the two
behavior-visible consequences:

* ``CachedNetwork.calibrated()`` used to re-read ``self.base_calibrated``
  *after* releasing the entry lock, so a concurrent ``shed()`` (budget
  enforcement on another thread) could hand the caller ``None``;
* an unlocked ``shed()`` could interleave with ``prefix_matrix`` growth.

Both are driven deterministically by wrapping the entry lock so that a
``shed()`` fires in the exact window between lock release and the read
the old code performed.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import Engine, PRFe, PRFOmega, ProbabilisticRelation, Tuple
from repro.andxor.tree import AndXorTree
from repro.core.columnar import ColumnarRelation
from repro.core.weights import StepWeight
from repro.datasets.synthetic import syn_xor
from repro.engine.cache import RelationCache, dataset_fingerprint
from repro.graphical import MarkovChainRelation, MarkovNetworkRelation


def make_network(seed: int = 0):
    rng = np.random.default_rng(seed)
    tuples = [
        Tuple(f"m{i}", float(score), 1.0)
        for i, score in enumerate(rng.permutation(60)[:6])
    ]
    chain = MarkovChainRelation.homogeneous(tuples, 0.6, 0.7, 0.8, name=f"race-{seed}")
    return chain.to_markov_network()


class ShedOnRelease:
    """Lock proxy that runs ``entry.shed()`` right after *every* release.

    This schedules a shed in the exact window the old ``calibrated()``
    implementation left open: after its ``with self.lock:`` block
    released, before it re-read the attribute.  A guard stops the
    recursion that the (now lock-taking) ``shed()`` would otherwise
    trigger.
    """

    def __init__(self, entry):
        self.entry = entry
        self.inner = entry.lock
        self._firing = False

    def __enter__(self):
        return self.inner.__enter__()

    def __exit__(self, *exc_info):
        result = self.inner.__exit__(*exc_info)
        if not self._firing:
            self._firing = True
            try:
                self.entry.shed()
            finally:
                self._firing = False
        return result

    def acquire(self, *args, **kwargs):
        return self.inner.acquire(*args, **kwargs)

    def release(self):
        return self.inner.release()


class TestCalibratedShedRace:
    def test_calibrated_survives_concurrent_shed(self):
        """A shed landing right after calibration must not surface ``None``.

        Regression: ``calibrated()`` returned ``self.base_calibrated``
        read *outside* the lock, so the shed below made it return
        ``None`` and the Markov backend crashed on a ``NoneType``.
        """
        cache = RelationCache()
        entry = cache.entry_for(make_network())  # builds the junction tree
        entry.lock = ShedOnRelease(entry)
        calibrated = entry.calibrated()
        assert calibrated is not None
        # The armed shed emptied the cached slot right after the lock
        # released; the caller still holds a usable calibration.
        assert entry.base_calibrated is None

    def test_positional_matrix_survives_concurrent_shed(self):
        """Same window for the DP matrix: a shed must cost a recompute, not a crash."""
        cache = RelationCache()
        network = make_network(1)
        entry = cache.entry_for(network)
        entry.lock = ShedOnRelease(entry)
        matrix = entry.positional_matrix(network, 4)
        assert matrix.shape[1] == 4
        assert np.all(np.isfinite(matrix))

    def test_shed_is_atomic_under_prefix_growth_hammer(self):
        """Concurrent shed/grow threads never corrupt a served matrix."""
        cache = RelationCache()
        rng = np.random.default_rng(7)
        tuples = [
            Tuple(f"t{i}", float(s), float(p))
            for i, (s, p) in enumerate(zip(rng.permutation(40), rng.uniform(0.1, 1.0, 40)))
        ]
        from repro import ProbabilisticRelation

        entry = cache.entry_for(ProbabilisticRelation(tuples, name="hammer"))
        reference = entry.prefix_matrix(8).copy()
        errors = []
        stop = threading.Event()

        def shedder():
            while not stop.is_set():
                entry.shed()

        def grower():
            for _ in range(200):
                try:
                    matrix = entry.prefix_matrix(8)
                    if matrix.shape != reference.shape or not np.array_equal(
                        matrix, reference
                    ):
                        errors.append("matrix mismatch")
                        break
                except Exception as exc:  # noqa: BLE001 - the regression itself
                    errors.append(repr(exc))
                    break

        threads = [threading.Thread(target=shedder)] + [
            threading.Thread(target=grower) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads[1:]:
            t.join()
        stop.set()
        threads[0].join()
        assert errors == []

    def test_ranking_still_bit_identical_after_shed(self):
        """End-to-end: shedding between ranks changes nothing in the output."""
        network = make_network(2)
        engine = Engine()
        before = engine.rank(network, PRFe(0.9), name="net")
        entry = engine.cache.entry_for(network)
        entry.shed()
        after = engine.rank(network, PRFe(0.9), name="net")
        assert before.tids() == after.tids()
        assert [i.value for i in before] == [i.value for i in after]
        assert dataset_fingerprint(network) == dataset_fingerprint(network)


def make_forest(seed: int = 3):
    """Two chains in one network (a two-component junction forest)."""
    rng = np.random.default_rng(seed)
    scores = rng.permutation(400)[:24]
    parts = [
        MarkovChainRelation.homogeneous(
            [Tuple(f"{prefix}{i}", float(scores[offset + i]), 1.0) for i in range(size)],
            0.6, 0.7, 0.8,
        ).to_markov_network()
        for prefix, offset, size in (("a", 0, 16), ("b", 16, 8))
    ]
    tuples = [t for part in parts for t in part.tuples]
    factors = [f for part in parts for f in part.factors]
    return MarkovNetworkRelation(tuples, factors, name=f"forest-{seed}")


class TestSharedNetworkColdRank:
    def test_engines_on_threads_cold_rank_one_shared_network(self):
        """Four engines on four threads cold-rank one network object at once.

        The junction tree and its evidence-free calibration hang off the
        model (``junction_tree_for``), so the engines share them; every
        thread must still get the serial answer bit for bit.
        """
        specs = [PRFe(0.9), PRFOmega(StepWeight(5))]

        def items(result):
            return [(item.tid, item.value) for item in result]

        # Serial answer on a content-equal twin, so the shared object's
        # tree is first built under contention.
        serial = [items(Engine().rank(make_forest(), rf)) for rf in specs]

        def worker(shared, barrier, slot: int) -> None:
            try:
                engine = Engine()
                barrier.wait()
                results[slot] = [items(engine.rank(shared, rf)) for rf in specs]
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                shared = make_forest()
                barrier = threading.Barrier(4)
                results: list = [None] * 4
                errors: list[BaseException] = []
                threads = [
                    threading.Thread(target=worker, args=(shared, barrier, slot))
                    for slot in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert errors == []
                assert all(result == serial for result in results)
        finally:
            sys.setswitchinterval(interval)


def twin_forms(form: str, count: int, n: int = 40):
    """``count`` distinct, content-equal datasets of one kind."""
    if form == "tree":
        return [syn_xor(n, rng=13) for _ in range(count)]
    if form == "network":
        return [make_forest() for _ in range(count)]
    rng = np.random.default_rng(13)
    scores = rng.permutation(n).astype(float)
    probabilities = rng.uniform(0.05, 1.0, size=n)
    if form == "columnar":
        return [ColumnarRelation(scores.copy(), probabilities.copy()) for _ in range(count)]
    return [ProbabilisticRelation.from_arrays(scores, probabilities) for _ in range(count)]


def own_tuples(twin) -> dict:
    """A tuple-carrying dataset's own ``Tuple`` objects by identifier."""
    tuples = twin.tuples() if isinstance(twin, AndXorTree) else twin.tuples
    return {t.tid: t for t in tuples}


class TestTwinsOnThreads:
    @pytest.mark.parametrize("form", ["tuple", "columnar", "tree", "network"])
    def test_every_result_refers_to_the_callers_twin(self, form):
        """Threads ranking content-equal twins through one engine keep their own objects.

        Regression: a cache hit repointed the one shared entry at the
        caller's dataset (or its ``Tuple`` list) while other threads were
        still building results from it, so results referred to another
        thread's relation or carried another caller's tuples.  And/xor
        trees and Markov networks are covered too: their entries used to
        rebind their sorted ``Tuple`` list to each hitting twin.
        """
        workers, rounds = 4, 100
        engine = Engine()
        specs = [PRFe(0.9), PRFOmega(StepWeight(5))]
        twins = twin_forms(form, workers)
        engine.rank(twins[0], specs[0])

        def worker(twin, barrier, slot: int) -> None:
            try:
                barrier.wait()
                for _ in range(rounds):
                    for rf in specs:
                        collected[slot].append(engine.rank(twin, rf))
                        collected[slot].append(engine.rank_batch([twin], rf)[0])
                    collected[slot].append(engine.rank_top_k(twin, specs[0], 5)[0])
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            barrier = threading.Barrier(workers)
            collected: list[list] = [[] for _ in range(workers)]
            errors: list[BaseException] = []
            threads = [
                threading.Thread(target=worker, args=(twin, barrier, slot))
                for slot, twin in enumerate(twins)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        foreign = 0
        for twin, results in zip(twins, collected):
            assert len(results) == rounds * (2 * len(specs) + 1)
            if form == "columnar":
                full = [r for r in results if hasattr(r, "relation")]
                assert len(full) == rounds * 2 * len(specs)
                foreign += sum(r.relation is not twin for r in full)
            else:
                own = own_tuples(twin)
                foreign += sum(
                    item.item is not own[item.tid] for r in results for item in r
                )
        assert foreign == 0


class TestExtrasByteCount:
    def test_running_count_survives_concurrent_writers(self):
        """Threads storing, overwriting and deleting shared memo keys lose no update."""
        entry = RelationCache().entry_for(syn_xor(30, rng=5))
        extras = entry.extras
        sizes = (1, 3, 8, 21)

        def writer(slot: int, barrier) -> None:
            try:
                barrier.wait()
                for step in range(3000):
                    key = ("prfe", float(step % 5))  # keys shared across threads
                    if step % 7 == slot:
                        try:
                            del extras[key]
                        except KeyError:
                            pass
                    else:
                        size = sizes[(step + slot) % len(sizes)]
                        extras[key] = np.zeros(size) if step % 2 else (np.zeros(size), 1, 0.5)
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            barrier = threading.Barrier(4)
            errors: list[BaseException] = []
            threads = [threading.Thread(target=writer, args=(slot, barrier)) for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        recount = 0
        for value in dict.values(extras):
            parts = value if isinstance(value, tuple) else (value,)
            recount += sum(part.nbytes for part in parts if isinstance(part, np.ndarray))
        assert extras.nbytes == recount

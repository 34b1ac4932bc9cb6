"""Sharded Engine worker pool with fault injection behind the coalescer.

The PR-3 service coalesces all traffic onto one in-process engine — one
GIL-bound process, one point of failure.  This module scales and
hardens that tier:

* :class:`WorkerPool` — N engine workers (real processes by default,
  in-process :class:`ThreadWorker` instances for deterministic tests
  and single-core deployments), each owning a stable slice of the
  dataset universe through fingerprint-affinity routing
  (:mod:`repro.service.router`), so every worker's LRU fingerprint
  cache stays hot for the datasets it serves.  Hot fingerprints fan out
  across replica shards; per-shard queues are bounded and shed with
  :class:`~repro.service.service.ServiceOverloadedError`; dead workers
  are respawned and their in-flight work re-dispatched with bounded
  retry and exponential backoff; wedged workers (dropped replies) are
  detected by a reply timeout, killed and restarted.
* :class:`PooledRankingService` — the existing coalescing admission
  tier (:class:`~repro.service.service.RankingService`: micro-batching,
  dedup, TTL cache, admission bound) with execution routed through the
  pool instead of one engine.  Windows pipeline: while workers compute
  one window the loop is already coalescing the next.
* :class:`FaultPlan` — a *seeded* fault-injection layer threaded
  through the pool's dispatch path.  Faults (kill worker mid-batch,
  delay a dispatch, drop a reply) are drawn deterministically per
  (shard, dispatch sequence) from :func:`~repro.service.router.
  stable_hash`-derived streams, so chaos scenarios replay exactly and
  the chaos suite in ``tests/test_pool.py`` is reproducible.

Replies remain **bit-identical** to direct ``Engine.rank``: workers run
the same planner/backends, datasets cross the process boundary by
pickling with exact float round-trip, and the pool only routes results.

Dataset shipping is *send-once*: the parent tracks which fingerprints a
worker already holds and sends only references afterwards; a worker
that evicted a dataset replies ``need`` and the parent re-sends, so the
protocol self-heals across worker LRU evictions and restarts.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import multiprocessing
import queue
import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Sequence

from ..core.prf import RankingFunction
from ..core.result import RankingResult
from ..engine.cache import dataset_fingerprint
from ..engine.facade import Engine
from .resilience import (
    BREAKER_OPEN,
    BreakerConfig,
    CircuitBreaker,
    DegradePolicy,
    HedgePolicy,
    LatencyWindow,
    median_or_none,
)
from .router import FingerprintRouter, HotSpotTracker, stable_hash
from .service import (
    DeadlineExceededError,
    RankingService,
    ServiceOverloadedError,
    ServiceReply,
    _PendingRequest,
)
from .spec import ranking_function_key

__all__ = [
    "Fault",
    "FaultPlan",
    "WorkerDiedError",
    "ShardRetiredError",
    "ShardStats",
    "ProcessWorker",
    "ThreadWorker",
    "WorkerPool",
    "PooledRankingService",
]


class WorkerDiedError(RuntimeError):
    """A worker crashed (or was killed) while holding dispatched work."""


class ShardRetiredError(RuntimeError):
    """A dispatch targeted a shard retired by a live shrink.

    Deliberately *not* a :class:`ServiceOverloadedError`: the request
    was not shed — its routing decision merely raced a resize.  The
    pooled service catches this and re-routes the sub-batch through the
    post-resize router, so admitted requests survive a shrink.
    """


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fault:
    """One injected failure, scripted or drawn from a seeded stream.

    ``kind`` is ``"kill"`` (hard-kill the worker right after the batch
    is dispatched — mid-batch), ``"delay"`` (sleep ``delay`` seconds
    before dispatching) or ``"drop"`` (discard the worker's reply so the
    pool's reply timeout must recover).  ``shard`` / ``batch`` restrict
    a scripted fault to one shard-local dispatch sequence number;
    ``None`` matches any.
    """

    kind: str
    shard: int | None = None
    batch: int | None = None
    delay: float = 0.01


class FaultPlan:
    """Deterministic, seedable fault injection for the worker pool.

    Parameters
    ----------
    faults:
        Scripted :class:`Fault` objects; each fires at most once, on the
        first dispatch matching its ``shard`` / ``batch`` filters.
    seed:
        Seed of the probabilistic stream.  Draws are keyed by
        ``(seed, shard, sequence)`` through :func:`stable_hash`, so the
        fault at any given dispatch is independent of wall-clock timing
        and thread interleaving — a scenario replays exactly.
    kill_rate / delay_rate / drop_rate:
        Per-dispatch probabilities of each fault kind (evaluated in that
        order from one uniform draw).
    delay:
        Seconds a drawn ``delay`` fault sleeps.
    max_faults:
        Hard bound on total injected faults (scripted + flap + drawn);
        once reached the plan goes quiet, so a chaos run converges back
        to a healthy pool.  ``None`` means unbounded.  The persistent
        ``slow`` skew is exempt: it models a degraded host, not an
        event, and stays until :meth:`clear_slow`.
    slow:
        ``{shard: seconds}`` of *persistent latency skew* — every
        dispatch on the shard sleeps that long (a degraded-host model;
        the breaker is expected to demote and isolate it).  Counted
        separately in :attr:`slow_injected`.
    flap:
        ``{shard: period}`` — the shard's worker is killed on every
        ``period``-th dispatch (periodic kill/recover), so the pool's
        respawn machinery runs continuously.  Flap kills count toward
        ``max_faults``.
    """

    def __init__(
        self,
        faults: Iterable[Fault] = (),
        *,
        seed: int = 0,
        kill_rate: float = 0.0,
        delay_rate: float = 0.0,
        drop_rate: float = 0.0,
        delay: float = 0.01,
        max_faults: int | None = None,
        slow: dict[int, float] | None = None,
        flap: dict[int, int] | None = None,
    ) -> None:
        self.scripted = list(faults)
        self.seed = int(seed)
        self.kill_rate = float(kill_rate)
        self.delay_rate = float(delay_rate)
        self.drop_rate = float(drop_rate)
        self.delay = float(delay)
        self.max_faults = max_faults
        self._slow = dict(slow or {})
        self._flap = dict(flap or {})
        self._fired: set[int] = set()
        self._injected = 0
        self._slow_injected = 0
        self._lock = threading.Lock()

    @property
    def injected(self) -> int:
        """Total event faults injected so far (scripted + flap + drawn)."""
        with self._lock:
            return self._injected

    @property
    def slow_injected(self) -> int:
        """Dispatches delayed by the persistent slow-shard skew."""
        with self._lock:
            return self._slow_injected

    def clear_slow(self, shard: int | None = None) -> None:
        """Lift the persistent latency skew of ``shard`` (or of every shard).

        The chaos soak uses this to model a degraded host recovering, so
        the breaker's half-open re-admission path runs under load.
        """
        with self._lock:
            if shard is None:
                self._slow.clear()
            else:
                self._slow.pop(shard, None)

    def draw(self, shard: int, sequence: int) -> Fault | None:
        """The fault (if any) to inject at dispatch ``sequence`` of ``shard``."""
        with self._lock:
            fault = self._draw_event_locked(shard, sequence)
            if fault is not None:
                return fault
            skew = self._slow.get(shard)
            if skew:
                self._slow_injected += 1
                return Fault("delay", shard=shard, batch=sequence, delay=skew)
            return None

    def _draw_event_locked(self, shard: int, sequence: int) -> Fault | None:
        """One scripted / flap / seeded-random fault, under ``max_faults``."""
        if self.max_faults is not None and self._injected >= self.max_faults:
            return None
        for index, fault in enumerate(self.scripted):
            if index in self._fired:
                continue
            if fault.shard is not None and fault.shard != shard:
                continue
            if fault.batch is not None and fault.batch != sequence:
                continue
            self._fired.add(index)
            self._injected += 1
            return fault
        period = self._flap.get(shard)
        if period is not None and period > 0 and sequence > 0 and sequence % period == 0:
            self._injected += 1
            return Fault("kill", shard=shard, batch=sequence)
        value = random.Random(stable_hash("fault", self.seed, shard, sequence)).random()
        threshold = self.kill_rate
        if value < threshold:
            kind = "kill"
        elif value < (threshold := threshold + self.delay_rate):
            kind = "delay"
        elif value < threshold + self.drop_rate:
            kind = "drop"
        else:
            return None
        self._injected += 1
        return Fault(kind, shard=shard, batch=sequence, delay=self.delay)


# ----------------------------------------------------------------------
# Worker protocol (shared by process and thread workers)
# ----------------------------------------------------------------------
@dataclass
class _JobContext:
    """Parent-side record of one dispatched job (kept for need-resends)."""

    fingerprints: list[str]
    datasets: dict[str, Any]
    rf: RankingFunction
    top_k: int | None
    approx: float | None


def _worker_main(conn: Any, engine_kwargs: dict[str, Any], dataset_cache_entries: int) -> None:
    """Worker-process entry point: serve jobs from ``conn`` until told to stop.

    Bootstraps a private :class:`~repro.engine.facade.Engine`, keeps an
    LRU of datasets keyed by content fingerprint (the send-once
    protocol), and answers ``job`` / ``warm`` / ``ping`` messages.  A
    fingerprint the worker no longer holds produces a ``need`` reply so
    the parent re-sends the payload.
    """
    engine = Engine(**engine_kwargs)
    datasets: "OrderedDict[str, Any]" = OrderedDict()

    def remember(fingerprint: str, data: Any) -> None:
        datasets[fingerprint] = data
        datasets.move_to_end(fingerprint)
        while len(datasets) > dataset_cache_entries:
            datasets.popitem(last=False)

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        job_id = message[1]
        try:
            if kind == "ping":
                conn.send(("ok", job_id, "pong"))
            elif kind == "warm":
                _, _, payloads, rfs = message
                for data in payloads:
                    remember(dataset_fingerprint(data), data)
                conn.send(("ok", job_id, engine.warm(payloads, rfs)))
            elif kind == "job":
                _, _, fingerprints, payloads, rf, top_k, approx = message
                for fingerprint, data in payloads.items():
                    remember(fingerprint, data)
                missing = sorted({fp for fp in fingerprints if fp not in datasets})
                if missing:
                    conn.send(("need", job_id, missing))
                    continue
                batch = [datasets[fp] for fp in fingerprints]
                for fp in fingerprints:
                    datasets.move_to_end(fp)
                kwargs: dict[str, Any] = {}
                if top_k is not None:
                    kwargs["top_k"] = top_k
                if approx is not None:
                    kwargs["approx"] = approx
                conn.send(("ok", job_id, engine.rank_batch(batch, rf, **kwargs)))
            else:  # pragma: no cover - defensive
                conn.send(("err", job_id, RuntimeError(f"unknown message {kind!r}")))
        except Exception as exc:  # noqa: BLE001 - forwarded to the parent
            try:
                conn.send(("err", job_id, exc))
            except Exception:  # noqa: BLE001 - unpicklable exception
                conn.send(("err", job_id, RuntimeError(f"{type(exc).__name__}: {exc}")))
    conn.close()


def default_mp_context() -> str:
    """The preferred multiprocessing start method (``fork`` where available).

    Forked workers start in milliseconds and inherit loaded numpy/scipy
    pages; platforms without ``fork`` fall back to ``spawn``.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class ProcessWorker:
    """One engine worker in a child process, spoken to over a pipe.

    Parameters
    ----------
    shard:
        The shard index this worker serves (naming / diagnostics).
    engine_kwargs:
        Constructor arguments of the worker's private engine.
    dataset_cache_entries:
        LRU bound on datasets the worker retains for the send-once
        shipping protocol.
    mp_context:
        Multiprocessing start method (default: ``fork`` if available).

    A background reader thread matches replies to outstanding futures;
    a writer thread owns the pipe's send side, so ``submit`` only
    enqueues — pickling a large cold dataset into the pipe never blocks
    the caller (the pool calls ``submit`` from the event loop, which
    must keep coalescing and serving connections meanwhile).  Worker
    death (crash, kill, closed pipe) fails every outstanding future
    with :class:`WorkerDiedError`.
    """

    def __init__(
        self,
        shard: int = 0,
        *,
        engine_kwargs: dict[str, Any] | None = None,
        dataset_cache_entries: int = 512,
        mp_context: str | None = None,
    ) -> None:
        self.shard = int(shard)
        self.dataset_cache_entries = int(dataset_cache_entries)
        context = multiprocessing.get_context(mp_context or default_mp_context())
        self._conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_worker_main,
            args=(child_conn, dict(engine_kwargs or {}), self.dataset_cache_entries),
            name=f"rank-worker-{shard}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self._ids = itertools.count(1)
        self._pending: dict[
            int, tuple["concurrent.futures.Future[Any]", _JobContext | None]
        ] = {}
        self._shipped: "OrderedDict[str, None]" = OrderedDict()
        self._state_lock = threading.Lock()
        self._dead = False
        self._send_queue: "queue.SimpleQueue[tuple[Any, ...] | None]" = queue.SimpleQueue()
        self._writer = threading.Thread(
            target=self._write_loop, name=f"rank-worker-{shard}-writer", daemon=True
        )
        self._writer.start()
        self._reader = threading.Thread(
            target=self._read_loop, name=f"rank-worker-{shard}-reader", daemon=True
        )
        self._reader.start()

    @property
    def alive(self) -> bool:
        """Whether the worker process is running and its pipe is intact."""
        return not self._dead and self.process.is_alive()

    # -- dispatch ------------------------------------------------------
    def submit(
        self,
        datasets: Sequence[Any],
        rf: RankingFunction,
        *,
        top_k: int | None = None,
        approx: float | None = None,
    ) -> "concurrent.futures.Future[list[RankingResult]]":
        """Dispatch one batch; the future resolves to its ranked results.

        Raises
        ------
        WorkerDiedError
            If the worker is already dead (the caller should respawn and
            retry through the pool).
        """
        fingerprints = [dataset_fingerprint(data) for data in datasets]
        context = _JobContext(
            fingerprints=fingerprints,
            datasets={fp: data for fp, data in zip(fingerprints, datasets)},
            rf=rf,
            top_k=top_k,
            approx=approx,
        )
        future: "concurrent.futures.Future[list[RankingResult]]" = concurrent.futures.Future()
        job_id = self._register(future, context)
        payloads = self._unshipped_payloads(context, None)
        self._send(("job", job_id, fingerprints, payloads, rf, top_k, approx))
        return future

    def warm(
        self,
        datasets: Sequence[Any],
        rfs: Sequence[RankingFunction] = (),
        timeout: float | None = 60.0,
    ) -> int:
        """Ship ``datasets`` and pre-compute their intermediates on the worker.

        Blocks until the worker acknowledges; returns the number of
        datasets warmed.  The shipped datasets enter the worker's
        send-once cache, so later jobs reference them for free.
        """
        datasets = list(datasets)
        future: "concurrent.futures.Future[int]" = concurrent.futures.Future()
        job_id = self._register(future, None)
        self._send(("warm", job_id, datasets, list(rfs)))
        with self._state_lock:
            for data in datasets:
                self._mark_shipped_locked(dataset_fingerprint(data))
        return future.result(timeout=timeout)

    def ping(self, timeout: float = 5.0) -> float:
        """Round-trip a no-op through the worker; returns seconds taken."""
        start = time.perf_counter()
        future: "concurrent.futures.Future[str]" = concurrent.futures.Future()
        job_id = self._register(future, None)
        self._send(("ping", job_id))
        future.result(timeout=timeout)
        return time.perf_counter() - start

    # -- lifecycle -----------------------------------------------------
    def kill(self) -> None:
        """Hard-kill the worker process (fault injection / wedged worker)."""
        try:
            self.process.kill()
        except Exception:  # noqa: BLE001 - already gone
            pass
        self._on_death(WorkerDiedError(f"worker {self.shard} was killed"))

    def stop(self, timeout: float = 5.0) -> None:
        """Gracefully stop the worker: send ``stop``, join, then kill."""
        if not self._dead:
            try:
                self._send(("stop", None))
            except WorkerDiedError:
                pass
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.kill()
            self.process.join(1.0)
        self._on_death(WorkerDiedError(f"worker {self.shard} stopped"))
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    # -- internals -----------------------------------------------------
    def _register(
        self, future: "concurrent.futures.Future[Any]", context: _JobContext | None
    ) -> int:
        with self._state_lock:
            if self._dead:
                raise WorkerDiedError(f"worker {self.shard} is dead")
            job_id = next(self._ids)
            self._pending[job_id] = (future, context)
            return job_id

    def _unshipped_payloads(
        self, context: _JobContext, missing: list[str] | None
    ) -> dict[str, Any]:
        """Datasets to attach: the not-yet-shipped ones, or an explicit list."""
        with self._state_lock:
            if missing is not None:
                for fingerprint in missing:
                    self._mark_shipped_locked(fingerprint)
                return {fp: context.datasets[fp] for fp in missing if fp in context.datasets}
            payloads: dict[str, Any] = {}
            for fingerprint in context.fingerprints:
                if fingerprint not in self._shipped:
                    payloads[fingerprint] = context.datasets[fingerprint]
                    self._mark_shipped_locked(fingerprint)
            return payloads

    def _mark_shipped_locked(self, fingerprint: str) -> None:
        self._shipped[fingerprint] = None
        self._shipped.move_to_end(fingerprint)
        while len(self._shipped) > self.dataset_cache_entries:
            self._shipped.popitem(last=False)

    def _send(self, message: tuple[Any, ...]) -> None:
        """Queue one message for the writer thread (never blocks on I/O).

        The actual ``conn.send`` pickles the payload into the pipe —
        arbitrarily slow for a large cold dataset — so it runs on the
        worker's writer thread; callers (the event loop, the reader
        thread's need-resend path) only enqueue.  A send failure there
        declares the worker dead and fails its outstanding futures.
        """
        with self._state_lock:
            if self._dead:
                raise WorkerDiedError(f"worker {self.shard} is dead")
        self._send_queue.put(message)

    def _write_loop(self) -> None:
        while True:
            message = self._send_queue.get()
            if message is None:
                return
            try:
                self._conn.send(message)
            # TypeError too: a kill that closes the pipe mid-send leaves
            # Connection._send writing to a handle of None.
            except (OSError, ValueError, TypeError) as exc:
                self._on_death(WorkerDiedError(f"worker {self.shard} pipe broke: {exc}"))
                return

    def _read_loop(self) -> None:
        try:
            while True:
                message = self._conn.recv()
                kind, job_id = message[0], message[1]
                if kind == "need":
                    self._resend(job_id, list(message[2]))
                    continue
                with self._state_lock:
                    entry = self._pending.pop(job_id, None)
                if entry is None:
                    continue
                future, _ = entry
                if kind == "ok":
                    if not future.done():
                        future.set_result(message[2])
                elif not future.done():
                    future.set_exception(message[2])
        except (EOFError, OSError):
            self._on_death(WorkerDiedError(f"worker {self.shard} died"))
        except Exception as exc:  # noqa: BLE001 - corrupt stream
            self._on_death(WorkerDiedError(f"worker {self.shard} protocol failure: {exc}"))

    def _resend(self, job_id: int, missing: list[str]) -> None:
        """Re-send a job whose datasets the worker evicted (``need`` reply)."""
        with self._state_lock:
            entry = self._pending.get(job_id)
        if entry is None or entry[1] is None:
            return
        context = entry[1]
        payloads = self._unshipped_payloads(context, missing)
        try:
            self._send(
                (
                    "job",
                    job_id,
                    context.fingerprints,
                    payloads,
                    context.rf,
                    context.top_k,
                    context.approx,
                )
            )
        except WorkerDiedError:
            pass

    def _on_death(self, exc: WorkerDiedError) -> None:
        with self._state_lock:
            if self._dead:
                return
            self._dead = True
            pending, self._pending = self._pending, {}
        self._send_queue.put(None)  # release the writer thread
        for future, _ in pending.values():
            if not future.done():
                future.set_exception(exc)


class ThreadWorker:
    """An in-process engine worker with process-worker semantics.

    One thread serves a private :class:`~repro.engine.facade.Engine`;
    :meth:`kill` *simulates* a crash — in-flight and queued work fails
    with :class:`WorkerDiedError` and the worker goes permanently dead —
    so the chaos suite can exercise the pool's restart/retry machinery
    deterministically and fast, without real process churn.  Also the
    right worker type on single-core hosts, where process isolation
    buys no parallelism but still pays pickling.
    """

    def __init__(
        self,
        shard: int = 0,
        *,
        engine: Engine | None = None,
        engine_kwargs: dict[str, Any] | None = None,
    ) -> None:
        self.shard = int(shard)
        self.engine = engine if engine is not None else Engine(**(engine_kwargs or {}))
        self._queue: "queue.SimpleQueue[tuple[Any, ...] | None]" = queue.SimpleQueue()
        self._inflight: set["concurrent.futures.Future[Any]"] = set()
        self._lock = threading.Lock()
        self._dead = False
        self._thread = threading.Thread(
            target=self._serve, name=f"rank-thread-worker-{shard}", daemon=True
        )
        self._thread.start()

    @property
    def alive(self) -> bool:
        """Whether the worker still accepts and answers work."""
        return not self._dead

    def submit(
        self,
        datasets: Sequence[Any],
        rf: RankingFunction,
        *,
        top_k: int | None = None,
        approx: float | None = None,
    ) -> "concurrent.futures.Future[list[RankingResult]]":
        """Dispatch one batch; the future resolves to its ranked results."""
        future = self._enqueue(("job", list(datasets), rf, top_k, approx))
        return future

    def warm(
        self,
        datasets: Sequence[Any],
        rfs: Sequence[RankingFunction] = (),
        timeout: float | None = 60.0,
    ) -> int:
        """Pre-compute intermediates for ``datasets`` on the worker's engine."""
        return self._enqueue(("warm", list(datasets), list(rfs))).result(timeout=timeout)

    def ping(self, timeout: float = 5.0) -> float:
        """Round-trip a no-op through the worker thread; returns seconds."""
        start = time.perf_counter()
        self._enqueue(("ping",)).result(timeout=timeout)
        return time.perf_counter() - start

    def kill(self) -> None:
        """Simulate a crash: fail all outstanding work, go permanently dead."""
        with self._lock:
            if self._dead:
                return
            self._dead = True
            inflight, self._inflight = self._inflight, set()
        exc = WorkerDiedError(f"worker {self.shard} was killed")
        for future in inflight:
            if not future.done():
                future.set_exception(exc)
        self._queue.put(None)

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the serving thread (graceful; queued work fails as died)."""
        self.kill()
        self._thread.join(timeout)

    def _enqueue(self, item: tuple[Any, ...]) -> "concurrent.futures.Future[Any]":
        future: "concurrent.futures.Future[Any]" = concurrent.futures.Future()
        with self._lock:
            if self._dead:
                raise WorkerDiedError(f"worker {self.shard} is dead")
            self._inflight.add(future)
        self._queue.put((future, *item))
        return future

    def _serve(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            future, kind, *rest = item
            try:
                if kind == "ping":
                    outcome: Any = "pong"
                elif kind == "warm":
                    datasets, rfs = rest
                    outcome = self.engine.warm(datasets, rfs)
                else:
                    datasets, rf, top_k, approx = rest
                    kwargs: dict[str, Any] = {}
                    if top_k is not None:
                        kwargs["top_k"] = top_k
                    if approx is not None:
                        kwargs["approx"] = approx
                    outcome = self.engine.rank_batch(datasets, rf, **kwargs)
            except Exception as exc:  # noqa: BLE001 - forwarded to the caller
                self._finish(future, error=exc)
                continue
            self._finish(future, result=outcome)

    def _finish(
        self,
        future: "concurrent.futures.Future[Any]",
        result: Any = None,
        error: Any = None,
    ) -> None:
        with self._lock:
            if self._dead:
                # The worker died mid-batch: the future already failed in
                # kill(); the computed result is discarded like a reply
                # from a crashed process.
                return
            self._inflight.discard(future)
        if future.done():
            return
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)


# ----------------------------------------------------------------------
# Pool statistics
# ----------------------------------------------------------------------
@dataclass
class ShardStats:
    """Counters describing one shard's traffic and failures."""

    #: Sub-batches dispatched to the shard's worker (including retries).
    dispatched: int = 0
    #: Requests answered by the shard's worker.
    executed: int = 0
    #: Worker deaths observed while the shard held dispatched work.
    failures: int = 0
    #: Workers (re)spawned to replace a dead one.
    restarts: int = 0
    #: Re-dispatch attempts after a failure or timeout.
    retries: int = 0
    #: Replies that timed out (dropped reply / wedged worker).
    timeouts: int = 0
    #: Requests shed at the shard's queue bound.
    shed: int = 0
    #: Injected faults that hit this shard.
    faults: int = 0
    #: Requests routed here as a hot-fingerprint replica (non-primary).
    replica_routed: int = 0
    #: Hedge duplicates dispatched *to* this shard.
    hedges: int = 0
    #: Requests shed on this shard because their deadline expired.
    deadline_shed: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (JSON-friendly)."""
        return {
            "dispatched": self.dispatched,
            "executed": self.executed,
            "failures": self.failures,
            "restarts": self.restarts,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "shed": self.shed,
            "faults": self.faults,
            "replica_routed": self.replica_routed,
            "hedges": self.hedges,
            "deadline_shed": self.deadline_shed,
        }


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class WorkerPool:
    """N engine workers with affinity routing, bounded queues and restarts.

    Parameters
    ----------
    shards:
        Number of workers (and shards of the fingerprint space).
    worker_factory:
        ``factory(shard) -> worker``; defaults to :class:`ProcessWorker`
        with ``engine_kwargs`` / ``mp_context`` / ``dataset_cache_entries``.
        Pass ``lambda shard: ThreadWorker(shard)`` for in-process workers.
    engine_kwargs:
        Constructor arguments for each worker's private engine.
    max_shard_depth:
        Bound on requests in flight per shard; sub-batches beyond it are
        shed with :class:`ServiceOverloadedError`.
    hot_threshold / replicas:
        Decayed request count at which a fingerprint goes hot, and the
        number of shards its traffic then fans out across (``<= 1``
        disables fan-out).
    max_retries:
        Re-dispatch attempts per sub-batch after worker failures before
        the requests fail with :class:`ServiceOverloadedError`.
    retry_backoff:
        Base seconds of the exponential backoff between retries.
    reply_timeout:
        Base seconds to wait for a worker's reply before suspecting it
        is wedged.  The effective deadline scales with the sub-batch:
        ``reply_timeout + reply_timeout_per_item * len(batch)``, so one
        large batch is not mistaken for a dead worker.  A worker that
        misses the deadline is ping-probed first; only a worker that
        also stays silent through the probe and one grace period is
        killed and respawned (killing fails every other in-flight
        future on that worker, so it must be a last resort).
    reply_timeout_per_item:
        Extra seconds of reply deadline granted per dataset in the
        sub-batch (see ``reply_timeout``).
    max_restarts:
        Pool-wide bound on worker respawns (``None`` = unbounded); an
        exhausted budget sheds instead of restarting (restart-storm brake).
    fault_plan:
        Optional :class:`FaultPlan` threaded through every dispatch.
    breaker:
        Optional :class:`~repro.service.resilience.BreakerConfig`
        enabling a per-shard circuit breaker: dispatch outcomes and
        probe timings feed EWMA latency/error trackers, slow or erroring
        shards are demoted (rendezvous weight scaling) or isolated
        (breaker open) and re-admitted via half-open trial traffic.
        ``None`` (the default) disables breakers — routing is exactly
        the PR-8 behavior.
    hedge:
        Optional :class:`~repro.service.resilience.HedgePolicy` enabling
        hedged requests: a dispatch still unanswered after the policy's
        latency quantile fans a duplicate to a replica shard and the
        first reply wins.  ``None`` disables hedging.
    mp_context / dataset_cache_entries:
        Forwarded to the default :class:`ProcessWorker` factory.
    """

    def __init__(
        self,
        shards: int = 4,
        *,
        worker_factory: Callable[[int], Any] | None = None,
        engine_kwargs: dict[str, Any] | None = None,
        max_shard_depth: int = 256,
        hot_threshold: int = 64,
        replicas: int = 2,
        max_retries: int = 3,
        retry_backoff: float = 0.05,
        reply_timeout: float = 30.0,
        reply_timeout_per_item: float = 0.25,
        max_restarts: int | None = None,
        fault_plan: FaultPlan | None = None,
        breaker: BreakerConfig | None = None,
        hedge: HedgePolicy | None = None,
        mp_context: str | None = None,
        dataset_cache_entries: int = 512,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if max_shard_depth < 1:
            raise ValueError(f"max_shard_depth must be >= 1, got {max_shard_depth}")
        self.shards = int(shards)
        self.router = FingerprintRouter(self.shards)
        self.hot = HotSpotTracker(threshold=hot_threshold)
        self.replicas = max(1, int(replicas))
        self.max_shard_depth = int(max_shard_depth)
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.reply_timeout = float(reply_timeout)
        self.reply_timeout_per_item = float(reply_timeout_per_item)
        self.max_restarts = max_restarts
        self.fault_plan = fault_plan
        self.breaker_config = breaker
        self.breakers: list[CircuitBreaker] | None = (
            [CircuitBreaker(breaker) for _ in range(self.shards)]
            if breaker is not None
            else None
        )
        self.hedge = hedge
        self.latencies = LatencyWindow()
        if worker_factory is None:
            worker_factory = lambda shard: ProcessWorker(  # noqa: E731
                shard,
                engine_kwargs=engine_kwargs,
                dataset_cache_entries=dataset_cache_entries,
                mp_context=mp_context,
            )
        self._factory = worker_factory
        self._workers: list[Any | None] = [None] * self.shards
        self._depth = [0] * self.shards
        self._sequence = [0] * self.shards
        self._restarts_total = 0
        self._lock = threading.Lock()
        # Serializes *async* respawns per shard so concurrent dispatches
        # that notice the same dead worker share one worker-thread hop
        # instead of each burning an executor slot.
        self._respawn_locks: list[asyncio.Lock] = [
            asyncio.Lock() for _ in range(self.shards)
        ]
        # Serializes spawners across threads (async respawns run on
        # worker threads; ``warm``/``start`` may spawn from user threads)
        # without holding ``self._lock`` across a fork — that lock is
        # taken on the event loop by every admission path.
        self._spawn_locks = [threading.Lock() for _ in range(self.shards)]
        self.shard_stats = [ShardStats() for _ in range(self.shards)]
        # Live-resize state: shard indices beyond ``self.shards`` whose
        # slots still exist (arrays never shrink mid-flight) but must
        # reject new dispatches; ``_resize_lock`` serializes resizes.
        self._retired: set[int] = set()
        self._resize_lock = asyncio.Lock()
        self._resizes = 0
        self._hedges_fired = 0
        self._hedges_won = 0
        self._stragglers: set["asyncio.Task[Any]"] = set()
        self.started = False

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "WorkerPool":
        """Spawn every worker (idempotent)."""
        with self._lock:
            for shard in range(self.shards):
                if self._workers[shard] is None:
                    self._workers[shard] = self._factory(shard)
            self.started = True
        return self

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker, including not-yet-drained retired slots."""
        with self._lock:
            workers, self._workers = self._workers, [None] * len(self._workers)
            self.started = False
        for worker in workers:
            if worker is not None:
                worker.stop(timeout)

    def __enter__(self) -> "WorkerPool":
        """``with WorkerPool(...) as pool:`` starts the workers."""
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        """Stop the workers on scope exit."""
        self.close()

    # -- routing -------------------------------------------------------
    def route(self, fingerprint: str) -> int:
        """The shard serving ``fingerprint`` for this request.

        Cold fingerprints go to their rendezvous-primary shard (cache
        affinity); once the hot tracker crosses its threshold, requests
        round-robin across the top ``replicas`` shards of the preference
        order, so one viral dataset stops serializing on one worker.
        With breakers enabled, per-shard health weights scale the
        rendezvous draw — demoted shards win fewer keys, open shards
        none — while all-healthy weights reproduce the unweighted
        routing bit for bit.
        """
        count = self.hot.record(fingerprint)
        weights = self.route_weights()
        if self.replicas > 1 and self.hot.is_hot(fingerprint):
            preference = self.router.preference(fingerprint, self.replicas, weights=weights)
            shard = preference[count % len(preference)]
            if shard != preference[0]:
                with self._lock:
                    self.shard_stats[shard].replica_routed += 1
            return shard
        return self.router.shard(fingerprint, weights=weights)

    def route_weights(self) -> list[float] | None:
        """Per-shard routing weights under the breakers, or ``None``.

        ``None`` means "use unweighted routing": breakers disabled,
        every shard healthy, or — degenerately — every breaker open (a
        request must route *somewhere*; the dispatch path will then
        shed or recover through retries).
        """
        if self.breakers is None:
            return None
        reference = self._reference_latency()
        weights = [
            self.breakers[shard].route_weight(self._reference_latency(exclude=shard))
            if reference is not None
            else self.breakers[shard].route_weight(None)
            for shard in range(self.shards)
        ]
        if all(weight == 1.0 for weight in weights):
            return None
        if all(weight <= 0.0 for weight in weights):
            return None
        return weights

    def _reference_latency(self, exclude: int | None = None) -> float | None:
        """Median EWMA latency of the *other* closed shards (the healthy bar)."""
        if self.breakers is None:
            return None
        values: list[float] = []
        for shard in range(self.shards):
            if shard == exclude:
                continue
            candidate = self.breakers[shard]
            if candidate.state != BREAKER_OPEN:
                latency = candidate.latency
                if latency is not None:
                    values.append(latency)
        return median_or_none(values)

    def open_breakers(self) -> int:
        """Number of shards whose breaker is currently open."""
        if self.breakers is None:
            return 0
        return sum(
            1 for shard in range(self.shards) if self.breakers[shard].state == BREAKER_OPEN
        )

    def depth(self, shard: int) -> int:
        """Requests currently in flight on ``shard``."""
        return self._depth[shard]

    # -- execution -----------------------------------------------------
    async def execute(
        self,
        shard: int,
        datasets: Sequence[Any],
        rf: RankingFunction,
        *,
        top_k: int | None = None,
        approx: float | None = None,
        deadline: float | None = None,
        fingerprint: str | None = None,
    ) -> list[RankingResult]:
        """Run one sub-batch on ``shard``, retrying across worker failures.

        Sheds with :class:`ServiceOverloadedError` when the shard queue
        is full or the retry/restart budget is exhausted, and with
        :class:`DeadlineExceededError` once ``deadline`` (an absolute
        monotonic instant) passes; otherwise the returned results are
        bit-identical to ``Engine.rank_batch`` on the same inputs.  With
        hedging enabled and a ``fingerprint`` to derive the replica set
        from, a dispatch still unanswered after the hedge delay races a
        duplicate on a replica shard and the first success wins.
        """
        if (
            self.hedge is not None
            and fingerprint is not None
            and self.shards > 1
        ):
            return await self._execute_hedged(
                shard, datasets, rf, top_k, approx, deadline, fingerprint
            )
        return await self._execute_on(shard, datasets, rf, top_k, approx, deadline)

    async def _execute_on(
        self,
        shard: int,
        datasets: Sequence[Any],
        rf: RankingFunction,
        top_k: int | None,
        approx: float | None,
        deadline: float | None,
    ) -> list[RankingResult]:
        """The retry loop of one sub-batch, pinned to ``shard``."""
        size = len(datasets)
        self._check_deadline(shard, size, deadline)
        with self._lock:
            if shard >= self.shards or shard in self._retired:
                raise ShardRetiredError(f"shard {shard} was retired by a resize")
            if self._depth[shard] + size > self.max_shard_depth:
                self.shard_stats[shard].shed += size
                raise ServiceOverloadedError(
                    f"shard {shard} queue is full "
                    f"({self._depth[shard]} in flight, bound {self.max_shard_depth})"
                )
            self._depth[shard] += size
        try:
            attempt = 0
            while True:
                try:
                    return await self._dispatch_once(
                        shard, datasets, rf, top_k, approx, deadline
                    )
                except (WorkerDiedError, ServiceOverloadedError) as exc:
                    if isinstance(exc, ServiceOverloadedError):
                        raise
                    if self.breakers is not None:
                        self.breakers[shard].record_failure()
                    attempt += 1
                    with self._lock:
                        self.shard_stats[shard].failures += 1
                        self.shard_stats[shard].retries += 1
                        retired = shard in self._retired
                    if retired:
                        # The shard shrank away mid-flight; its worker is
                        # stopping.  Re-route instead of burning retries.
                        raise ShardRetiredError(
                            f"shard {shard} was retired by a resize"
                        ) from exc
                    if attempt > self.max_retries:
                        raise ServiceOverloadedError(
                            f"shard {shard} failed {attempt} dispatch attempts: {exc}"
                        ) from exc
                    backoff = self.retry_backoff * (2 ** (attempt - 1))
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            self._count_deadline_shed(shard, size)
                            raise DeadlineExceededError(
                                f"shard {shard} deadline expired during retry backoff"
                            ) from exc
                        backoff = min(backoff, remaining)
                    await asyncio.sleep(backoff)
                    self._check_deadline(shard, size, deadline)
        finally:
            with self._lock:
                self._depth[shard] -= size

    def _check_deadline(self, shard: int, size: int, deadline: float | None) -> None:
        """Shed with :class:`DeadlineExceededError` once ``deadline`` passed."""
        if deadline is not None and deadline - time.monotonic() <= 0:
            self._count_deadline_shed(shard, size)
            raise DeadlineExceededError(
                f"shard {shard} deadline expired before dispatch"
            )

    def _count_deadline_shed(self, shard: int, size: int) -> None:
        with self._lock:
            if shard < len(self.shard_stats):
                self.shard_stats[shard].deadline_shed += size

    async def _execute_hedged(
        self,
        shard: int,
        datasets: Sequence[Any],
        rf: RankingFunction,
        top_k: int | None,
        approx: float | None,
        deadline: float | None,
        fingerprint: str,
    ) -> list[RankingResult]:
        """Race a replica duplicate against a dispatch that missed the quantile.

        The duplicate is safe because replies are bit-identical by
        content fingerprint — either answer is *the* answer.  A racer
        that fails defers to the other; only when both fail does the
        primary's error propagate.
        """
        assert self.hedge is not None
        loop = asyncio.get_running_loop()
        primary = loop.create_task(
            self._execute_on(shard, datasets, rf, top_k, approx, deadline)
        )
        delay = self.hedge.delay(self.latencies)
        if delay is None:
            return await primary
        done, _ = await asyncio.wait({primary}, timeout=delay)
        if done:
            return await primary
        backup_shard = self._hedge_target(fingerprint, shard)
        if backup_shard is None:
            return await primary
        with self._lock:
            self._hedges_fired += 1
            self.shard_stats[backup_shard].hedges += len(datasets)
        backup = loop.create_task(
            self._execute_on(backup_shard, datasets, rf, top_k, approx, deadline)
        )
        pending: set[asyncio.Task[list[RankingResult]]] = {primary, backup}
        primary_error: BaseException | None = None
        backup_error: BaseException | None = None
        try:
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    error = task.exception()
                    if error is None:
                        if task is backup:
                            with self._lock:
                                self._hedges_won += 1
                        return await task
                    if task is primary:
                        primary_error = error
                    else:
                        backup_error = error
            raise primary_error if primary_error is not None else (
                backup_error or WorkerDiedError("hedged dispatch lost both racers")
            )
        finally:
            # Let the losing racer run to completion detached instead of
            # cancelling it: the worker thread computes either way, and
            # the loser's outcome is the breaker's only view of a slow
            # shard — cancelling it would let hedging mask exactly the
            # latency signal that drives demotion.  Losers self-bound
            # via the reply timeout, so the straggler set stays small.
            for task in pending:
                self._stragglers.add(task)
                task.add_done_callback(self._reap_straggler)

    def _reap_straggler(self, task: "asyncio.Task[Any]") -> None:
        """Drop a finished hedge loser; its outcome already fed the breakers."""
        self._stragglers.discard(task)
        if not task.cancelled():
            task.exception()  # consume: losers may fail after the race is over

    def _hedge_target(self, fingerprint: str, primary: int) -> int | None:
        """The replica shard a hedge duplicate goes to, or ``None``."""
        replicas = max(2, self.replicas)
        preference = self.router.preference(
            fingerprint, replicas, weights=self.route_weights()
        )
        with self._lock:
            for shard in preference:
                if shard != primary and shard < self.shards and shard not in self._retired:
                    return shard
        return None

    async def _dispatch_once(
        self,
        shard: int,
        datasets: Sequence[Any],
        rf: RankingFunction,
        top_k: int | None,
        approx: float | None,
        deadline: float | None = None,
    ) -> list[RankingResult]:
        """One dispatch attempt: fault draw, submit, await the reply."""
        worker = await self._ensure_worker_async(shard)
        with self._lock:
            sequence = self._sequence[shard]
            self._sequence[shard] += 1
        started = time.monotonic()
        fault = self.fault_plan.draw(shard, sequence) if self.fault_plan else None
        if fault is not None:
            with self._lock:
                self.shard_stats[shard].faults += 1
            if fault.kind == "delay":
                await asyncio.sleep(fault.delay)
        with self._lock:
            self.shard_stats[shard].dispatched += 1
        if self.breakers is not None:
            self.breakers[shard].on_dispatch()
        # submit only enqueues (process workers pickle payloads on a
        # dedicated writer thread), so calling it from the event loop
        # cannot stall the coalescing window or connection handling.
        future = worker.submit(datasets, rf, top_k=top_k, approx=approx)
        if fault is not None and fault.kind == "kill":
            # Mid-batch: the job is already on the wire / in the queue.
            worker.kill()
        elif fault is not None and fault.kind == "drop":
            # Discard the real reply; the timeout machinery must recover.
            future.add_done_callback(_consume_future)
            future = concurrent.futures.Future()  # never resolved: simulates the drop
        timeout = self.reply_timeout + self.reply_timeout_per_item * len(datasets)
        deadline_bound = False
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._count_deadline_shed(shard, len(datasets))
                raise DeadlineExceededError(
                    f"shard {shard} deadline expired before the reply wait"
                )
            if remaining < timeout:
                timeout = remaining
                deadline_bound = True
        wrapped = asyncio.wrap_future(future)
        wrapped.add_done_callback(_consume_async_future)
        try:
            results = await asyncio.wait_for(asyncio.shield(wrapped), timeout)
        except (asyncio.TimeoutError, TimeoutError):
            if deadline_bound:
                # The *deadline* expired, not the wedge detector: the
                # worker is presumed healthy, so abandon the reply
                # without probing or killing anything.
                self._count_deadline_shed(shard, len(datasets))
                raise DeadlineExceededError(
                    f"shard {shard} deadline expired awaiting the reply"
                ) from None
            results = await self._recover_silent_reply(shard, worker, wrapped, timeout)
        elapsed = time.monotonic() - started
        self.latencies.observe(elapsed)
        if self.breakers is not None:
            self.breakers[shard].record_success(
                elapsed, reference=self._reference_latency(exclude=shard)
            )
        with self._lock:
            self.shard_stats[shard].executed += len(datasets)
        return results

    async def _recover_silent_reply(
        self,
        shard: int,
        worker: Any,
        wrapped: "asyncio.Future[list[RankingResult]]",
        timeout: float,
    ) -> list[RankingResult]:
        """A reply missed its deadline: probe liveness before killing.

        Killing a worker fails every *other* in-flight future it holds,
        so it must be the last resort, not the first response to a slow
        batch.  The worker answers its pipe in order, so a slow-but-
        healthy worker passes the ping probe once the batch completes
        (resolving ``wrapped`` on the way) and keeps its unrelated
        in-flight work; only a worker that stays silent through the
        probe and one grace period is declared wedged and killed.
        """
        responsive = worker.alive
        if responsive:
            try:
                await asyncio.to_thread(worker.ping, max(timeout, 5.0))
            except Exception:  # noqa: BLE001 - dead or wedged either way
                responsive = False
        if responsive:
            # The ping answered, so any reply the worker will ever send
            # for this job has been sent (or is one need-resend away):
            # grant one grace period before concluding the reply is lost.
            try:
                return await asyncio.wait_for(asyncio.shield(wrapped), timeout)
            except (asyncio.TimeoutError, TimeoutError):
                pass
        with self._lock:
            self.shard_stats[shard].timeouts += 1
        worker.kill()
        raise WorkerDiedError(
            f"shard {shard} reply timed out after {timeout:.3f}s"
            " (liveness probe and grace period included)"
        ) from None

    def _ensure_worker(self, shard: int) -> Any:
        """The live worker of ``shard``, respawning a dead one if allowed.

        The factory call (a process fork in production) runs *outside*
        ``self._lock``: that lock is taken on the event loop by every
        admission and stats path, so holding it across a spawn would
        stall the loop exactly as badly as spawning on the loop did.
        ``_spawn_locks`` serializes spawners per shard instead; a caller
        that queued behind a respawn finds the replacement installed and
        returns it without spawning again.
        """
        with self._lock:
            worker = self._workers[shard]
            if worker is not None and worker.alive:
                return worker
        with self._spawn_locks[shard]:
            with self._lock:
                worker = self._workers[shard]
                if worker is not None and worker.alive:
                    return worker  # another spawner won while we waited
                if worker is not None:
                    if (
                        self.max_restarts is not None
                        and self._restarts_total >= self.max_restarts
                    ):
                        raise ServiceOverloadedError(
                            f"shard {shard} worker is dead and the restart budget "
                            f"({self.max_restarts}) is exhausted"
                        )
                    self._restarts_total += 1
                    self.shard_stats[shard].restarts += 1
            replacement = self._factory(shard)
            with self._lock:
                self._workers[shard] = replacement
        if worker is not None:
            worker.stop(timeout=1.0)
        return replacement

    # -- live resizing -------------------------------------------------
    async def resize(self, shards: int, *, drain_timeout: float = 10.0) -> dict[str, Any]:
        """Live-resize the pool to ``shards`` workers without dropping work.

        Rendezvous routing makes this minimal-disruption: growing moves
        only the keys the new shards win, shrinking moves only the
        retired shards' keys.  Slot arrays never truncate — a shrunk
        shard's slot is *retired* (new dispatches raise
        :class:`ShardRetiredError` and the pooled service re-routes
        them), its in-flight work drains for up to ``drain_timeout``
        seconds, and its worker then stops.  Growing reuses retired
        slots with a fresh breaker before appending new ones.

        Returns the resize event, e.g. ``{"from": 4, "to": 6}``.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        async with self._resize_lock:
            old = self.shards
            if shards == old:
                return {"from": old, "to": shards, "changed": False}
            if shards > old:
                with self._lock:
                    self._grow_slots_locked(shards)
                    for shard in range(old, shards):
                        self._retired.discard(shard)
                    self.shards = shards
                    self.router = FingerprintRouter(shards)
                    self._resizes += 1
                if self.started:
                    for shard in range(old, shards):
                        await self._ensure_worker_async(shard)
                return {"from": old, "to": shards, "changed": True}
            with self._lock:
                self.shards = shards
                self.router = FingerprintRouter(shards)
                for shard in range(shards, old):
                    self._retired.add(shard)
                self._resizes += 1
            deadline = time.monotonic() + drain_timeout
            while (
                any(self._depth[shard] > 0 for shard in range(shards, old))
                and time.monotonic() < deadline
            ):
                await asyncio.sleep(0.005)
            stopped: list[Any] = []
            with self._lock:
                for shard in range(shards, old):
                    worker, self._workers[shard] = self._workers[shard], None
                    if worker is not None:
                        stopped.append(worker)
            for worker in stopped:
                await asyncio.to_thread(worker.stop)
            return {"from": old, "to": shards, "changed": True}

    def _grow_slots_locked(self, shards: int) -> None:
        """Extend per-shard slot arrays to cover ``shards`` (under ``_lock``).

        A retired slot being re-admitted keeps its cumulative stats (the
        counters are lifetime totals) but gets a fresh breaker — the old
        worker is gone, and its health history with it.
        """
        if self.breakers is not None:
            for shard in range(self.shards, min(shards, len(self.breakers))):
                self.breakers[shard] = CircuitBreaker(self.breaker_config)
        while len(self._workers) < shards:
            self._workers.append(None)
            self._depth.append(0)
            self._sequence.append(0)
            self._respawn_locks.append(asyncio.Lock())
            self._spawn_locks.append(threading.Lock())
            self.shard_stats.append(ShardStats())
            if self.breakers is not None:
                self.breakers.append(CircuitBreaker(self.breaker_config))

    async def _ensure_worker_async(self, shard: int) -> Any:
        """Async twin of :meth:`_ensure_worker` that never blocks the loop.

        The live-worker fast path stays inline (a lock acquire and a
        liveness check).  A respawn, however, forks a process and joins
        the dead one — hundreds of milliseconds during which a direct
        call would stall every coalescing window and connection on the
        loop — so it runs on a worker thread, serialized per shard by
        ``_respawn_locks`` (dispatches that queued behind the respawn
        re-check and find the replacement already live).
        """
        with self._lock:
            worker = self._workers[shard]
            if worker is not None and worker.alive:
                return worker
        async with self._respawn_locks[shard]:
            return await asyncio.to_thread(self._ensure_worker, shard)

    async def restart(self, shard: int, *, drain_timeout: float = 5.0) -> None:
        """Gracefully restart ``shard``: drain in-flight work, stop, respawn.

        Waits up to ``drain_timeout`` seconds for the shard's queue to
        empty (new work keeps routing here and simply lands on the
        replacement), then swaps the worker.  In-flight work still held
        at the deadline fails over through the normal retry path.
        """
        deadline = time.monotonic() + drain_timeout
        while self._depth[shard] > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        with self._lock:
            worker, self._workers[shard] = self._workers[shard], None
            self._restarts_total += 1
            self.shard_stats[shard].restarts += 1
        if worker is not None:
            await asyncio.to_thread(worker.stop)
        await self._ensure_worker_async(shard)

    # -- warm-up -------------------------------------------------------
    def warm(self, datasets: Iterable[Any], rfs: Sequence[RankingFunction] = ()) -> int:
        """Ship each dataset to its affine worker and pre-compute intermediates.

        Routes by rendezvous primary (replica shards warm lazily on
        first fan-out) and blocks until every worker acknowledges;
        returns the number of datasets warmed.  This is the pool's
        cache-warm bootstrap hook — a restarted deployment calls it
        with the hot set so the first requests already hit warm caches.
        """
        by_shard: dict[int, list[Any]] = {}
        for data in datasets:
            by_shard.setdefault(self.router.shard(dataset_fingerprint(data)), []).append(data)
        warmed = 0
        for shard, group in by_shard.items():
            warmed += self._ensure_worker(shard).warm(group, rfs)
        return warmed

    # -- observability -------------------------------------------------
    def health(self) -> dict[str, Any]:
        """Liveness/depth/restart snapshot of every live shard (cheap, no I/O)."""
        with self._lock:
            count = self.shards
            return {
                "shards": count,
                "alive": [
                    worker is not None and worker.alive
                    for worker in self._workers[:count]
                ],
                "depth": list(self._depth[:count]),
                "restarts": [stats.restarts for stats in self.shard_stats[:count]],
            }

    async def probe(self, timeout: float = 5.0) -> list[float | None]:
        """Round-trip a ping through every worker; ``None`` marks a dead one.

        With breakers enabled the probe timings feed them too: a dead or
        silent worker records a failure, a live one records its ping
        latency — so an idle slow shard is demoted (and a recovered one
        re-admitted) without waiting for real traffic to sample it.
        """

        async def one(shard: int) -> float | None:
            worker = self._workers[shard]
            if worker is None or not worker.alive:
                if self.breakers is not None and shard < len(self.breakers):
                    self.breakers[shard].record_failure()
                return None
            try:
                elapsed = await asyncio.to_thread(worker.ping, timeout)
            except Exception:  # noqa: BLE001 - dead/wedged workers probe as None
                if self.breakers is not None and shard < len(self.breakers):
                    self.breakers[shard].record_failure()
                return None
            if self.breakers is not None and shard < len(self.breakers):
                self.breakers[shard].record_success(
                    elapsed, reference=self._reference_latency(exclude=shard)
                )
            return elapsed

        return list(await asyncio.gather(*(one(shard) for shard in range(self.shards))))

    def snapshot(self) -> dict[str, Any]:
        """Consistent pool counters for the stats/metrics endpoints."""
        with self._lock:
            count = self.shards
            per_shard = [stats.as_dict() for stats in self.shard_stats[:count]]
            alive = [
                worker is not None and worker.alive for worker in self._workers[:count]
            ]
            depth = list(self._depth[:count])
            restarts_total = self._restarts_total
            resizes = self._resizes
            hedges_fired = self._hedges_fired
            hedges_won = self._hedges_won
        breakers: dict[str, Any] | None = None
        if self.breakers is not None:
            states = [breaker.state for breaker in self.breakers[:count]]
            breakers = {
                "state": states,
                "opens": [breaker.opens for breaker in self.breakers[:count]],
                "open": states.count(BREAKER_OPEN),
            }
        return {
            "shards": count,
            "alive": alive,
            "depth": depth,
            "restarts_total": restarts_total,
            "resizes_total": resizes,
            "hedges_fired": hedges_fired,
            "hedges_won": hedges_won,
            "faults_injected": self.fault_plan.injected if self.fault_plan else 0,
            "breakers": breakers,
            "totals": {
                key: sum(stats[key] for stats in per_shard) for key in per_shard[0]
            },
            "per_shard": per_shard,
        }


def _consume_future(future: "concurrent.futures.Future[Any]") -> None:
    """Mark a discarded future's exception as retrieved."""
    if not future.cancelled():
        future.exception()


def _consume_async_future(future: "asyncio.Future[Any]") -> None:
    """Mark an abandoned asyncio future's exception as retrieved.

    The dispatch path may stop awaiting ``wrapped`` (timeout -> the
    worker is killed and its futures fail); without this callback the
    loop would log "exception was never retrieved" for each one.
    """
    if not future.cancelled():
        future.exception()


# ----------------------------------------------------------------------
# The pooled service
# ----------------------------------------------------------------------
class PooledRankingService(RankingService):
    """The coalescing admission tier with execution sharded across a pool.

    Inherits everything user-facing from :class:`RankingService` —
    micro-batch coalescing, content-keyed dedup, the TTL result cache
    and bounded admission — but executes each coalesced window through
    a :class:`WorkerPool` instead of one in-process engine:

    1. the window is grouped by ranking-function identity exactly like
       the base service,
    2. each group is partitioned by the *shard* owning every request's
       dataset fingerprint (cache affinity; hot fingerprints fan out
       across replicas),
    3. the per-shard sub-batches execute concurrently, and the window
       runs as a background task so the coalescing loop is already
       collecting the next window while workers compute.

    The parent keeps a private engine for *planning only* (model and
    algorithm tags, fingerprints); kernels run in the workers.  Replies
    remain bit-identical to direct ``Engine.rank`` calls.

    Parameters
    ----------
    pool:
        The worker pool to execute on.  ``None`` builds one from
        ``shards`` and ``pool_kwargs`` and owns its lifecycle.
    shards:
        Shard count of an internally built pool.
    engine:
        Planning engine (never executes kernels in pooled mode).
    pool_kwargs:
        Extra :class:`WorkerPool` arguments of an internally built pool.
    degrade:
        Optional :class:`~repro.service.resilience.DegradePolicy`: under
        sustained pressure (admission queue near its bound, or an open
        shard breaker) exact ``rank`` requests run through the certified
        ``approx=`` error-budget path instead of being shed.  Degraded
        replies are tagged and never cached under the exact key.
        ``None`` (the default) never degrades.
    probe_interval:
        Seconds between background :meth:`WorkerPool.probe` sweeps
        feeding the breakers while traffic is idle.  ``None`` disables
        the background prober.
    **service_kwargs:
        Forwarded to :class:`RankingService` (coalescing window, cache,
        admission bound, ...).
    """

    #: Bound on re-route hops after :class:`ShardRetiredError` (a resize
    #: can race the re-route at most once per concurrent resize; repeated
    #: misses mean the pool is churning faster than work can land).
    MAX_REROUTES = 5

    def __init__(
        self,
        pool: WorkerPool | None = None,
        *,
        shards: int = 4,
        engine: Engine | None = None,
        pool_kwargs: dict[str, Any] | None = None,
        degrade: DegradePolicy | None = None,
        probe_interval: float | None = None,
        **service_kwargs: Any,
    ) -> None:
        super().__init__(engine, **service_kwargs)
        self.pool = pool if pool is not None else WorkerPool(shards, **(pool_kwargs or {}))
        self._owns_pool = pool is None
        self.degrade = degrade
        self.probe_interval = probe_interval
        self._probe_task: asyncio.Task[None] | None = None
        self._window_tasks: set[asyncio.Task[None]] = set()

    async def start(self) -> "PooledRankingService":
        """Start the pool workers and the coalescing loop (idempotent)."""
        if not self.pool.started:
            await asyncio.to_thread(self.pool.start)
        await super().start()
        if self.probe_interval is not None and self._probe_task is None:
            self._probe_task = asyncio.get_running_loop().create_task(self._probe_loop())
        return self

    async def stop(self) -> None:
        """Stop coalescing, finish in-flight windows, stop owned workers."""
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except asyncio.CancelledError:
                pass
            self._probe_task = None
        await super().stop()
        if self._window_tasks:
            await asyncio.gather(*self._window_tasks, return_exceptions=True)
        if self._owns_pool:
            await asyncio.to_thread(self.pool.close)

    async def _probe_loop(self) -> None:
        """Periodically ping every worker so idle shards keep breaker state."""
        assert self.probe_interval is not None
        while True:
            await asyncio.sleep(self.probe_interval)
            try:
                await self.pool.probe()
            except Exception:  # noqa: BLE001 - probing must never kill the loop
                continue

    async def resize(self, shards: int) -> dict[str, Any]:
        """Live-resize the worker pool (see :meth:`WorkerPool.resize`)."""
        return await self.pool.resize(shards)

    async def _execute(self, batch: list[_PendingRequest]) -> None:
        """Launch one coalesced window as a pipelined background task."""
        batch = self._shed_expired(batch)
        if not batch:
            return
        self.stats.observe_batch(len(batch))
        task = asyncio.get_running_loop().create_task(self._execute_window(batch))
        self._window_tasks.add(task)
        task.add_done_callback(self._window_tasks.discard)

    async def _execute_window(self, batch: list[_PendingRequest]) -> None:
        """Partition one window by spec and shard; run sub-batches concurrently.

        The window runs fire-and-forget, so any failure *outside* the
        per-shard error paths (grouping, fingerprinting, routing) must
        still resolve every request — an unhandled exception here would
        hang the callers forever and leak their admission slots.
        """
        try:
            groups: "OrderedDict[Hashable, list[_PendingRequest]]" = OrderedDict()
            for request in batch:
                rf_key = ranking_function_key(request.rf)
                base_key = rf_key if rf_key is not None else ("opaque", id(request.rf))
                groups.setdefault((base_key, request.top_k, request.approx), []).append(request)
            shard_batches: list[tuple[int, list[_PendingRequest]]] = []
            for requests in groups.values():
                by_shard: "OrderedDict[int, list[_PendingRequest]]" = OrderedDict()
                for request in requests:
                    fingerprint = (
                        request.key[0]
                        if request.key is not None
                        else dataset_fingerprint(request.data)
                    )
                    by_shard.setdefault(self.pool.route(fingerprint), []).append(request)
                shard_batches.extend(by_shard.items())
            await asyncio.gather(
                *(
                    self._execute_shard(shard, requests)
                    for shard, requests in shard_batches
                )
            )
        except Exception as exc:  # noqa: BLE001 - forwarded to callers
            unresolved = [request for request in batch if not request.future.done()]
            if unresolved:
                self.stats.add(errors=len(unresolved))
                for request in unresolved:
                    self._resolve_error(request, exc)

    @staticmethod
    def _request_fingerprint(request: _PendingRequest) -> str:
        """The content fingerprint routing decisions key on."""
        if request.key is not None:
            return str(request.key[0])
        return dataset_fingerprint(request.data)

    @staticmethod
    def _batch_deadline(requests: list[_PendingRequest]) -> float | None:
        """The sub-batch deadline: the latest member deadline, if all have one.

        A sub-batch executes as one dispatch, so a deadline can only be
        enforced batch-wide; ``max`` never sheds a member before its own
        deadline, and a single deadline-free member disables enforcement
        (it must not be shed on a neighbour's budget).
        """
        deadlines = [request.deadline for request in requests]
        if any(deadline is None for deadline in deadlines):
            return None
        return max(deadline for deadline in deadlines if deadline is not None)

    async def _execute_shard(
        self, shard: int, requests: list[_PendingRequest], *, reroutes: int = 0
    ) -> None:
        """Run one shard's sub-batch and resolve its requests.

        A :class:`ShardRetiredError` (the routing decision raced a live
        shrink) re-partitions the sub-batch through the post-resize
        router and recurses — admitted requests survive a resize instead
        of being shed.
        """
        datasets = [request.data for request in requests]
        rf = requests[0].rf
        top_k = requests[0].top_k
        approx = requests[0].approx
        degraded = False
        if (
            approx is None
            and self.degrade is not None
            and self.degrade.active(
                self._pending, self.max_pending, self.pool.open_breakers()
            )
        ):
            approx = self.degrade.approx
            degraded = True
        try:
            plans = self.engine.plan_batch(datasets, rf, top_k=top_k, approx=approx)
            results = await self.pool.execute(
                shard,
                datasets,
                rf,
                top_k=top_k,
                approx=approx,
                deadline=self._batch_deadline(requests),
                fingerprint=self._request_fingerprint(requests[0]),
            )
        except ShardRetiredError as exc:
            if reroutes >= self.MAX_REROUTES:
                self.stats.add(shed=len(requests))
                overloaded = ServiceOverloadedError(
                    f"no live shard after {reroutes} re-routes: {exc}"
                )
                for request in requests:
                    self._resolve_error(request, overloaded)
                return
            by_shard: "OrderedDict[int, list[_PendingRequest]]" = OrderedDict()
            for request in requests:
                fingerprint = self._request_fingerprint(request)
                by_shard.setdefault(self.pool.route(fingerprint), []).append(request)
            await asyncio.gather(
                *(
                    self._execute_shard(target, group, reroutes=reroutes + 1)
                    for target, group in by_shard.items()
                )
            )
            return
        except DeadlineExceededError as exc:
            self.stats.add(deadline_shed=len(requests))
            for request in requests:
                self._resolve_error(request, exc)
            return
        except ServiceOverloadedError as exc:
            self.stats.add(shed=len(requests))
            for request in requests:
                self._resolve_error(request, exc)
            return
        except Exception as exc:  # noqa: BLE001 - forwarded to callers
            self.stats.add(errors=len(requests))
            for request in requests:
                self._resolve_error(request, exc)
            return
        if degraded:
            self.stats.add(degraded=len(requests))
        for request, result, plan in zip(requests, results, plans):
            expected = request.name or getattr(request.data, "name", "")
            if expected and result.name != expected:
                result = result.renamed(expected)
            reply = ServiceReply(
                result=result,
                model=plan.model,
                algorithm=plan.algorithm,
                batch_size=len(requests),
                k=top_k,
                approx=plan.approx.as_dict() if plan.approx is not None else None,
                degraded=degraded,
            )
            if request.key is not None and not degraded:
                # A degraded answer must never be served later for an
                # exact request — the cache keeps only exact replies.
                self.results.put(request.key, reply)
            self._resolve(request, reply)

    def stats_snapshot(self) -> dict[str, Any]:
        """Service counters plus the pool's per-shard health and counters."""
        snapshot = super().stats_snapshot()
        snapshot["pool"] = self.pool.snapshot()
        return snapshot

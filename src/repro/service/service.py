"""The asyncio ranking service: micro-batching, dedup, TTL cache, shedding.

:class:`RankingService` is the admission tier in front of the
:class:`~repro.engine.facade.Engine`.  Many concurrent clients submit
single-dataset rank requests; the service

1. answers straight from a **TTL result cache** when an identical
   request (same dataset fingerprint, same canonical ranking-function
   key, same label) completed recently,
2. **deduplicates in-flight work**: a request identical to one already
   queued or executing piggybacks on its future instead of enqueueing,
3. **sheds load** once the number of admitted-but-unfinished requests
   reaches ``max_pending`` (raising :class:`ServiceOverloadedError`
   rather than queueing unboundedly), and
4. **coalesces** everything else in a micro-batching loop and executes
   each window through the engine's non-blocking
   :meth:`~repro.engine.facade.Engine.submit_batch`, so one stacked
   kernel invocation serves many clients.  The window is adaptive: it
   always takes whatever is already queued, but waits for more only
   while the next arrival is expected inside it — an EWMA of the gap
   between admitted requests must be shorter than the time left.  It
   closes at once under sparse traffic and stays open under dense
   traffic, capped at ``max_delay`` seconds or ``max_batch`` requests,
   whichever comes first.

Replies are **bit-identical** to direct ``Engine.rank`` calls: the
service never re-sorts, rescales or re-labels values, it only routes
them, and ``rank_batch`` is verified (tests/test_backends.py) to equal
the single-dataset path exactly.

Top-k requests (``submit(..., top_k=k)``) ride the same machinery with
``top_k`` folded into the request identity — cache entries, in-flight
dedup, and coalesced windows are all keyed per ``k``, and the engine is
free to early-terminate the kernels (see :mod:`repro.engine.topk`).
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Hashable

from ..core.prf import RankingFunction
from ..core.result import RankingResult
from ..engine.approx import validated_budget
from ..engine.cache import dataset_fingerprint
from ..engine.facade import Engine
from ..engine.topk import validated_k
from .resilience import deadline_from_ms
from .spec import ranking_function_key

__all__ = [
    "RankingService",
    "ServiceReply",
    "ServiceStats",
    "ServiceOverloadedError",
    "DeadlineExceededError",
    "TTLCache",
]


class ServiceOverloadedError(RuntimeError):
    """Raised when the service sheds a request because its queue is full."""


class DeadlineExceededError(ServiceOverloadedError):
    """A request's end-to-end deadline expired before it could be served.

    Subclasses :class:`ServiceOverloadedError` because it is a shed, not
    a computation failure: the work was never (fully) done, and every
    hop that already treats overload as a clean client-visible rejection
    handles deadline expiry the same way.  The TCP front-end maps it to
    error type ``"deadline"``.
    """


@dataclass(frozen=True)
class ServiceReply:
    """One served ranking plus the routing metadata of how it was produced."""

    #: The full ranking — bit-identical to ``Engine.rank(data, rf, name=name)``.
    result: RankingResult
    #: Correlation model the planner detected (``independent``/``andxor``/``markov``).
    model: str
    #: Table-3 algorithm label that executed the request.
    algorithm: str
    #: Whether the reply was served from the TTL result cache.
    cached: bool = False
    #: Whether the reply piggybacked on an identical in-flight request.
    deduplicated: bool = False
    #: Number of requests in the coalesced window that produced this reply.
    batch_size: int = 1
    #: The ``top_k`` bound the request ran under, or ``None`` for a full
    #: ranking.  When set, ``result`` holds only the best ``k`` items
    #: (the same set/order as the full ranking's prefix) and the engine
    #: may have early-terminated the kernel.
    k: int | None = None
    #: The planner's exact-vs-approximate decision summary for a request
    #: carrying an ``approx=`` error budget (``None`` when no budget was
    #: given): ``{"budget", "used", "terms", "error_bound"}``.
    approx: dict[str, Any] | None = None
    #: Whether the degradation policy downgraded this exact request to
    #: the ``approx=`` error-budget path under overload / open breakers.
    #: Degraded replies are never inserted into the result cache, so the
    #: bit-identity contract of non-degraded traffic is untouched.
    degraded: bool = False

    def top_k(self, k: int) -> list[Any]:
        """Identifiers of the top ``k`` tuples (best first)."""
        return self.result.top_k(k)


@dataclass
class ServiceStats:
    """Counters describing how the service disposed of its traffic.

    Mutations go through :meth:`add` / :meth:`observe_batch` and
    snapshots through :meth:`as_dict`, all under one lock: the TCP
    ``stats`` path (and the pool's metrics endpoint) reads from
    concurrent handler tasks while the batching loop — and, in pooled
    mode, background window tasks — mutate, so an unlocked read could
    observe a window counted in ``batches`` but not yet in ``executed``.
    """

    #: Requests admitted through :meth:`RankingService.submit`.
    requests: int = 0
    #: Replies served from the TTL result cache.
    cache_hits: int = 0
    #: Replies that piggybacked on an identical in-flight request.
    deduplicated: int = 0
    #: Requests rejected by backpressure shedding.
    shed: int = 0
    #: Coalesced windows executed.
    batches: int = 0
    #: Requests executed through the engine (sum of window sizes).
    executed: int = 0
    #: Largest coalesced window observed.
    largest_batch: int = 0
    #: Requests that failed with an engine/planner error.
    errors: int = 0
    #: Requests shed because their end-to-end deadline expired.
    deadline_shed: int = 0
    #: Exact requests downgraded to the ``approx=`` path under pressure.
    degraded: int = 0

    def __post_init__(self) -> None:
        """Create the lock guarding every mutation and snapshot."""
        self._lock = threading.Lock()

    def add(self, **deltas: int) -> None:
        """Atomically add ``deltas`` to the named counters (one lock hold)."""
        with self._lock:
            for counter, delta in deltas.items():
                setattr(self, counter, getattr(self, counter) + delta)

    def observe_batch(self, size: int) -> None:
        """Atomically account one executed window of ``size`` requests."""
        with self._lock:
            self.batches += 1
            self.executed += size
            self.largest_batch = max(self.largest_batch, size)

    def as_dict(self) -> dict[str, int]:
        """An atomic snapshot of the counters as a plain dict (JSON-friendly)."""
        with self._lock:
            return {
                "requests": self.requests,
                "cache_hits": self.cache_hits,
                "deduplicated": self.deduplicated,
                "shed": self.shed,
                "batches": self.batches,
                "executed": self.executed,
                "largest_batch": self.largest_batch,
                "errors": self.errors,
                "deadline_shed": self.deadline_shed,
                "degraded": self.degraded,
            }


class TTLCache:
    """A bounded LRU mapping with per-entry expiry (monotonic-clock based).

    Parameters
    ----------
    ttl:
        Seconds an entry stays servable.  ``0`` disables caching.
    max_entries:
        LRU bound on retained entries.
    clock:
        Injectable time source (monotonic seconds); tests substitute a
        fake clock to exercise expiry deterministically.
    """

    def __init__(
        self,
        ttl: float,
        max_entries: int = 1024,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.ttl = float(ttl)
        self.max_entries = int(max_entries)
        self.clock = clock
        self._entries: "OrderedDict[Hashable, tuple[float, Any]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Any | None:
        """The live value under ``key``, or ``None`` (expired entries drop)."""
        if self.ttl <= 0.0:
            return None
        entry = self._entries.get(key)
        if entry is None:
            return None
        expires, value = entry
        if self.clock() >= expires:
            del self._entries[key]
            return None
        self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh ``key``, evicting LRU entries beyond the bound."""
        if self.ttl <= 0.0:
            return
        self._entries[key] = (self.clock() + self.ttl, value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every cached entry."""
        self._entries.clear()


@dataclass
class _PendingRequest:
    """One admitted request waiting in the coalescing queue."""

    data: Any
    rf: RankingFunction
    name: str
    key: Hashable | None
    future: "asyncio.Future[ServiceReply]" = field(repr=False)
    top_k: int | None = None
    approx: float | None = None
    #: Absolute monotonic deadline (``None`` = no deadline).  Resolved
    #: once at admission from the wire's relative ``deadline_ms`` budget
    #: so every later hop compares against the same clock.
    deadline: float | None = None


class RankingService:
    """Coalescing admission tier over one :class:`~repro.engine.facade.Engine`.

    Parameters
    ----------
    engine:
        The engine executing the coalesced batches.  ``None`` creates a
        private engine with default settings.
    max_batch:
        Upper bound on requests per coalesced window.
    max_delay:
        Upper bound, in seconds, on how long a window stays open after
        its first request (the latency the service is willing to trade
        for batching).  The window closes earlier once the estimated
        gap to the next admitted request exceeds the time it has left,
        so a lone request does not wait at all.
    max_pending:
        Admission bound — requests beyond this many
        admitted-but-unfinished ones are shed with
        :class:`ServiceOverloadedError`.
    cache_ttl:
        Seconds a completed reply is served from the result cache
        (``0`` disables the cache).
    cache_entries:
        LRU bound of the result cache.
    cache_clock:
        Injectable monotonic clock for the result cache (tests).

    The service must be started before use — either ``await
    service.start()`` / ``await service.stop()`` or the async context
    manager form::

        async with RankingService(engine) as service:
            reply = await service.submit(relation, PRFe(0.95))
    """

    #: Weight of the newest inter-arrival gap in the EWMA that decides
    #: whether a coalescing window waits for another request.
    ARRIVAL_GAP_WEIGHT = 0.25

    def __init__(
        self,
        engine: Engine | None = None,
        *,
        max_batch: int = 64,
        max_delay: float = 0.002,
        max_pending: int = 1024,
        cache_ttl: float = 30.0,
        cache_entries: int = 1024,
        cache_clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if not math.isfinite(max_delay) or max_delay < 0.0:
            raise ValueError(f"max_delay must be finite and >= 0, got {max_delay}")
        self.engine = engine if engine is not None else Engine()
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay)
        self.max_pending = int(max_pending)
        self.stats = ServiceStats()
        self.results = TTLCache(cache_ttl, cache_entries, clock=cache_clock)
        self._queue: "asyncio.Queue[_PendingRequest | None]" = asyncio.Queue()
        self._inflight: dict[Hashable, "asyncio.Future[ServiceReply]"] = {}
        self._pending = 0
        self._loop_task: asyncio.Task[None] | None = None
        # EWMA of the seconds between admitted requests (``inf`` until two
        # have arrived) and the admission instant it measures from.
        self._arrival_gap: float = math.inf
        self._last_admitted: float = -math.inf

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether the coalescing loop is active."""
        return self._loop_task is not None and not self._loop_task.done()

    async def start(self) -> "RankingService":
        """Start the coalescing loop (idempotent)."""
        if not self.running:
            self._loop_task = asyncio.get_running_loop().create_task(
                self._run(), name="ranking-service-loop"
            )
        return self

    async def stop(self) -> None:
        """Drain the queue, stop the loop, and fail unserved requests."""
        if self._loop_task is None:
            return
        task, self._loop_task = self._loop_task, None
        self._queue.put_nowait(None)
        try:
            await task
        except asyncio.CancelledError:  # pragma: no cover - external cancel
            pass
        while not self._queue.empty():
            request = self._queue.get_nowait()
            if request is not None:
                self._resolve_error(request, RuntimeError("service stopped"))

    async def __aenter__(self) -> "RankingService":
        """``async with`` support: start on entry."""
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        """``async with`` support: stop on exit."""
        await self.stop()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    async def submit(
        self,
        data: Any,
        rf: RankingFunction,
        *,
        name: str = "",
        top_k: int | None = None,
        approx: float | None = None,
        deadline_ms: float | None = None,
    ) -> ServiceReply:
        """Rank one dataset, coalescing with every other in-flight request.

        Returns a :class:`ServiceReply` whose ``result`` is bit-identical
        to ``Engine.rank(data, rf, name=name)``.  With ``top_k`` set the
        result holds only the best ``top_k`` items — the same set as the
        full ranking's prefix, with the engine free to early-terminate
        the kernel — and caching/dedup key on ``top_k`` too, so a top-5
        request never serves a stale top-50 (or full) reply and vice
        versa.  With ``approx`` set the engine may substitute a
        certified ``L``-term approximation within the error budget (see
        :meth:`~repro.engine.facade.Engine.rank`); the budget joins the
        request identity too — replies computed under different budgets
        never serve each other — and the reply's ``approx`` field
        records the planner's decision.  With ``deadline_ms`` set the
        request carries an end-to-end budget: once it expires the
        request is shed with :class:`DeadlineExceededError` at whichever
        hop notices first (admission, window execution, pool dispatch)
        instead of computed-then-discarded.  Raises
        :class:`ServiceOverloadedError` when the request is shed.
        """
        if not self.running:
            raise RuntimeError("RankingService is not running; call start() first")
        if top_k is not None:
            top_k = validated_k(top_k)
        if approx is not None:
            approx = validated_budget(approx)
        deadline = deadline_from_ms(deadline_ms) if deadline_ms is not None else None
        self.stats.add(requests=1)
        key = self._request_key(data, rf, name, top_k, approx)
        if key is not None:
            hit: ServiceReply | None = self.results.get(key)
            if hit is not None:
                self.stats.add(cache_hits=1)
                return replace(hit, cached=True)
            inflight = self._inflight.get(key)
            if inflight is not None:
                self.stats.add(deduplicated=1)
                reply = await asyncio.shield(inflight)
                return replace(reply, deduplicated=True)
        if self._pending >= self.max_pending:
            self.stats.add(shed=1)
            raise ServiceOverloadedError(
                f"ranking service is at capacity ({self.max_pending} pending requests)"
            )
        future: "asyncio.Future[ServiceReply]" = asyncio.get_running_loop().create_future()
        # Shedding/stop paths may leave the exception unretrieved by a
        # cancelled submitter; mark it retrieved to keep logs clean.
        future.add_done_callback(_consume_exception)
        request = _PendingRequest(
            data=data,
            rf=rf,
            name=name,
            key=key,
            top_k=top_k,
            approx=approx,
            deadline=deadline,
            future=future,
        )
        if key is not None:
            self._inflight[key] = future
        self._pending += 1
        self._observe_arrival()
        self._queue.put_nowait(request)
        return await asyncio.shield(future)

    def pending(self) -> int:
        """Number of admitted requests not yet answered."""
        return self._pending

    def stats_snapshot(self) -> dict[str, Any]:
        """Service counters plus the engine's cache introspection."""
        snapshot: dict[str, Any] = self.stats.as_dict()
        snapshot["pending"] = self._pending
        snapshot["engine_cache"] = self.engine.cache_info()
        return snapshot

    def _request_key(
        self,
        data: Any,
        rf: RankingFunction,
        name: str,
        top_k: int | None = None,
        approx: float | None = None,
    ) -> Hashable | None:
        """Content identity of a request, or ``None`` for opaque specs.

        ``top_k`` and ``approx`` are part of the identity: a truncated or
        approximated reply must never satisfy a full/exact request (or
        one with a different ``k`` / budget), so each combination gets
        its own cache/dedup slot.
        """
        rf_key = ranking_function_key(rf)
        if rf_key is None:
            return None
        return (dataset_fingerprint(data), rf_key, name, top_k, approx)

    # ------------------------------------------------------------------
    # The micro-batching loop
    # ------------------------------------------------------------------
    def _observe_arrival(self) -> None:
        """Fold the gap since the previous admitted request into the EWMA."""
        now = time.monotonic()
        gap = now - self._last_admitted
        if math.isinf(self._arrival_gap):
            self._arrival_gap = gap
        else:
            self._arrival_gap += self.ARRIVAL_GAP_WEIGHT * (gap - self._arrival_gap)
        self._last_admitted = now

    async def _run(self) -> None:
        """Collect adaptive, time/size-bounded windows and execute them."""
        while True:
            first = await self._queue.get()
            if first is None:
                return
            batch = [first]
            deadline = time.monotonic() + self.max_delay
            stop = False
            while len(batch) < self.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= self._arrival_gap:
                    # The window expired, or the next arrival is not
                    # expected before it would: drain only what is
                    # already queued (``_arrival_gap >= 0`` covers expiry).
                    try:
                        request = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                else:
                    try:
                        request = await asyncio.wait_for(self._queue.get(), remaining)
                    except (asyncio.TimeoutError, TimeoutError):
                        break
                if request is None:
                    stop = True
                    break
                batch.append(request)
            await self._execute(batch)
            if stop:
                return

    def _shed_expired(self, batch: list[_PendingRequest]) -> list[_PendingRequest]:
        """Shed batch members whose deadline already passed; returns the rest.

        Runs at the execution hop (after coalescing): a request that
        spent its whole budget waiting in the window is rejected with
        :class:`DeadlineExceededError` instead of burning a kernel on an
        answer nobody is waiting for.
        """
        now = time.monotonic()
        live: list[_PendingRequest] = []
        expired: list[_PendingRequest] = []
        for request in batch:
            if request.deadline is not None and request.deadline <= now:
                expired.append(request)
            else:
                live.append(request)
        if expired:
            self.stats.add(deadline_shed=len(expired))
            for request in expired:
                self._resolve_error(
                    request,
                    DeadlineExceededError(
                        "request deadline expired before execution"
                    ),
                )
        return live

    async def _execute(self, batch: list[_PendingRequest]) -> None:
        """Run one window: group by ranking function, one engine batch each."""
        batch = self._shed_expired(batch)
        if not batch:
            return
        self.stats.observe_batch(len(batch))
        groups: "OrderedDict[Hashable, list[_PendingRequest]]" = OrderedDict()
        for request in batch:
            rf_key = ranking_function_key(request.rf)
            base_key = rf_key if rf_key is not None else ("opaque", id(request.rf))
            # top_k and approx are part of the group identity: a window
            # mixing a top-5 and a full request (or an exact and an
            # approximated one) for the same spec must run them as
            # separate engine batches.
            groups.setdefault((base_key, request.top_k, request.approx), []).append(request)
        for requests in groups.values():
            datasets = [request.data for request in requests]
            rf = requests[0].rf
            top_k = requests[0].top_k
            approx = requests[0].approx
            try:
                plans = self.engine.plan_batch(datasets, rf, top_k=top_k, approx=approx)
                results = await asyncio.wrap_future(
                    self.engine.submit_batch(datasets, rf, top_k=top_k, approx=approx)
                )
            except Exception as exc:  # noqa: BLE001 - forwarded to callers
                self.stats.add(errors=len(requests))
                for request in requests:
                    self._resolve_error(request, exc)
                continue
            for request, result, plan in zip(requests, results, plans):
                if request.name and result.name != request.name:
                    result = result.renamed(request.name)
                reply = ServiceReply(
                    result=result,
                    model=plan.model,
                    algorithm=plan.algorithm,
                    batch_size=len(batch),
                    k=top_k,
                    approx=plan.approx.as_dict() if plan.approx is not None else None,
                )
                if request.key is not None:
                    self.results.put(request.key, reply)
                self._resolve(request, reply)

    def _resolve(self, request: _PendingRequest, reply: ServiceReply) -> None:
        """Deliver a reply and release the request's admission slot."""
        self._release(request)
        if not request.future.done():
            request.future.set_result(reply)

    def _resolve_error(self, request: _PendingRequest, exc: BaseException) -> None:
        """Deliver a failure and release the request's admission slot."""
        self._release(request)
        if not request.future.done():
            request.future.set_exception(exc)

    def _release(self, request: _PendingRequest) -> None:
        """Drop the in-flight registration and pending count of a request."""
        self._pending -= 1
        if request.key is not None and self._inflight.get(request.key) is request.future:
            del self._inflight[request.key]


def _consume_exception(future: "asyncio.Future[ServiceReply]") -> None:
    """Mark a future's exception as retrieved (silences loop warnings)."""
    if not future.cancelled():
        future.exception()

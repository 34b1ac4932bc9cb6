"""Open-loop JSON-lines load generator and the statistics it reports.

The generator runs on one asyncio thread over at most two TCP
connections.  Every request line is encoded before a phase starts; the
phase then writes each line at its scheduled instant whether or not
earlier requests have been answered (an open loop: independent users do
not wait for each other), and matches reply lines to requests by ``id``.

Latency is timed from a request's *scheduled* send instant, so a stall
in the server (or in the generator) is charged to every request it
delays.  How late the generator itself wrote each line is recorded
separately as lateness.  Error replies, timeouts and disconnects are
failures; a failure counts as missing every latency limit.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

import numpy as np

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10
#: The highest percentile ever reported as the tail.
TAIL_CAP = 99.0
#: Samples per chunk of :func:`chunked_tail`.
CHUNK_SAMPLES = 150
#: The latency limit of the ladder's stop rule (on the tail percentile).
LATENCY_LIMIT_MS = 50.0
#: The error ratio a ladder step may not exceed.
MAX_ERROR_RATIO = 0.01
#: A request unanswered this long after its scheduled send is a timeout.
REQUEST_TIMEOUT_S = 10.0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail_percentile(count: int) -> float:
    """The highest percentile with ``MIN_TAIL_SAMPLES`` samples beyond it.

    Capped at ``TAIL_CAP``; never below the median, which is what a
    sample too small for any tail falls back to.
    """
    if count <= 0:
        return 50.0
    q = 100.0 * (1.0 - MIN_TAIL_SAMPLES / count)
    return max(50.0, min(TAIL_CAP, math.floor(q * 10.0) / 10.0))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values`` (which must be non-empty)."""
    ordered = sorted(values)
    # Rounded first so float noise (990.0000000001) cannot push the rank up one.
    rank = max(1, math.ceil(round(q * len(ordered) / 100.0, 6)))
    return ordered[min(rank, len(ordered)) - 1]


def chunked_tail(values: list[float]) -> float:
    """The median over consecutive chunks of ``values`` of each chunk's tail.

    ``values`` (in time order) are cut into as many equal consecutive
    chunks of at least ``CHUNK_SAMPLES`` as they fill (at least one); the
    tail of a chunk is its highest percentile with ``MIN_TAIL_SAMPLES``
    samples beyond it -- about the 94th.  A pause of the machine or the
    server delays the requests of one chunk; taking the median chunk keeps
    that single event from deciding the result, while a tail that every
    chunk shares still shows.
    """
    if not values:
        return 0.0
    chunks = max(1, len(values) // CHUNK_SAMPLES)
    bounds = [round(i * len(values) / chunks) for i in range(chunks + 1)]
    tails = []
    for low, high in zip(bounds, bounds[1:]):
        chunk = values[low:high]
        tails.append(percentile(chunk, tail_percentile(len(chunk))))
    return float(np.median(tails))


@dataclass
class Request:
    """One scheduled request and what became of it."""

    id: int
    offset: float
    line: bytes
    due: float = 0.0
    connection: int = -1
    sent: float | None = None
    done: float | None = None
    ok: bool = False
    error: str | None = None


@dataclass
class PhaseResult:
    """Latency, failures and lateness of one phase at one offered rate."""

    rate: float
    duration: float
    start: float = 0.0
    requests: list[Request] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        """Requests scheduled in the phase."""
        return len(self.requests)

    @property
    def failed(self) -> int:
        """Requests that failed, were shed or timed out."""
        return sum(1 for request in self.requests if not _succeeded(request))

    def latencies_ms(self) -> list[float]:
        """Per-request latency from the scheduled send; failures at the timeout."""
        out = []
        for request in self.requests:
            if _succeeded(request):
                out.append((request.done - request.due) * 1e3)
            else:
                out.append(REQUEST_TIMEOUT_S * 1e3)
        return out

    def lateness_ms(self) -> list[float]:
        """How late the generator wrote each line (sent requests only)."""
        return [
            (request.sent - request.due) * 1e3
            for request in self.requests
            if request.sent is not None
        ]

    def backlog(self) -> int:
        """Requests due by the phase's end that were still unanswered then."""
        end = self.start + self.duration
        return sum(
            1
            for request in self.requests
            if request.due <= end and (request.done is None or request.done > end)
        )

    def summary(self) -> dict[str, float]:
        """p50, chunked tail (see :func:`chunked_tail`), lateness and failure counts."""
        ordered = sorted(zip((r.due for r in self.requests), self.latencies_ms()))
        latencies = [latency for _, latency in ordered]
        late = self.lateness_ms()
        return {
            "rate": self.rate,
            "attempted": self.attempted,
            "failed": self.failed,
            "p50_ms": percentile(latencies, 50.0) if latencies else 0.0,
            "tail_ms": chunked_tail(latencies),
            "late_p99_ms": percentile(late, tail_percentile(len(late))) if late else 0.0,
            "backlog": self.backlog(),
        }


def _succeeded(request: Request) -> bool:
    return (
        request.ok
        and request.done is not None
        and request.done - request.due <= REQUEST_TIMEOUT_S
    )


def step_passes(summary: dict[str, float]) -> bool:
    """The ladder's stop rule: does one rung meet the service limits?

    A rung passes when its chunked tail latency is within ``LATENCY_LIMIT_MS``,
    its error ratio within ``MAX_ERROR_RATIO``, and the backlog left at
    its end is no more than twice what the offered rate keeps in flight
    at the latency limit (Little's law), so the queue is not growing.
    """
    attempted = summary["attempted"]
    error_ratio = summary["failed"] / attempted if attempted else 1.0
    allowance = 2.0 * summary["rate"] * LATENCY_LIMIT_MS / 1e3 + 4.0
    return (
        summary["tail_ms"] <= LATENCY_LIMIT_MS
        and error_ratio <= MAX_ERROR_RATIO
        and summary["backlog"] <= allowance
    )


async def climb(
    rung: Callable[[float], Awaitable[bool]],
    start: float,
    factor: float,
    max_rungs: int,
    bisections: int,
    tries: int,
) -> float:
    """The highest rate at which ``rung(rate)`` passes, searched upward from ``start``.

    Rates rise by ``factor`` while rungs pass.  A rate passes when any of
    ``tries`` rungs at it passes, so a pause that hits one rung does not
    end the climb; saturation fails every try.  Then ``bisections`` rates
    halve (geometrically) the gap between the last passing and the
    failing rate.  No more than ``max_rungs`` rungs run before the
    bisection; ``start`` is the floor of the result.
    """
    rungs = 0

    async def passes(rate: float) -> bool:
        nonlocal rungs
        for _ in range(tries):
            rungs += 1
            if await rung(rate):
                return True
        return False

    best, failing = start, None
    while rungs < max_rungs:
        rate = best * factor
        if not await passes(rate):
            failing = rate
            break
        best = rate
    for _ in range(bisections if failing is not None else 0):
        rate = (best * failing) ** 0.5
        if await passes(rate):
            best = rate
        else:
            failing = rate
    return best


def poisson_offsets(rng: np.random.Generator, rate: float, duration: float) -> list[float]:
    """Arrival instants of a Poisson process of ``rate`` over ``duration`` seconds."""
    offsets: list[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= duration:
            return offsets
        offsets.append(t)


def encode(message: dict[str, Any]) -> bytes:
    """One JSON request line."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------
class _Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.alive = True


class LoadGenerator:
    """Open-loop client over ``connections`` JSON-lines TCP connections."""

    def __init__(self, host: str, port: int, connections: int = 2) -> None:
        self.host = host
        self.port = port
        self.connection_count = connections
        self._connections: list[_Connection] = []
        self._readers: list[asyncio.Task[None]] = []
        self._pending: dict[int, Request] = {}
        self._calls: dict[int, asyncio.Future[dict[str, Any]]] = {}
        self._kept: dict[int, bytes] = {}
        self.keep: set[int] = set()
        self._next_call_id = -1

    async def connect(self) -> None:
        """Open every connection and start its reply reader."""
        for index in range(self.connection_count):
            reader, writer = await asyncio.open_connection(
                self.host, self.port, limit=64 * 1024 * 1024
            )
            self._connections.append(_Connection(reader, writer))
            self._readers.append(asyncio.get_running_loop().create_task(self._read(index)))

    async def close(self) -> None:
        """Close every connection and stop the readers."""
        for connection in self._connections:
            connection.writer.close()
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)
        for connection in self._connections:
            try:
                await connection.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def kept_reply(self, request_id: int) -> dict[str, Any] | None:
        """The decoded reply of a request whose id was in ``keep``."""
        line = self._kept.get(request_id)
        return json.loads(line) if line is not None else None

    async def call(self, message: dict[str, Any], timeout: float = 60.0) -> dict[str, Any]:
        """Send one control request (ping/stats/register) and await its reply."""
        request_id = self._next_call_id
        self._next_call_id -= 1
        future: asyncio.Future[dict[str, Any]] = asyncio.get_running_loop().create_future()
        self._calls[request_id] = future
        connection = self._connections[0]
        connection.writer.write(encode({**message, "id": request_id}))
        await connection.writer.drain()
        try:
            return await asyncio.wait_for(future, timeout)
        finally:
            self._calls.pop(request_id, None)

    async def run(self, requests: list[Request], rate: float, duration: float) -> PhaseResult:
        """Send ``requests`` on their schedule, then wait for the replies."""
        start = time.perf_counter() + 0.05
        phase = PhaseResult(rate=rate, duration=duration, start=start, requests=requests)
        for request in requests:
            request.due = start + request.offset
        # The generator's own collector pauses would be charged to the server.
        gc.collect()
        gc.disable()
        try:
            await self._send_all(requests, start, duration)
        finally:
            gc.enable()
        return phase

    async def _send_all(self, requests: list[Request], start: float, duration: float) -> None:
        for index, request in enumerate(requests):
            delay = request.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self._send(request, index % len(self._connections))
        deadline = start + duration + REQUEST_TIMEOUT_S
        while self._pending and time.perf_counter() < deadline:
            await asyncio.sleep(0.005)
        for request in list(self._pending.values()):
            request.error = request.error or "timeout"
        self._pending.clear()

    def _send(self, request: Request, index: int) -> None:
        connection = self._connections[index]
        request.sent = time.perf_counter()
        request.connection = index
        if not connection.alive:
            request.error = "disconnect"
            return
        self._pending[request.id] = request
        connection.writer.write(request.line)

    async def _read(self, index: int) -> None:
        connection = self._connections[index]
        try:
            while True:
                line = await connection.reader.readline()
                if not line:
                    break
                now = time.perf_counter()
                reply = json.loads(line)
                request_id = reply.get("id")
                future = self._calls.get(request_id)
                if future is not None:
                    if not future.done():
                        future.set_result(reply)
                    continue
                request = self._pending.pop(request_id, None)
                if request is None:
                    continue
                request.done = now
                request.ok = bool(reply.get("ok"))
                if not request.ok:
                    request.error = str(reply.get("error", {}).get("type", "error"))
                if request_id in self.keep:
                    self._kept[request_id] = line
        except (ConnectionError, OSError):
            pass
        finally:
            connection.alive = False
            for request_id, request in list(self._pending.items()):
                if request.connection == index:
                    request.error = "disconnect"
                    del self._pending[request_id]
            for future in self._calls.values():
                if not future.done():
                    future.set_exception(ConnectionError("server closed the connection"))

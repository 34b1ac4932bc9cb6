"""Run the TCP ranking server with timing wrappers around each layer's calls.

Usage::

    python perfbench/traced_server.py SPANS_DIR [server arguments ...]

Installs wrappers, then calls ``repro.service.__main__.main`` with the
remaining arguments, exactly as ``python -m repro.service`` would.  Each
wrapper is patched where its name is looked up at call time:

* ``tcp._respond`` opens a per-request context carrying the wire ``id``;
* ``tcp.dataset_from_payload`` / ``tcp.ranking_function_from_payload``
  (imported by name into ``repro.service.tcp``) time the wire decoding;
* ``RankingService.submit`` times admission through the reply;
* ``service._PendingRequest`` is replaced by a subclass stamping its
  admission instant, read back when its sub-batch reaches the pool;
* ``WorkerPool.execute`` times one sub-batch round trip to a worker;
* ``Engine.rank_batch`` times the kernels inside the worker processes,
  which inherit the wrapper because the pool forks after it is installed.

Parent spans stay in memory and are written to ``SPANS_DIR/parent.json``
when the server exits.  Forked workers skip ``atexit``, so each appends
its spans to ``SPANS_DIR/worker-<pid>.jsonl`` as they happen.  The
request ``name`` label is never touched: it is part of the result-cache
key.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "src"))

from repro.engine import facade  # noqa: E402
from repro.service import __main__ as service_main  # noqa: E402
from repro.service import pool, service, tcp  # noqa: E402

#: Parent-side spans: ``[name, start, end, request id]`` (perf_counter seconds).
SPANS: list[list[Any]] = []
_REQUEST_ID: contextvars.ContextVar[Any] = contextvars.ContextVar("request_id", default=None)


def _span(name: str, start: float, end: float) -> None:
    SPANS.append([name, start, end, _REQUEST_ID.get()])


def install(spans_dir: Path) -> None:
    """Patch every traced call site (before the pool forks its workers)."""
    parent_pid = os.getpid()

    original_respond = tcp._respond

    async def respond(service_: Any, registry: Any, line: bytes, *args: Any) -> None:
        try:
            request_id = json.loads(line).get("id")
        except (ValueError, AttributeError):
            request_id = None
        _REQUEST_ID.set(request_id)
        await original_respond(service_, registry, line, *args)

    tcp._respond = respond

    for attribute in ("dataset_from_payload", "ranking_function_from_payload"):
        original = getattr(tcp, attribute)

        def decode(payload: Any, _original: Any = original) -> Any:
            start = time.perf_counter()
            try:
                return _original(payload)
            finally:
                _span("spec.decode", start, time.perf_counter())

        setattr(tcp, attribute, decode)

    original_submit = service.RankingService.submit

    @functools.wraps(original_submit)
    async def submit(self: Any, *args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return await original_submit(self, *args, **kwargs)
        finally:
            _span("service.submit", start, time.perf_counter())

    service.RankingService.submit = submit

    @dataclass
    class StampedRequest(service._PendingRequest):
        def __post_init__(self) -> None:
            self.admitted = time.perf_counter()
            self.request_id = _REQUEST_ID.get()

    service._PendingRequest = StampedRequest

    original_shard = pool.PooledRankingService._execute_shard

    @functools.wraps(original_shard)
    async def execute_shard(self: Any, shard: int, requests: list[Any], **kwargs: Any) -> None:
        if not kwargs.get("reroutes"):
            now = time.perf_counter()
            for request in requests:
                admitted = getattr(request, "admitted", None)
                if admitted is not None:
                    SPANS.append(["service.window_wait", admitted, now, request.request_id])
        await original_shard(self, shard, requests, **kwargs)

    pool.PooledRankingService._execute_shard = execute_shard

    original_execute = pool.WorkerPool.execute

    @functools.wraps(original_execute)
    async def execute(self: Any, shard: int, datasets: Any, *args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return await original_execute(self, shard, datasets, *args, **kwargs)
        finally:
            SPANS.append(["pool.execute", start, time.perf_counter(), len(datasets)])

    pool.WorkerPool.execute = execute

    original_rank_batch = facade.Engine.rank_batch
    worker_files: dict[int, Any] = {}

    @functools.wraps(original_rank_batch)
    def rank_batch(self: Any, datasets: Any, *args: Any, **kwargs: Any) -> Any:
        pid = os.getpid()
        if pid == parent_pid:
            return original_rank_batch(self, datasets, *args, **kwargs)
        start = time.perf_counter()
        try:
            return original_rank_batch(self, datasets, *args, **kwargs)
        finally:
            end = time.perf_counter()
            handle = worker_files.get(pid)
            if handle is None:
                handle = open(spans_dir / f"worker-{pid}.jsonl", "a", buffering=1)
                worker_files[pid] = handle
            stats = self.cache.stats
            handle.write(json.dumps([start, end, stats.hits, stats.misses]) + "\n")

    facade.Engine.rank_batch = rank_batch


def main() -> None:
    """Install the wrappers, run the server, write parent spans on exit."""
    spans_dir = Path(sys.argv[1])
    spans_dir.mkdir(parents=True, exist_ok=True)
    install(spans_dir)
    try:
        service_main.main(sys.argv[2:])
    finally:
        (spans_dir / "parent.json").write_text(json.dumps(SPANS))


if __name__ == "__main__":
    main()

"""Independent rows of a kernel stack, run on every core of the machine.

The engine's large stacks are row-parallel: the rows of an alpha sweep or
of a ``rank_batch`` stack and the terms of a linear combination never
read each other's intermediates.  :func:`run_parts` runs a function over
contiguous parts of such a stack: the calling thread runs the first part
and a lazily built process-wide thread pool the others.  numpy releases
the GIL in the kernels' ufuncs, cumulative sums, sorts and gathers, so
the parts run on separate cores.  Each row still runs the same operations
in the same order as on one core, so a split changes no value.

Stacks under :data:`PARALLEL_MIN_ELEMENTS` run inline: handing a part to
an idle core costs from tens of microseconds up to ~2 ms (waking an idle
virtual CPU), so small requests (the serving tier's n = 200 relations)
never reach the pool.  A forked child drops the parent's pool (its
threads do not exist in the child) and builds its own on first use.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Callable, Sequence

__all__ = ["PARALLEL_MIN_ELEMENTS", "available_cores", "row_parts", "run_parts"]

#: Smallest stack, in elements, that is split across cores.
PARALLEL_MIN_ELEMENTS = 1 << 18

_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None


def available_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


def row_parts(rows: int, elements: int) -> list[range]:
    """Contiguous parts of ``range(rows)``, one per core.

    A stack of fewer than :data:`PARALLEL_MIN_ELEMENTS` ``elements``, or
    of one row, is one part.
    """
    count = min(rows, available_cores())
    if count < 2 or elements < PARALLEL_MIN_ELEMENTS:
        return [range(rows)]
    bounds = [rows * part // count for part in range(count + 1)]
    return [range(start, stop) for start, stop in zip(bounds, bounds[1:])]


def _executor() -> ThreadPoolExecutor:
    """The process-wide pool, built on first use with one thread per extra core."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=max(1, available_cores() - 1), thread_name_prefix="engine-rows"
            )
        return _pool


def _drop_pool_in_child() -> None:
    """Forget the parent's pool: its threads did not survive the fork."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool_in_child)


def run_parts(function: Callable[[range], None], parts: Sequence[range]) -> None:
    """Call ``function(part)`` for every part, the first on the calling thread.

    The other parts go to the pool.  A part still queued when the caller
    finishes its own (other callers' parts are ahead of it) is taken back
    and run here, so a busy pool delays no caller.  Returns once every
    part has finished.  If a part raises, the parts not yet started are
    dropped and the first error is raised once no part is running.
    """
    if len(parts) == 1:
        function(parts[0])
        return
    pool = _executor()
    futures: list[Future[None]] = [pool.submit(function, part) for part in parts[1:]]
    try:
        function(parts[0])
        for future, part in zip(futures, parts[1:]):
            if future.cancel():
                function(part)
    finally:
        for future in futures:
            future.cancel()
        # A cancelled future counts as done only once a pool thread dequeues it.
        started = [future for future in futures if not future.cancelled()]
        wait(started)
    for future in started:
        future.result()

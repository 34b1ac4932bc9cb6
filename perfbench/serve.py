"""The ``serve_hot`` workload: the TCP server under open-loop load.

It starts the real server (``python -m repro.service --pool-shards 2``,
every other flag at its default, on a free port) and drives it with
:class:`loadgen.LoadGenerator` through fixed-rate phases (``low`` and
``high``).  The traced run then climbs a ladder of rising rates that
stops at the first rate missing the limits of
:func:`loadgen.step_passes` on every try, and bisects between it and the
last rate that met them.  Only the traced run climbs it: the capacity it
finds swung by half from run to run on a shared 2-core box (10 runs:
194-1697 rps), too much for any regression bound.

The traffic ranks a registered hot set by reference.  Each of 256 users
has a learned PRFe alpha, so the result cache serves about the 30% of
traffic that uses the shared PRFomega spec and misses the rest: the
latency median sits inside the miss distribution rather than flipping
between a hit mode and a miss mode.  An n=200 kernel costs about 0.3 ms,
so admission, the coalescing window, routing, the worker pipe and the
wire dominate.

After the timed phases a seeded sample of replies is compared with
in-process :class:`repro.engine.Engine` answers, bit for bit.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

import loadgen
from loadgen import LoadGenerator, PhaseResult, Request, encode, poisson_offsets

from repro.core.prf import PRFe, PRFOmega
from repro.core.weights import StepWeight
from repro.datasets import generate_independent
from repro.engine import Engine
from repro.service.spec import dataset_to_payload, encode_value

#: Offered rates (requests per second) of the fixed-rate phases.
RATES = {"low": 40.0, "high": 150.0}
#: Share of ``--seconds`` spent in each fixed-rate phase, and in each ladder rung.
PHASE_SHARE = {"low": 0.35, "high": 0.47}
RUNG_SHARE = 0.05
#: Share of ``--seconds`` of unmeasured traffic at the high rate before the
#: phases: a fresh server stalls once or twice for 50-100 ms in its first
#: seconds under load, a start-up transient that dominated the tail.
WARMUP_SHARE = 0.18
#: The ladder (see :func:`loadgen.climb`): rates rise from the high rate by
#: this factor, each tried up to this many times, with this many rungs at
#: most before this many bisections.
LADDER_FACTOR = 2.0
LADDER_TRIES = 2
LADDER_RUNGS = 12
BISECTIONS = 3
#: Seconds of quiet after a failed rung.  Overload trips the pool's
#: latency-aware breakers (open for 1 s, then half-open trials), and a
#: rung started before they close measures the recovery, not the rate.
COOLDOWN = 1.5
#: Server start-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Replies per fixed-rate phase compared with in-process answers.
SAMPLE_PER_PHASE = 32
#: Seconds between the pings the traced run interleaves.
PING_INTERVAL = 0.2

HOT_DATASETS = 96
HOT_N = 200
USERS = 256
ALPHA_RANGE = (0.80, 0.98)
HOT_TOP_K_SHARE = 0.7
K = 10
OMEGA_HORIZON = 20

SERVER_ARGS = ["--pool-shards", "2", "--port", "0"]


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One server process group, its log, and (traced) its spans directory."""

    def __init__(self, root: Path, out: Path, traced: bool, index: int) -> None:
        self.log_path = out / f"server-{index}.log"
        self.spans_dir = out / f"spans-{index}"
        if traced:
            command = [sys.executable, "-u", str(root / "perfbench" / "traced_server.py"),
                       str(self.spans_dir), *SERVER_ARGS]
        else:
            command = [sys.executable, "-u", "-m", "repro.service", *SERVER_ARGS]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        self.host, self.port = self._wait_listening()

    def _wait_listening(self, timeout: float = 120.0) -> tuple[str, int]:
        deadline = time.perf_counter() + timeout
        pattern = re.compile(rb"listening on ([0-9.]+):(\d+)")
        while time.perf_counter() < deadline:
            match = pattern.search(self.log_path.read_bytes())
            if match:
                return match.group(1).decode(), int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(f"server did not start:\n{self.log_path.read_text()[-2000:]}")

    def peak_rss_mib(self) -> float:
        """Sum of the peak resident sets of the server and its workers."""
        total = 0
        for pid in [self.process.pid, *_children(self.process.pid)]:
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
            except OSError:
                continue
        return total / 1024.0

    def stop(self) -> None:
        """SIGINT the server, then kill whatever of its group is left, and wait."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.perf_counter() + 20
        while time.perf_counter() < deadline:
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                break
            time.sleep(0.05)
        self.process.wait()
        self._log.close()


def _children(pid: int) -> list[int]:
    """Child pids of every thread of ``pid`` (the pool forks from a helper thread)."""
    children = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            children += [int(child) for child in (task / "children").read_text().split()]
        except OSError:
            continue
    return children


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
class Traffic:
    """The seeded hot set and request mix, and the expected answers."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.alphas = [float(a) for a in rng.uniform(*ALPHA_RANGE, size=USERS)]
        self.hot = [generate_independent(HOT_N, rng, name=f"hot-{i}") for i in range(HOT_DATASETS)]
        #: Request id -> (op, dataset index, alpha or ``None`` for PRFomega).
        self.specs: dict[int, tuple[str, int, float | None]] = {}
        self._next_id = 1

    def register_messages(self) -> list[dict[str, Any]]:
        """The hot set's ``register`` requests (part of set-up)."""
        return [
            {"op": "register", "name": f"hot-{i}", "dataset": dataset_to_payload(data)}
            for i, data in enumerate(self.hot)
        ]

    def phase(self, label: int, rate: float, duration: float) -> list[Request]:
        """Encode every request of one phase (before the phase starts)."""
        rng = np.random.default_rng([self.seed, 1, label])
        return [self._request(rng, offset) for offset in poisson_offsets(rng, rate, duration)]

    def _request(self, rng: np.random.Generator, offset: float) -> Request:
        request_id = self._next_id
        self._next_id += 1
        dataset = int(rng.integers(HOT_DATASETS))
        alpha = self.alphas[int(rng.integers(USERS))]
        message: dict[str, Any] = {"id": request_id, "dataset": {"ref": f"hot-{dataset}"}, "k": K}
        if rng.random() < HOT_TOP_K_SHARE:
            message.update(op="top_k", rf={"type": "prfe", "alpha": alpha})
            self.specs[request_id] = ("top_k", dataset, alpha)
        else:
            message.update(op="rank", rf={"type": "step", "h": OMEGA_HORIZON})
            self.specs[request_id] = ("rank", dataset, None)
        return Request(id=request_id, offset=offset, line=encode(message))

    def check(self, engine: Engine, request_id: int, reply: dict[str, Any] | None) -> bool:
        """Whether a reply equals the in-process answer, bit for bit."""
        if reply is None or not reply.get("ok"):
            return False
        op, dataset, alpha = self.specs[request_id]
        data = self.hot[dataset]
        if op == "top_k":
            expected = list(engine.rank_top_k(data, PRFe(alpha), K)[0])
        else:
            expected = list(engine.rank(data, PRFOmega(StepWeight(OMEGA_HORIZON))))[:K]
        want = [[item.position, item.item.tid, encode_value(item.value)] for item in expected]
        got = [[entry["position"], entry["tid"], entry["value"]] for entry in reply["ranking"]]
        return want == got


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
async def _setup(root: Path, out: Path, traced: bool, traffic: Traffic, index: int):
    start = time.perf_counter()
    server = Server(root, out, traced, index)
    generator = LoadGenerator(server.host, server.port)
    try:
        await generator.connect()
        reply = await generator.call({"op": "ping"})
        if not reply.get("ok"):
            raise RuntimeError(f"ping failed: {reply}")
        for message in traffic.register_messages():
            reply = await generator.call(message)
            if not reply.get("ok"):
                raise RuntimeError(f"register failed: {reply}")
    except BaseException:
        await generator.close()
        server.stop()
        raise
    return server, generator, time.perf_counter() - start


async def _pinger(generator: LoadGenerator, rtts: list[tuple[float, float]]) -> None:
    """Ping every ``PING_INTERVAL``; append ``(send instant, RTT ms)`` to ``rtts``."""
    while True:
        await asyncio.sleep(PING_INTERVAL)
        start = time.perf_counter()
        await generator.call({"op": "ping"})
        rtts.append((start, (time.perf_counter() - start) * 1e3))


async def run(seed: int, seconds: float, traced: bool, root: Path, out: Path) -> dict[str, Any]:
    """Run ``serve_hot``; returns the result object ``run.py`` prints."""
    traffic = Traffic(seed)
    setups = []
    for index in range(SETUPS - 1):
        server, generator, elapsed = await _setup(root, out, traced, traffic, index)
        setups.append(elapsed)
        await generator.close()
        server.stop()
    server, generator, elapsed = await _setup(root, out, traced, traffic, SETUPS - 1)
    setups.append(elapsed)
    rtts: list[tuple[float, float]] = []
    pinger = asyncio.get_running_loop().create_task(_pinger(generator, rtts)) if traced else None
    try:
        phases: dict[str, PhaseResult] = {}
        sample_rng = np.random.default_rng([seed, 3])
        warmup = WARMUP_SHARE * seconds
        await generator.run(traffic.phase(99, RATES["high"], warmup), RATES["high"], warmup)
        stats: list[dict[str, Any]] = [(await generator.call({"op": "stats"}))["stats"]]
        for label, name in enumerate(("low", "high")):
            duration = PHASE_SHARE[name] * seconds
            requests = traffic.phase(label, RATES[name], duration)
            chosen = sample_rng.choice(len(requests), size=SAMPLE_PER_PHASE, replace=False)
            generator.keep.update(requests[int(i)].id for i in chosen)
            phases[name] = await generator.run(requests, RATES[name], duration)
            stats.append((await generator.call({"op": "stats"}))["stats"])
        ladder: list[dict[str, float]] = []

        async def rung(rate: float) -> bool:
            duration = RUNG_SHARE * seconds
            requests = traffic.phase(10 + len(ladder), rate, duration)
            ladder.append((await generator.run(requests, rate, duration)).summary())
            if loadgen.step_passes(ladder[-1]):
                return True
            await asyncio.sleep(COOLDOWN)
            return False

        max_rate = None
        if traced:
            max_rate = await loadgen.climb(
                rung, RATES["high"], LADDER_FACTOR, LADDER_RUNGS, BISECTIONS, LADDER_TRIES
            )
        peak_rss = server.peak_rss_mib()
    finally:
        if pinger is not None:
            pinger.cancel()
            await asyncio.gather(pinger, return_exceptions=True)
        await generator.close()
        server.stop()

    engine = Engine()
    checked = sorted(generator.keep)
    mismatches = [i for i in checked if not traffic.check(engine, i, generator.kept_reply(i))]
    attempted = sum(phase.attempted for phase in phases.values())
    failed = sum(phase.failed for phase in phases.values())
    low, high = phases["low"].summary(), phases["high"].summary()
    metrics = {
        "setup_s": float(np.median(setups)),
        "low.ms": low["p50_ms"],
        "low.tail_ms": low["tail_ms"],
        "high.ms": high["p50_ms"],
        "high.tail_ms": high["tail_ms"],
        "ok_ratio": 1.0 - failed / attempted,
        "peak_rss_mib": peak_rss,
    }
    if max_rate is not None:
        metrics["max_rate_rps"] = max_rate
    report = {
        "phases": {"low": low, "high": high},
        "ladder": ladder,
        "setups_s": setups,
        "checked": len(checked),
        "mismatches": mismatches,
    }
    layers = _layers(stats[0], stats[-1], phases, server.spans_dir, rtts) if traced else {}
    return {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "layers": layers,
        "report": report,
    }


# ----------------------------------------------------------------------
# Per-layer numbers
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _tail(values: list[float]) -> float:
    return loadgen.percentile(values, loadgen.tail_percentile(len(values))) if values else 0.0


def _p50(values: list[float]) -> float:
    return loadgen.percentile(values, 50.0) if values else 0.0


def _layers(before: dict[str, Any], after: dict[str, Any], phases: dict[str, PhaseResult],
            spans_dir: Path, rtts: list[tuple[float, float]]) -> dict[str, float]:
    """Counter deltas over the fixed-rate phases, plus span statistics."""
    # The fixed-rate phases only: the ladder starts as soon as they drain.
    start = phases["low"].start
    end = max(r.done or r.due for r in phases["high"].requests)
    def delta(key: str) -> int:
        return after[key] - before[key]

    pool_before, pool_after = before["pool"], after["pool"]

    def pool_delta(key: str) -> int:
        return pool_after["totals"][key] - pool_before["totals"][key]

    requests = delta("requests")
    batches = delta("batches")
    dispatched = pool_delta("dispatched")
    hedges = pool_after["hedges_fired"] - pool_before["hedges_fired"]
    executed_per_shard = [
        a["executed"] - b["executed"]
        for a, b in zip(pool_after["per_shard"], pool_before["per_shard"])
    ]
    opens = sum((pool_after.get("breakers") or {}).get("opens", [])) - sum(
        (pool_before.get("breakers") or {}).get("opens", [])
    )
    layers = {
        "service.requests": requests,
        "service.cache_hit_ratio": _ratio(delta("cache_hits"), requests),
        "service.dedup_ratio": _ratio(delta("deduplicated"), requests),
        "service.batches": batches,
        "service.batch_mean": _ratio(delta("executed"), batches),
        "service.shed_ratio": _ratio(delta("shed") + delta("deadline_shed"), requests),
        "pool.dispatched": dispatched,
        "pool.dispatch_per_exec": _ratio(dispatched, pool_delta("executed")),
        "pool.hedges_fired": hedges,
        "pool.hedge_ratio": _ratio(hedges, dispatched),
        "pool.hedge_win_ratio": _ratio(
            pool_after["hedges_won"] - pool_before["hedges_won"], hedges
        ),
        "pool.retries": pool_delta("retries"),
        "pool.timeouts": pool_delta("timeouts"),
        "pool.restarts": pool_after["restarts_total"] - pool_before["restarts_total"],
        "pool.breaker_opens": opens,
        "router.shard_skew": _ratio(
            max(executed_per_shard), sum(executed_per_shard) / len(executed_per_shard)
        ),
        "tcp.ping_rtt_ms": _p50([rtt for sent, rtt in rtts if start <= sent <= end]),
        "loadgen.late_p99_ms": max(phase.summary()["late_p99_ms"] for phase in phases.values()),
    }
    spans = [s for s in json.loads((spans_dir / "parent.json").read_text()) if start <= s[1] <= end]
    decode: dict[Any, float] = {}
    by_name: dict[str, list[float]] = {}
    for name, begin, finish, request_id in spans:
        duration = (finish - begin) * 1e3
        if name == "spec.decode":
            decode[request_id] = decode.get(request_id, 0.0) + duration
        else:
            by_name.setdefault(name, []).append(duration)
    worker_ms: list[float] = []
    hits = misses = 0
    for path in spans_dir.glob("worker-*.jsonl"):
        rows = [json.loads(line) for line in path.read_text().splitlines() if line]
        rows = [row for row in rows if start <= row[0] <= end]
        worker_ms += [(row[1] - row[0]) * 1e3 for row in rows]
        if rows:
            # Cumulative counters: the difference across the window.
            hits += rows[-1][2] - rows[0][2]
            misses += rows[-1][3] - rows[0][3]
    execute = by_name.get("pool.execute", [])
    layers.update({
        "spec.decode_ms": _p50(list(decode.values())),
        "service.submit_p50_ms": _p50(by_name.get("service.submit", [])),
        "service.submit_p99_ms": _tail(by_name.get("service.submit", [])),
        "service.window_wait_ms": _p50(by_name.get("service.window_wait", [])),
        "pool.execute_p50_ms": _p50(execute),
        "pool.execute_p99_ms": _tail(execute),
        "worker.engine_ms": _p50(worker_ms),
        "pool.ipc_ms": _p50(execute) - _p50(worker_ms),
        "engine.cache_lookups": hits + misses,
        "engine.cache_hit_ratio": _ratio(hits, hits + misses),
    })
    return layers

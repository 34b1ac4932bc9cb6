"""The repository benchmark: one command, two workloads, one JSON line.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload analytic --seed 1 --seconds 36 --repeat 10 --sets 2

Workloads:

* ``serve_hot`` -- the TCP server under open-loop load (:mod:`serve`);
* ``analytic`` -- the paper's scaling experiments on an in-process engine
  (:mod:`analytic`).

Every workload prints every end-to-end metric of ``BENCHMARK.json``; the
metric names and units are read from there.  On ``serve_hot`` ``low.*`` /
``high.*`` are request latencies at the low and high fixed offered rates,
timed from each request's scheduled send, and ``low.ms`` / ``high.ms``
are their median.  On ``analytic`` ``low.ms`` / ``high.ms`` are the time
of one pass of the queries on small (n <= 1000) and large (n >= 10^5)
inputs, each query at its fastest over the passes (see :mod:`analytic`).
``ok_ratio`` is one minus failed, shed and timed-out requests (or failed
checks) over those attempted.

Three figures vary too much from run to run on a shared 2-core box to
carry a regression bound, so only the traced run prints them, as
``trace.<name>``:

* the tails, ``low.tail_ms`` and ``high.tail_ms``: on ``serve_hot`` the
  median over consecutive chunks of at least 150 samples of each chunk's
  highest percentile with ten samples beyond it (about the 94th; see
  :func:`loadgen.chunked_tail`), on ``analytic`` the slowest pass;
* ``max_rate_rps``: on ``serve_hot`` the highest ladder rate meeting the
  limits (the ladder's stop rule uses the chunked tail), on ``analytic``
  the queries per second of a pass at each query's fastest.

``--trace 1`` runs the same workload with spans around each layer's
calls and prints the per-layer metrics instead, plus the traced run's own
end-to-end values as ``trace.<metric>``; ``--repeat N`` with ``--trace
1`` also runs the untraced twin of each run and prints the overhead.
``--repeat N --sets S`` runs S sets of N runs, interleaved (one run of
each set per round, so machine drift hits every set alike), and prints
how far each set's median of each end-to-end metric moves from the first
set's, against the metric's bound.

The last line of standard output is the result object; everything else
goes to standard error.  The exit code is 0 only when the run completed
and every correctness check passed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_hot", "analytic")


def _declared(section: str) -> dict[str, str]:
    """Metric name -> unit, for one metric list of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def _run_once(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no source tree at {ROOT / 'src' / 'repro'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A shell that starts this in the background leaves SIGINT ignored, and
    # exec'd servers would inherit that and ignore the graceful stop.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    traced = bool(args.trace)
    out = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        if args.workload == "analytic":
            import analytic

            result = analytic.run(args.seed, args.seconds, traced)
        else:
            import serve

            result = asyncio.run(serve.run(args.seed, args.seconds, traced, ROOT, out))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result.pop("report"), default=str), file=sys.stderr)
    if traced:
        # ``trace.<metric>`` is the traced run's own end-to-end value; every
        # other per-layer metric comes from the workload's layers, and is 0
        # where the workload never touches that layer.
        values = {**result["layers"],
                  **{f"trace.{name}": value for name, value in result["metrics"].items()}}
        declared = _declared("per_layer")
        missing = [name for name in declared if name not in values]
        if missing:
            print(f"not measured on {args.workload} (its layers are not on this path; "
                  f"reported as 0): {', '.join(missing)}", file=sys.stderr)
            values.update(dict.fromkeys(missing, 0.0))
    else:
        # The tails and the ladder's rate are not declared here (see the
        # module docstring); the traced run reports them.
        values = result["metrics"]
        declared = _declared("end_to_end")
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in declared.items()}
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


def _spread(series: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    mid = statistics.median(series)
    q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (mid, 0, mid)
    return mid, q1, q3, (q3 - q1) / mid if mid else 0.0


def _repeat(args: argparse.Namespace) -> int:
    """Run ``--sets`` interleaved sets of ``--repeat`` runs; print spreads and shifts.

    Set ``s`` runs seeds ``--seed + 1000 s`` onwards.
    """
    modes = [args.trace] if not args.trace else [0, 1]
    values: dict[tuple[int, int], dict[str, list[float]]] = {
        (group, mode): {} for group in range(args.sets) for mode in modes
    }
    status = 0
    for offset in range(args.repeat):
        for group in range(args.sets):
            seed = args.seed + 1000 * group + offset
            for mode in modes:
                command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                           "--seed", str(seed), "--seconds", str(args.seconds),
                           "--trace", str(mode)]
                done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print(done.stderr[-3000:], file=sys.stderr)
                    status = 1
                    continue
                result = json.loads(lines[-1])
                for name, metric in result["metrics"].items():
                    values[group, mode].setdefault(name, []).append(metric["value"])
                print(f"set {group} seed {seed} trace {mode}: " + json.dumps(
                    {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                ), file=sys.stderr)
    for (group, mode), series_by_name in values.items():
        print(f"# {args.workload} set={group} trace={mode} runs={args.repeat}")
        print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for name, series in series_by_name.items():
            mid, q1, q3, spread = _spread(series)
            print(f"{name:32s} {mid:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.sets > 1 and not args.trace:
        print("# set medians against set 0 (+ is worse), and each set's spread, vs the bound")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = values[0, 0].get(name)
            for group in range(1, args.sets):
                other = values[group, 0].get(name)
                if not first or not other:
                    continue
                shift = statistics.median(other) / statistics.median(first) - 1.0
                worse = shift if metric["better"] == "lower" else -shift
                spreads = [_spread(values[g, 0][name])[3] for g in range(args.sets)]
                # The set-up time's spread is not held to its bound, only its shift.
                steady = name == "setup_s" or max(spreads) <= bound
                verdict = "ok" if worse <= bound and steady else "OUTSIDE THE BOUND"
                print(f"{name:32s} set {group} {worse:+8.3f} spreads "
                      f"{' '.join(f'{s:.3f}' for s in spreads)} bound {bound:.2f} {verdict}")
    if len(modes) == 2:
        print("# tracing overhead (traced median / untraced median - 1)")
        for metric in spec["end_to_end"]:
            plain = values[0, 0].get(metric["name"])
            traced = values[0, 1].get(f"trace.{metric['name']}")
            if plain and traced:
                ratio = statistics.median(traced) / statistics.median(plain) - 1.0
                print(f"{metric['name']:32s} {ratio:+8.3f}")
    return status


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and run (or repeat) one workload."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times on successive seeds and print medians and spreads")
    parser.add_argument("--sets", type=int, default=1,
                        help="with --repeat: run this many interleaved sets and compare them")
    args = parser.parse_args(argv)
    if args.repeat:
        return _repeat(args)
    return _run_once(args)


if __name__ == "__main__":
    sys.exit(main())

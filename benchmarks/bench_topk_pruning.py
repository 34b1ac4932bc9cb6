"""Top-k early termination — pruned kernels versus full rankings.

Not a paper figure: this benchmark guards the engine's top-k pruning
layer (``Engine.rank_top_k``, :mod:`repro.engine.topk`).  For PRFe with
real ``alpha < 1`` the engine walks tuples in score order and stops once
the k-th best confirmed value dominates the geometric-decay upper bound
``alpha * E[alpha^{C_i}]`` on everything below the prefix.  The contract
measured here:

* the pruned top-k equals the full ranking's prefix on every backend,
  values bit for bit;
* at ``n = 1500, k = 10`` the pruned independent path is at least 5x
  faster than the full ranking in the warm serving state (cache entry
  present, kernels re-run per request);
* the examined-prefix length stays roughly flat as ``n`` grows — the
  pruning curve recorded into the JSON artifact tracks ``examined``
  versus ``n`` so regressions in bound tightness are visible;
* on Markov chains (perfbench ``analytic``'s generator) a cold
  ``rank_top_k`` is no slower than a cold ``rank``, and past the 64-row
  first prefix it prunes.

Timings vary ``alpha`` in the last ulps between repetitions so per-alpha
memos never short-circuit the measured path while the cache entry (the
shared score sort) stays warm — the steady state of the ranking service.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import Engine, PRFe, ProbabilisticRelation, Tuple
from repro.datasets import syn_xor
from repro.graphical import MarkovChainRelation

from _bench_utils import run_once

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

N = 400 if SMOKE else 1500
K = 10
CURVE_SIZES = (100, 200, 400) if SMOKE else (250, 500, 1000, 2000)
TREE_SIZE = 150 if SMOKE else 400
MARKOV_SIZE = 12 if SMOKE else 30
MARKOV_K = 3
#: Chain sizes of the Markov ladder; past 64 tuples pruning must engage.
MARKOV_LADDER = (60, 200) if SMOKE else (60, 200, 600)
#: Largest cold ``rank_top_k`` / ``rank`` time ratio the Markov checks
#: accept.  Where both run one full pass, ten best-of-5 ratios per case
#: spread over 0.93-1.08 at n=30 and 0.88-1.11 at n=60 on a 2-core x86 box.
MARKOV_TIME_RATIO = 1.25
#: Calls per timed call of the independent, curve and tree benchmarks:
#: enough to keep each timed region above ~20 ms, well over the regression
#: gate's 5 ms floor, in smoke runs on a 2-core x86 box.
INDEPENDENT_TOPK_ROUNDS = 200
CURVE_ROUNDS = 5
TREE_TOPK_ROUNDS = 48


def _relation(n: int, seed: int) -> ProbabilisticRelation:
    rng = np.random.default_rng(seed)
    return ProbabilisticRelation.from_arrays(
        rng.uniform(0.0, 10_000.0, size=n),
        rng.uniform(0.0, 1.0, size=n),
        name=f"topk-{n}",
    )


def _best_of(function, repeats: int = 5) -> tuple[object, float]:
    """Result plus best-of-``repeats`` wall time (robust against CI noise)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return result, best


def _alpha_stream(start: float = 0.8):
    """Distinct alphas differing in the last ulps (defeats per-alpha memos)."""
    index = 0
    while True:
        yield start + 1e-9 * index
        index += 1


def test_topk_independent_speedup(benchmark, save_result):
    relation = _relation(N, seed=101)
    engine = Engine()
    engine.rank(relation, PRFe(0.5))  # warm the cache entry (shared score sort)

    alphas = _alpha_stream()
    _, full_time = _best_of(lambda: engine.rank(relation, PRFe(next(alphas))))
    _, topk_time = _best_of(lambda: engine.rank_top_k(relation, PRFe(next(alphas)), K))

    def pruned():
        for _ in range(INDEPENDENT_TOPK_ROUNDS):
            engine.rank_top_k(relation, PRFe(next(alphas)), K)

    run_once(benchmark, pruned)

    rf = PRFe(0.8)
    full = engine.rank(relation, rf)
    pruned, report = engine.rank_top_k(relation, rf, K)
    assert [item.tid for item in pruned] == [item.tid for item in full[:K]]
    assert [item.value for item in pruned] == [item.value for item in full[:K]]
    assert report.pruned and report.examined < N

    speedup = full_time / max(topk_time, 1e-9)
    benchmark.extra_info["examined"] = report.examined
    benchmark.extra_info["fraction_examined"] = round(report.fraction_examined, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    save_result(
        "topk_pruning",
        "\n".join(
            [
                f"relation           n={N}, PRFe(0.8), k={K}",
                f"full rank (s)      {full_time:.6f}",
                f"rank_top_k (s)     {topk_time:.6f}",
                f"speedup            {speedup:.2f}x",
                f"examined           {report.examined} / {N}"
                f" ({report.fraction_examined:.1%})",
            ]
        ),
    )
    # Smoke sizes leave too little margin to gate CI on wall-clock ratios of
    # a noisy shared runner; the artifact still records the trajectory.
    if not SMOKE:
        assert speedup >= 5.0, f"top-k pruning under 5x at n={N}, k={K}: {speedup:.2f}x"


def test_topk_examined_curve(benchmark, save_result):
    """Examined-prefix length versus ``n`` — the pruning curve stays flat."""
    rf = PRFe(0.8)
    rows = []
    reports = []

    def sweep():
        reports.clear()
        engine = Engine()
        for index, n in enumerate(CURVE_SIZES):
            relation = _relation(n, seed=211 + index)
            result, report = engine.rank_top_k(relation, rf, K)
            full = Engine().rank(relation, rf)
            assert [item.tid for item in result] == [item.tid for item in full[:K]]
            reports.append(report)
        return reports

    def sweeps():
        for _ in range(CURVE_ROUNDS):
            sweep()

    run_once(benchmark, sweeps)
    for n, report in zip(CURVE_SIZES, reports):
        rows.append(
            f"n={n:<6} examined={report.examined:<6}"
            f" fraction={report.fraction_examined:.1%}"
        )
    benchmark.extra_info["curve"] = [
        {"n": n, "examined": report.examined} for n, report in zip(CURVE_SIZES, reports)
    ]
    save_result(
        "topk_pruning_curve",
        "\n".join([f"pruning curve      PRFe(0.8), k={K}", *rows]),
    )
    # The examined prefix must not track n: the largest size may examine at
    # most half its tuples (empirically it stays near the 64-tuple floor).
    assert reports[-1].examined <= CURVE_SIZES[-1] // 2


def test_topk_andxor_pruning(benchmark, save_result):
    """Row-prefix stacked PRFe versus the full stacked walk."""
    tree = syn_xor(TREE_SIZE, rng=131)
    engine = Engine()
    engine.rank(tree, PRFe(0.5))  # warm the cache entry

    alphas = _alpha_stream()
    _, full_time = _best_of(lambda: engine.rank(tree, PRFe(next(alphas))), repeats=3)
    _, topk_time = _best_of(
        lambda: engine.rank_top_k(tree, PRFe(next(alphas)), K), repeats=3
    )

    def pruned():
        for _ in range(TREE_TOPK_ROUNDS):
            engine.rank_top_k(tree, PRFe(next(alphas)), K)

    run_once(benchmark, pruned)

    rf = PRFe(0.8)
    full = engine.rank(tree, rf)
    pruned, report = engine.rank_top_k(tree, rf, K)
    assert [item.tid for item in pruned] == [item.tid for item in full[:K]]
    assert [item.value for item in pruned] == [item.value for item in full[:K]]

    speedup = full_time / max(topk_time, 1e-9)
    benchmark.extra_info["examined"] = report.examined
    benchmark.extra_info["speedup"] = round(speedup, 2)
    save_result(
        "topk_pruning_andxor",
        "\n".join(
            [
                f"tree               n={TREE_SIZE} (Syn-XOR), PRFe(0.8), k={K}",
                f"full rank (s)      {full_time:.6f}",
                f"rank_top_k (s)     {topk_time:.6f}",
                f"speedup            {speedup:.2f}x",
                f"examined           {report.examined} / {report.n}"
                f" ({report.fraction_examined:.1%})",
            ]
        ),
    )
    if not SMOKE:
        assert speedup > 1.5, f"tree top-k pruning not faster: {speedup:.2f}x"


def _chain_network(n: int, seed: int):
    """perfbench ``analytic``'s chain: ``n`` tuples, homogeneous 0.6/0.7/0.8."""
    rng = np.random.default_rng(seed)
    tuples = [
        Tuple(f"t{position}", float(score), 1.0)
        for position, score in enumerate(rng.permutation(n * 10)[:n])
    ]
    chain = MarkovChainRelation.homogeneous(tuples, 0.6, 0.7, 0.8, name=f"chain-{n}")
    return chain.to_markov_network()


def _cold_markov_times(network, rf, k: int, repeats: int = 5):
    """Best-of cold ``rank`` and ``rank_top_k`` times, plus the top-k answer.

    Cold engines per repetition: a warm positional matrix short-circuits
    the pruned path by design (the full evaluation is already paid for).
    """
    _, full_time = _best_of(lambda: Engine().rank(network, rf), repeats=repeats)
    (pruned, report), topk_time = _best_of(
        lambda: Engine().rank_top_k(network, rf, k), repeats=repeats
    )
    full = Engine().rank(network, rf)
    assert [(item.tid, item.value) for item in pruned] == [
        (item.tid, item.value) for item in full[:k]
    ]
    return full_time, topk_time, report


def test_topk_markov_pruning(benchmark, save_result):
    """A chain within the 64-row first prefix: one full pass, by design."""
    network = _chain_network(MARKOV_SIZE, seed=149)
    rf = PRFe(0.5)
    full_time, topk_time, report = _cold_markov_times(network, rf, MARKOV_K)
    run_once(benchmark, lambda: Engine().rank_top_k(network, rf, MARKOV_K))
    assert report.examined == MARKOV_SIZE and not report.pruned

    speedup = full_time / max(topk_time, 1e-9)
    benchmark.extra_info["examined"] = report.examined
    benchmark.extra_info["speedup"] = round(speedup, 2)
    save_result(
        "topk_pruning_markov",
        "\n".join(
            [
                f"network            n={MARKOV_SIZE} chain, PRFe(0.5), k={MARKOV_K}",
                f"full rank (s)      {full_time:.6f}",
                f"rank_top_k (s)     {topk_time:.6f}",
                f"speedup            {speedup:.2f}x",
                f"examined           {report.examined} / {MARKOV_SIZE}"
                f" ({report.fraction_examined:.1%})",
            ]
        ),
    )
    if not SMOKE:
        # The same full pass either way: no slower beyond noise.
        assert topk_time < MARKOV_TIME_RATIO * full_time, (
            f"Markov top-k slower than rank: {speedup:.2f}x"
        )


def test_topk_markov_ladder(benchmark, save_result):
    """Cold ``rank`` versus ``rank_top_k`` on chains past the first prefix."""
    rows = []
    reports = {}
    for index, n in enumerate(MARKOV_LADDER):
        network = _chain_network(n, seed=151 + index)
        for alpha in (0.5, 0.95):
            full_time, topk_time, report = _cold_markov_times(
                network, PRFe(alpha), K, repeats=1 if n > 200 else 5
            )
            reports[n, alpha] = (full_time, topk_time, report)
            rows.append(
                f"n={n:<5} alpha={alpha:<5} rank={full_time:.4f}s"
                f" rank_top_k={topk_time:.4f}s examined={report.examined}/{n}"
            )
    largest = _chain_network(MARKOV_LADDER[-1], seed=151 + len(MARKOV_LADDER) - 1)
    run_once(benchmark, lambda: Engine().rank_top_k(largest, PRFe(0.5), K))
    save_result(
        "topk_pruning_markov_ladder",
        "\n".join([f"Markov chain ladder, cold engines, k={K}", *rows]),
    )
    for (n, alpha), (full_time, topk_time, report) in reports.items():
        if n > 64:
            assert report.pruned, f"no pruning at n={n}, alpha={alpha}"
        if not SMOKE:
            assert topk_time < MARKOV_TIME_RATIO * full_time, (
                f"Markov top-k slower than rank at n={n}, alpha={alpha}:"
                f" {topk_time:.4f}s against {full_time:.4f}s"
            )

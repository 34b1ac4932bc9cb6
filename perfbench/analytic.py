"""The ``analytic`` workload: the paper's scaling experiments, in-process.

Inputs are generated once per set-up through :mod:`repro.datasets` and
:class:`~repro.core.columnar.ColumnarRelation`; each pass then runs every
query below on a fresh :class:`~repro.engine.Engine`, the way library
users and the paper's experiments call it.  No serving tier is involved,
so kernel and backend changes show here and service changes do not.

Queries on large inputs (n >= 10^5) form the ``high`` class and queries
on small inputs (n <= 1000) the ``low`` class.  ``low.ms`` and
``high.ms`` sum, over a class's queries, each query's fastest time over
the passes, so every query moves its class's figure in proportion to its
cost.  The fastest time rather than the median, because the machine's
speed varies by up to half from second to second on a shared 2-core box
and contention only ever slows a query.  Over runs of 36 s, the between-run
spread (quartile distance over the median) of the median pass was 0.24
(small inputs) and 0.15 (large) in 6 runs; summing each query's fastest
time gave 0.10-0.11 and 0.04-0.10 in two sets of 10.  The traced run's span
metrics are built the same way: the fastest time of each call, summed
over a pass's calls of that span.

The smooth Gaussian PRFomega weight stands in for a step weight on the
``approx=`` query because the planner cannot certify any DFT
approximation of a step within 1e-3 and silently runs the exact kernel.
"""

from __future__ import annotations

import resource
import time
from typing import Any, Callable

import numpy as np

from repro.core.columnar import ColumnarRelation
from repro.core.prf import PRFe, PRFOmega
from repro.core.tuples import Tuple
from repro.core.weights import StepWeight, TabulatedWeight
from repro.datasets import generate_independent, syn_xor
from repro.engine import Engine
from repro.graphical import MarkovChainRelation

LARGE_N = 10**6
MEDIUM_N = 10**5
TOP_K = 100
SWEEP_ALPHAS = 16
TREES = 4
TREE_N = 1000
TREE_SWEEP = 8
SMALL_TREE_N = 200
MARKOV_N = 60
EXACT_HORIZON = 100
APPROX_HORIZON = 2000
APPROX_BUDGET = 1e-3
TREE_HORIZON = 50
ALPHA = 0.95
#: The pass count is ``--seconds`` over this; a pass takes 3.5-5 s on a
#: 2-core x86 box.
PASS_SECONDS = 3.3


def build_inputs(seed: int) -> dict[str, Any]:
    """Every input of a pass, generated from ``seed``."""
    rng = np.random.default_rng([seed, 4])
    large = generate_independent(LARGE_N, rng, columnar=True)
    medium = generate_independent(MEDIUM_N, rng, columnar=True)
    # Rebuilt through the constructor so the plane is the one users load.
    medium = ColumnarRelation(medium.scores(), medium.probabilities(), name="medium")
    trees = [syn_xor(TREE_N, rng) for _ in range(TREES)]
    small_tree = syn_xor(SMALL_TREE_N, rng)
    scores = rng.permutation(MARKOV_N * 10)[:MARKOV_N]
    chain = MarkovChainRelation.homogeneous(
        [Tuple(f"t{i}", float(score), 1.0) for i, score in enumerate(scores)],
        0.6, 0.7, 0.8, name="chain",
    )
    return {
        "large": large,
        "medium": medium,
        "trees": trees,
        "small_tree": small_tree,
        "markov": chain.to_markov_network(),
        "alphas": [float(a) for a in np.sort(rng.uniform(0.8, 0.99, size=SWEEP_ALPHAS))],
        "tree_alphas": [float(a) for a in np.sort(rng.uniform(0.8, 0.99, size=TREE_SWEEP))],
    }


def gaussian_omega() -> PRFOmega:
    """A smooth PRFomega weight of support ``APPROX_HORIZON`` (certifiable by DFT)."""
    ranks = np.arange(1, APPROX_HORIZON + 1, dtype=float)
    return PRFOmega(TabulatedWeight(np.exp(-0.5 * (ranks / (APPROX_HORIZON / 5.0)) ** 2)))


class Pass:
    """One pass over every query, timing each call into the engine."""

    def __init__(self, inputs: dict[str, Any]) -> None:
        self.inputs = inputs
        self.engine = Engine()
        #: ``(span name, latency class, milliseconds)`` of each call.
        self.spans: list[tuple[str, str, float]] = []
        self.results: dict[str, Any] = {}

    def _call(self, span: str, size: str, fn: Callable[[], Any]) -> Any:
        start = time.perf_counter()
        result = fn()
        self.spans.append((span, size, (time.perf_counter() - start) * 1e3))
        return result

    def run(self) -> "Pass":
        """Run every query once."""
        data, engine, r = self.inputs, self.engine, self.results
        large, medium = data["large"], data["medium"]
        r["rank"] = self._call("independent.rank_ms", "high",
                               lambda: engine.rank(large, PRFe(ALPHA)))
        r["topk"] = self._call("independent.topk_ms", "high",
                               lambda: engine.rank_top_k(large, PRFe(ALPHA), TOP_K))
        sweep = [PRFe(alpha) for alpha in data["alphas"]]
        r["sweep"] = self._call("independent.rank_many_ms", "high",
                                lambda: engine.rank_many(medium, sweep))
        r["omega"] = self._call("independent.prfomega_ms", "high",
                                lambda: engine.rank(medium, PRFOmega(StepWeight(EXACT_HORIZON))))
        r["approx"] = self._call("approx.rank_ms", "high",
                                 lambda: engine.rank(medium, gaussian_omega(),
                                                     approx=APPROX_BUDGET))
        tree_sweep = [PRFe(alpha) for alpha in data["tree_alphas"]]
        r["trees"] = []
        for tree in data["trees"]:
            cold = self._call("andxor.cold_ms", "low",
                              lambda: engine.rank(tree, tree_sweep[0]))
            warm = self._call("andxor.warm_sweep_ms", "low",
                              lambda: engine.rank_many(tree, tree_sweep))
            r["trees"].append((cold, warm))
        self._call("andxor.prfomega_ms", "low",
                   lambda: engine.rank(data["small_tree"], PRFOmega(StepWeight(TREE_HORIZON))))
        cold = self._call("markov.cold_ms", "low",
                          lambda: engine.rank(data["markov"], tree_sweep[0]))
        warm = self._call("markov.warm_sweep_ms", "low",
                          lambda: engine.rank_many(data["markov"], tree_sweep))
        r["markov"] = (cold, warm)
        return self


def _same(result: Any, reference: Any, head: int | None = None) -> bool:
    """Equal tuples and values, bit for bit (against ``reference``'s first ``head``)."""
    if hasattr(result, "values_array") and hasattr(reference, "values_array"):
        stop = len(reference) if head is None else head
        return len(result) == min(stop, len(reference)) and np.array_equal(
            result.original_indices(), reference.original_indices()[:stop]
        ) and np.array_equal(result.values_array(), reference.values_array()[:stop])
    expected = list(reference) if head is None else reference[:head]
    return [(i.tid, i.value) for i in result] == [(i.tid, i.value) for i in expected]


def check(first: Pass) -> list[str]:
    """The analytic correctness checks on one pass; returns the failed ones."""
    data, r = first.inputs, first.results
    failures = []
    topk, _ = r["topk"]
    if not _same(topk, r["rank"], head=TOP_K):
        failures.append("top-k differs from the head of the full ranking")
    reference = Engine()
    for alpha, swept in zip(data["alphas"], r["sweep"]):
        if not _same(swept, reference.rank(data["medium"], PRFe(alpha))):
            failures.append(f"rank_many differs from rank for PRFe({alpha})")
            break
    decision = first.engine.plan(data["medium"], gaussian_omega(), approx=APPROX_BUDGET).approx
    exact = reference.rank(data["medium"], gaussian_omega()).values()
    realized = max(abs(value - exact[tid]) for tid, value in r["approx"].values().items())
    if not decision.used or realized > decision.error_bound:
        failures.append(f"approx error {realized:.3e} beyond its bound {decision.error_bound}")
    for index, (cold, warm) in enumerate(r["trees"]):
        if not _same(cold, warm[0]):
            failures.append(f"tree {index}: cold and warm values differ")
    cold, warm = r["markov"]
    if not _same(cold, warm[0]):
        failures.append("markov: cold and warm values differ")
    return failures


def run(seed: int, seconds: float, traced: bool) -> dict[str, Any]:
    """Run the analytic workload; returns the result object ``run.py`` prints."""
    setups: list[float] = []

    def setup() -> dict[str, Any]:
        start = time.perf_counter()
        built = build_inputs(seed)
        setups.append(time.perf_counter() - start)
        return built

    inputs = setup()
    first = Pass(inputs).run()
    passes = [first.spans]
    for _ in range(max(2, round(seconds / PASS_SECONDS)) - 1):
        # A set-up before every pass spreads the set-up samples over the
        # run; the passes keep ranking the first inputs, whose lazily built
        # state a user would keep too.
        setup()
        # Later passes keep only their timings: each engine caches ~100 MiB.
        passes.append(Pass(inputs).run().spans)
    failures = check(first)
    queries = sum(len(pass_spans) for pass_spans in passes)
    # Every pass runs the same queries in the same order.
    classes = [size for _, size, _ in first.spans]
    fastest = [min(ms for _, _, ms in column) for column in zip(*passes)]
    totals = {
        size: [sum(ms for _, cls, ms in pass_spans if cls == size) for pass_spans in passes]
        for size in ("low", "high")
    }
    metrics = {
        "setup_s": float(np.median(setups)),
        "low.ms": sum(ms for ms, size in zip(fastest, classes) if size == "low"),
        "low.tail_ms": max(totals["low"]),
        "high.ms": sum(ms for ms, size in zip(fastest, classes) if size == "high"),
        "high.tail_ms": max(totals["high"]),
        "max_rate_rps": len(fastest) / (sum(fastest) / 1e3),
        "ok_ratio": 1.0 - len(failures) / queries,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    layers: dict[str, float] = {}
    if traced:
        for (name, _, _), ms in zip(first.spans, fastest):
            layers[name] = layers.get(name, 0.0) + ms
        layers["topk.examined"] = first.results["topk"][1].examined
        decision = first.engine.plan(
            first.inputs["medium"], gaussian_omega(), approx=APPROX_BUDGET
        ).approx
        layers["approx.terms"] = decision.terms or 0
        info = first.engine.cache_info()
        layers["engine.cache_lookups"] = info["hits"] + info["misses"]
        layers["engine.cache_hit_ratio"] = info["hit_rate"]
    return {
        "correct": not failures,
        "attempted": queries,
        "failed": len(failures),
        "metrics": metrics,
        "layers": layers,
        "report": {"passes": len(passes), "class_ms": totals, "setups_s": setups,
                   "failures": failures},
    }

"""Table 3 — empirical scaling check of the ranking algorithms.

Table 3 of the paper summarizes the asymptotic running times of the
algorithms.  This experiment checks the *empirical* scaling of the
implementations: each algorithm is timed on a geometric ladder of dataset
sizes and the log-log slope (the empirical polynomial exponent) is
fitted, so that the near-linear algorithms (PRFe, E-Rank, PRFomega(h)
with fixed h, the stacked and/xor Algorithm 3) can be distinguished
from the quadratic general PRF path.

Every measurement routes through the engine's planner (the production
path), so the fitted exponents reflect the Table-3-optimal algorithm the
planner picks per correlation model; each algorithm may bring its own
dataset family (independent IIP-like relations, Syn-XOR trees, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..baselines import expected_rank_ranking
from ..core.prf import PRF, PRFe, PRFOmega
from ..core.weights import NDCGDiscountWeight, StepWeight
from ..datasets import generate_iip_like, syn_xor
from .harness import ExperimentResult, fresh_engine, shared_engine, timed

__all__ = ["ScalingCase", "fit_exponent", "scaling_rows", "run", "ALGORITHMS"]


@dataclass(frozen=True)
class ScalingCase:
    """One Table 3 row: an algorithm plus the dataset family it is timed on."""

    #: ``runner(data, k)`` executes the algorithm end to end.
    runner: Callable
    #: ``dataset(size, seed)`` builds the input of one ladder rung.
    dataset: Callable = lambda size, seed: generate_iip_like(size, rng=seed)
    #: Sizes above this are skipped (``None`` = no cap).
    max_size: int | None = None


def _general_prf(data, k: int):
    return shared_engine().rank(data, PRF(NDCGDiscountWeight())).top_k(k)


#: Algorithms timed by the scaling experiment, keyed by Table 3 row label.
#: Rankings route through the shared engine, which is the production path;
#: the engine falls back to the streaming evaluation for the unbounded
#: general PRF so its O(n^2) scaling is measured, not an O(n^2) allocation.
ALGORITHMS: dict[str, ScalingCase] = {
    "PRFe (O(n log n))": ScalingCase(
        lambda data, k: shared_engine().rank(data, PRFe(0.95)).top_k(k)
    ),
    "PRFomega(h=100) (O(n h))": ScalingCase(
        lambda data, k: shared_engine().rank(data, PRFOmega(StepWeight(100))).top_k(k)
    ),
    "E-Rank (O(n log n))": ScalingCase(
        lambda data, k: expected_rank_ranking(data).top_k(k)
    ),
    # No max_size here: the cap is the caller-tunable ``max_general_prf_size``
    # parameter of ``scaling_rows``.
    "general PRF (O(n^2))": ScalingCase(_general_prf),
    # The planner detects the and/xor model and runs Algorithm 3 as one
    # stacked walk — near-linear like independent PRFe, despite correlations.
    "PRFe and/xor (stacked, O(n log n))": ScalingCase(
        lambda data, k: shared_engine().rank(data, PRFe(0.95)).top_k(k),
        dataset=lambda size, seed: syn_xor(size, rng=seed),
    ),
}


def fit_exponent(sizes: Sequence[int], times: Sequence[float]) -> float:
    """Least-squares slope of log(time) against log(n)."""
    sizes = np.asarray(sizes, dtype=float)
    times = np.maximum(np.asarray(times, dtype=float), 1e-9)
    slope, _ = np.polyfit(np.log(sizes), np.log(times), deg=1)
    return float(slope)


def scaling_rows(
    sizes: Sequence[int],
    k: int = 100,
    seed: int = 53,
    algorithms: dict[str, ScalingCase] | None = None,
    max_general_prf_size: int = 20_000,
) -> list[list]:
    """Per-algorithm timings on each size plus the fitted log-log exponent."""
    algorithms = algorithms or ALGORITHMS
    datasets: dict[tuple[int, int], object] = {}
    rows: list[list] = []
    for label, case in algorithms.items():
        cap = case.max_size
        if label.startswith("general PRF"):
            cap = max_general_prf_size if cap is None else min(cap, max_general_prf_size)
        usable_sizes = [size for size in sizes if cap is None or size <= cap]
        times = []
        for size in usable_sizes:
            key = (id(case.dataset), size)
            if key not in datasets:
                datasets[key] = case.dataset(size, seed)
            data = datasets[key]
            # Each measurement runs against a cache-cold engine so the
            # fitted exponents reflect the algorithm, not cache hits from
            # content-identical datasets ranked earlier in the process.
            with fresh_engine():
                _, elapsed = timed(lambda c=case, d=data: c.runner(d, k))
            times.append(elapsed)
        exponent = fit_exponent(usable_sizes, times) if len(usable_sizes) >= 2 else float("nan")
        rows.append([label] + [f"{t:.4f}" for t in times] + [round(exponent, 2)])
    return rows


def run(
    sizes: Sequence[int] = (2_000, 4_000, 8_000, 16_000),
    k: int = 100,
    seed: int = 53,
) -> ExperimentResult:
    """Regenerate the Table 3 scaling summary."""
    rows = scaling_rows(sizes, k=k, seed=seed)
    headers = ["algorithm"] + [f"n={size}" for size in sizes] + ["fitted exponent"]
    normalized_rows = []
    for row in rows:
        label, *rest = row
        exponent = rest[-1]
        times = rest[:-1]
        times = times + ["-"] * (len(sizes) - len(times))
        normalized_rows.append([label] + times + [exponent])
    return ExperimentResult(
        name="Table 3 — empirical scaling of the ranking algorithms (seconds)",
        headers=headers,
        rows=normalized_rows,
        metadata={"sizes": list(sizes), "k": k},
    )

"""Table 3 — empirical scaling exponents of the ranking algorithms.

The paper's Table 3 is an asymptotic summary; this benchmark fits
empirical log-log slopes on a geometric ladder of dataset sizes to check
that the implementations scale as designed: PRFe, PRFomega(h) with fixed
h and E-Rank are near-linear, the general-weight PRF path is
super-linear (quadratic).

Setting ``BENCH_SMOKE=1`` shrinks the ladder to CI-smoke sizes; the
timings are still recorded (and uploaded as a CI artifact to track the
perf trajectory per PR) but the exponent assertions are skipped because
slopes fitted on sub-millisecond runs are dominated by noise.
"""

import os

from repro.experiments import table3

from _bench_utils import run_once

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

SIZES = (250, 500, 1_000) if SMOKE else (2_000, 4_000, 8_000, 16_000)
K = 20 if SMOKE else 100


def test_table3_empirical_scaling(benchmark, save_result):
    result = run_once(benchmark, lambda: table3.run(sizes=SIZES, k=K, seed=53))
    save_result("table3_scaling", result.to_text())
    exponents = {row[0]: float(row[-1]) for row in result.rows}
    if SMOKE:
        assert set(exponents) == {
            "PRFe (O(n log n))",
            "E-Rank (O(n log n))",
            "PRFomega(h=100) (O(n h))",
            "general PRF (O(n^2))",
            "PRFe and/xor (stacked, O(n log n))",
        }
        return
    assert exponents["PRFe (O(n log n))"] < 1.6
    assert exponents["E-Rank (O(n log n))"] < 1.6
    assert exponents["PRFomega(h=100) (O(n h))"] < 1.7
    assert exponents["general PRF (O(n^2))"] > 1.5
    assert exponents["PRFe and/xor (stacked, O(n log n))"] < 1.7

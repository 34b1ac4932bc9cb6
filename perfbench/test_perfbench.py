"""Unit tests of the benchmark's own logic.

Run with ``python3 -m pytest perfbench/test_perfbench.py -q``.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest

import loadgen
from loadgen import PhaseResult, Request


# ----------------------------------------------------------------------
# Percentile selection
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(0, 50.0), (5, 50.0), (20, 50.0), (100, 90.0), (200, 95.0), (1000, 99.0), (5000, 99.0)],
)
def test_tail_percentile_known_counts(count, expected):
    assert loadgen.tail_percentile(count) == expected


def test_tail_percentile_leaves_ten_samples_beyond():
    for count in range(21, 4000):
        q = loadgen.tail_percentile(count)
        rank = math.ceil(round(q * count / 100.0, 6))
        assert count - rank >= loadgen.MIN_TAIL_SAMPLES, (count, q)
        # The next 0.1 step up would leave fewer than ten (unless capped).
        if q < loadgen.TAIL_CAP:
            higher = math.ceil(round((q + 0.1) * count / 100.0, 6))
            assert count - higher < loadgen.MIN_TAIL_SAMPLES + 1, (count, q)


def test_chunked_tail_is_the_median_chunk_tail():
    size = loadgen.CHUNK_SAMPLES
    steady = [float(i % 10) for i in range(size)]
    paused = steady[: size - 30] + [500.0] * 30
    assert loadgen.chunked_tail(steady) == 9.0
    # Three chunks; one pause puts 30 slow samples in the middle one.
    assert loadgen.chunked_tail(steady + paused + steady) == 9.0
    # A tail shared by every chunk shows.
    assert loadgen.chunked_tail(paused * 3) == 500.0
    # Fewer samples than a chunk: one chunk, the plain rule.
    assert loadgen.chunked_tail([1.0, 2.0, 3.0]) == 2.0
    assert loadgen.chunked_tail([]) == 0.0


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(10, 0, -1)]
    assert loadgen.percentile(values, 50.0) == 5.0
    assert loadgen.percentile(values, 90.0) == 9.0
    assert loadgen.percentile(values, 99.0) == 10.0
    assert loadgen.percentile(values, 0.0) == 1.0


# ----------------------------------------------------------------------
# Ladder stop rule
# ----------------------------------------------------------------------
def _summary(**overrides):
    summary = {"rate": 300.0, "attempted": 1000, "failed": 0, "tail_ms": 20.0, "backlog": 0}
    summary.update(overrides)
    return summary


def test_step_passes_within_limits():
    assert loadgen.step_passes(_summary())


def test_step_fails_on_tail_latency():
    assert loadgen.step_passes(_summary(tail_ms=loadgen.LATENCY_LIMIT_MS))
    assert not loadgen.step_passes(_summary(tail_ms=loadgen.LATENCY_LIMIT_MS + 0.01))


def test_step_fails_on_errors():
    assert loadgen.step_passes(_summary(failed=10))
    assert not loadgen.step_passes(_summary(failed=11))


def test_step_fails_on_growing_backlog():
    # Little's law: 300 rps at the 50 ms limit keeps 15 in flight; twice that + 4.
    assert loadgen.step_passes(_summary(backlog=34))
    assert not loadgen.step_passes(_summary(backlog=35))


def _climb(passes, **kwargs):
    calls = []

    async def rung(rate):
        calls.append(rate)
        return passes(rate, len(calls))

    options = {"start": 100.0, "factor": 1.2, "max_rungs": 14, "bisections": 2, "tries": 2}
    options.update(kwargs)
    return asyncio.run(loadgen.climb(rung, **options)), calls


def test_climb_stops_at_capacity_and_bisects():
    best, calls = _climb(lambda rate, _: rate <= 160.0)
    # 120, 144 pass; 172.8 fails twice; 157.7 passes, 165.1 fails twice.
    assert calls == pytest.approx([120.0, 144.0, 172.8, 172.8, 157.744, 165.101, 165.101],
                                  rel=1e-4)
    assert 144.0 < best <= 160.0


def test_climb_retries_a_single_failing_rung():
    best, calls = _climb(lambda rate, call: call != 2 and rate <= 200.0)
    assert calls[1] == calls[2] == pytest.approx(144.0)
    assert best > 172.0


def test_climb_floor_is_the_start_rate():
    best, calls = _climb(lambda rate, _: False)
    assert best == 100.0
    # Two tries at 120, then two at each of the two bisection rates.
    assert len(calls) == 6


def test_climb_caps_the_number_of_rungs():
    best, calls = _climb(lambda rate, _: True, max_rungs=5)
    assert len(calls) == 5
    assert best == pytest.approx(100.0 * 1.2**5)


# ----------------------------------------------------------------------
# Lateness and latency accounting
# ----------------------------------------------------------------------
def _request(due, sent, done, ok=True):
    request = Request(id=0, offset=due, line=b"")
    request.due, request.sent, request.done, request.ok = due, sent, done, ok
    return request


def test_latency_is_timed_from_the_scheduled_send():
    phase = PhaseResult(rate=1.0, duration=10.0, start=0.0, requests=[
        _request(due=1.0, sent=1.5, done=1.6),
    ])
    assert phase.latencies_ms() == pytest.approx([600.0])
    assert phase.lateness_ms() == pytest.approx([500.0])


def test_failures_count_at_the_timeout_and_are_not_late():
    timeout_ms = loadgen.REQUEST_TIMEOUT_S * 1e3
    phase = PhaseResult(rate=1.0, duration=10.0, start=0.0, requests=[
        _request(due=1.0, sent=1.0, done=1.1, ok=False),
        _request(due=2.0, sent=2.0, done=None, ok=False),
        _request(due=3.0, sent=3.0, done=3.0 + loadgen.REQUEST_TIMEOUT_S + 1, ok=True),
        _request(due=4.0, sent=None, done=None, ok=False),
    ])
    assert phase.failed == 4
    assert phase.latencies_ms() == [timeout_ms] * 4
    assert phase.lateness_ms() == pytest.approx([0.0, 0.0, 0.0])


def test_backlog_counts_due_requests_unanswered_at_the_end():
    phase = PhaseResult(rate=1.0, duration=10.0, start=100.0, requests=[
        _request(due=101.0, sent=101.0, done=101.1),
        _request(due=109.0, sent=109.0, done=110.5),
        _request(due=109.5, sent=109.6, done=None, ok=False),
    ])
    assert phase.backlog() == 2
    summary = phase.summary()
    assert summary["backlog"] == 2
    # Three samples support no tail: the median (0 ms late) is reported.
    assert summary["late_p99_ms"] == 0.0


def test_poisson_schedule_is_seeded_and_in_range():
    first = loadgen.poisson_offsets(np.random.default_rng(7), 200.0, 5.0)
    again = loadgen.poisson_offsets(np.random.default_rng(7), 200.0, 5.0)
    assert first == again
    assert all(0.0 < t < 5.0 for t in first)
    assert first == sorted(first)
    assert 900 < len(first) < 1100

"""The benchmark's own arithmetic: percentiles, tail choice, self time.

Kept free of numpy and of any ``repro`` import so the self-tests in
``test_perfbench.py`` exercise it in isolation.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: the tail is the highest percentile with this many samples beyond it
TAIL_MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    # rounded first so that e.g. 99.9 % of 10,000 is rank 9,990, not 9,991
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The q-th percentile by the nearest-rank rule (q in (0, 100])."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    return sorted_values[_rank(len(sorted_values), q) - 1]


def tail_percentile(n: int) -> tuple[float, bool]:
    """``(q, resolved)``: the highest percentile of *n* samples with
    ``TAIL_MIN_BEYOND`` samples beyond it, q = 100 (n - 10) / n.  It is
    resolved only when it lies at or above the median (n >= 21);
    otherwise the median stands in."""
    if n < 2 * TAIL_MIN_BEYOND + 1:
        return 50.0, False
    return 100.0 * (n - TAIL_MIN_BEYOND) / n, True


@dataclass(frozen=True)
class Timing:
    """A distribution of unit wall times, summarised."""

    n: int
    p50: float
    tail: float
    tail_q: float
    tail_resolved: bool
    total: float


def summarize(times: list[float]) -> Timing:
    values = sorted(times)
    q, resolved = tail_percentile(len(values))
    p50 = statistics.median(values)
    return Timing(n=len(values), p50=p50,
                  tail=nearest_rank(values, q) if resolved else p50,
                  tail_q=q, tail_resolved=resolved, total=sum(values))


def normalised(times: list[float], slowdowns: list[float]) -> list[float]:
    """Unit times at nominal host speed: unit ``i`` divided by the mean
    slowdown of the probes before and after it (``slowdowns[i]`` and
    ``slowdowns[i + 1]``)."""
    if len(slowdowns) != len(times) + 1:
        raise ValueError(f"{len(times)} units need {len(times) + 1} probes, "
                         f"got {len(slowdowns)}")
    return [t / (0.5 * (slowdowns[i] + slowdowns[i + 1]))
            for i, t in enumerate(times)]


def fail_frac(attempted: int, failed: int) -> float:
    """Units whose correctness check failed, over units attempted."""
    if attempted < 1:
        raise ValueError("no units attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


def count_failed(unit_errors: list[list[str]]) -> int:
    """Units with at least one failed check (each counts once)."""
    return sum(1 for errs in unit_errors if errs)


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per-name ``(calls, self seconds)`` from ``(name, start, end,
    parent)`` spans, parent an index into *spans* or -1.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly (one thread), so children never
    overlap and their sum is the part of the interval they cover.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child[i])
    return out

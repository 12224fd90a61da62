"""Scaling laws: the vocabulary of the paper's scaling claims.

Amdahl (strong scaling), Gustafson (weak scaling), the communication-
degraded weak-scaling model used throughout the app layer, and a
least-squares fitter that recovers the serial fraction from measured
speed-up curves — the analysis every CAAR report ran on its scaling data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def amdahl_speedup(p: int, serial_fraction: float) -> float:
    """Strong-scaling speed-up on *p* workers with serial fraction *s*."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if not 0.0 <= serial_fraction <= 1.0:
        raise ValueError("serial fraction must be in [0, 1]")
    s = serial_fraction
    return 1.0 / (s + (1.0 - s) / p)


def gustafson_speedup(p: int, serial_fraction: float) -> float:
    """Weak-scaling (scaled) speed-up: s + p(1−s)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if not 0.0 <= serial_fraction <= 1.0:
        raise ValueError("serial fraction must be in [0, 1]")
    return serial_fraction + p * (1.0 - serial_fraction)


def weak_scaling_efficiency(p: int, *, compute_time: float,
                            comm_time_fn) -> float:
    """Efficiency t(1)/t(p) when per-step comm grows as ``comm_time_fn(p)``."""
    if p < 1:
        raise ValueError("p must be >= 1")
    base = compute_time + comm_time_fn(1)
    return base / (compute_time + comm_time_fn(p))


@dataclass(frozen=True)
class AmdahlFit:
    serial_fraction: float
    rms_error: float


def fit_amdahl(workers: list[int], speedups: list[float]) -> AmdahlFit:
    """Least-squares fit of the serial fraction to measured speed-ups.

    Amdahl inverts linearly: 1/S = s + (1−s)/p, so the fit is linear in
    (1/p); we clamp the result into [0, 1].
    """
    if len(workers) != len(speedups) or len(workers) < 2:
        raise ValueError("need >= 2 matching (workers, speedup) points")
    if any(p < 1 for p in workers) or any(s <= 0 for s in speedups):
        raise ValueError("workers must be >= 1 and speedups positive")
    inv_p = np.array([1.0 / p for p in workers])
    inv_s = np.array([1.0 / s for s in speedups])
    # inv_s = s + (1-s)*inv_p  =>  inv_s = s*(1-inv_p) + inv_p
    a = 1.0 - inv_p
    denom = float(a @ a)
    s = float(a @ (inv_s - inv_p)) / denom if denom > 0 else 0.0
    s = min(max(s, 0.0), 1.0)
    fitted = np.array([amdahl_speedup(p, s) for p in workers])
    rms = float(np.sqrt(np.mean((fitted - np.array(speedups)) ** 2)))
    return AmdahlFit(serial_fraction=s, rms_error=rms)


def scaling_study(times_by_workers: dict[int, float]) -> dict[str, object]:
    """Summarize a strong-scaling measurement set.

    Returns speed-ups, parallel efficiencies, and the fitted Amdahl
    serial fraction — the table a CAAR mid-project report contains.
    """
    if 1 not in times_by_workers:
        raise ValueError("need a 1-worker baseline")
    base = times_by_workers[1]
    workers = sorted(times_by_workers)
    speedups = [base / times_by_workers[p] for p in workers]
    fit = fit_amdahl(workers, speedups)
    return {
        "workers": workers,
        "speedups": speedups,
        "efficiencies": [s / p for s, p in zip(speedups, workers)],
        "serial_fraction": fit.serial_fraction,
        "fit_rms": fit.rms_error,
    }

"""Same-run speedups of the reproduction's *own* fast paths (not the models).

Each fast path is timed against the slow loop it replaced, interleaved
in the same process, and gated on the median of ``REPEATS`` per-repeat
speedups — a ratio, so a slow host moves both sides and the gate
measures the code:

* the reacting-flow coupled-physics advance (hydro + chemistry): the
  batched BDF integrator against the scalar per-cell loop on the same
  ignition field;
* the CoMet 2-way CCC tallies: the naive O(n²·m) Python pair loop
  against the bit-packed popcount engine (integer exact);
* the CoMet 3-way CCC tallies: the naive O(n³·m) Python triple loop
  against the bit-packed popcount engine (integer exact);
* the ExaSky/PM pairwise short-range forces: the per-pair Python loop
  against the triangular-index broadcast sweep.

Absolute wall time of the Figure 2 chemistry stage and of the CoMet
tallies is measured by the ``fig2_chem`` and ``comet_tally`` perfbench
workloads.  Run directly or through pytest::

    PYTHONPATH=src python benchmarks/bench_repro_speed.py
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.hydro.euler1d import Euler1D
from repro.hydro.reacting import ReactingFlow1D
from repro.particles.pm import short_range_forces
from repro.similarity import (
    cooccurrence_counts_bruteforce,
    random_allele_data,
    tally_2way,
    tally_3way,
    threeway_counts_bruteforce,
)

REPEATS = 5

#: one timed run of a path: returns ``(wall seconds, output)``
Timed = Callable[[], tuple[float, np.ndarray]]


def _timed(fn: Callable[[], np.ndarray]) -> tuple[float, np.ndarray]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _reacting_flow(batched: bool) -> Timed:
    """Five coupled steps on 128 cells with a hot central half."""
    def run() -> tuple[float, np.ndarray]:
        hydro = Euler1D.sod(128)
        hydro.rho[:] = 1.0
        hydro.mom[:] = 0.0
        hydro.ener[:] = 2.0
        hydro.ener[32:96] = 6.0
        flow = ReactingFlow1D(hydro=hydro, use_batched_chemistry=batched)
        flow.concentrations[0, :] = 1.0  # H2
        flow.concentrations[1, :] = 0.5  # O2

        def advance() -> np.ndarray:
            for _ in range(5):
                flow.step()
            return flow.concentrations
        return _timed(advance)
    return run


def _comet_ccc(popcount: bool) -> Timed:
    """2-way tallies of 48 vectors over 96 fields."""
    data = random_allele_data(48, 96, seed=0)
    if popcount:
        return lambda: _timed(lambda: tally_2way(data, method="popcount"))
    return lambda: _timed(lambda: cooccurrence_counts_bruteforce(data))


def _comet_ccc3(popcount: bool) -> Timed:
    """3-way tallies of 10 vectors over 64 fields."""
    data = random_allele_data(10, 64, seed=0)
    if popcount:
        return lambda: _timed(lambda: tally_3way(data, method="popcount"))
    return lambda: _timed(lambda: threeway_counts_bruteforce(data))


def _pm_pairwise(vectorized: bool) -> Timed:
    """Short-range forces among 400 particles in the unit box."""
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, (400, 3))
    masses = rng.uniform(0.5, 2.0, 400)
    return lambda: _timed(lambda: short_range_forces(
        x, masses, 1.0, rs=0.08, vectorized=vectorized))


#: case -> (slow path, fast path, speedup floor, output deviation bound)
CASES: dict[str, tuple[Timed, Timed, float, float]] = {
    "reacting_flow": (_reacting_flow(False), _reacting_flow(True), 3.0, 1e-6),
    "comet_ccc": (_comet_ccc(False), _comet_ccc(True), 10.0, 0.0),
    "comet_ccc3": (_comet_ccc3(False), _comet_ccc3(True), 10.0, 0.0),
    "pm_pairwise": (_pm_pairwise(False), _pm_pairwise(True), 10.0, 1e-9),
}


def same_run_speedup(slow: Timed, fast: Timed) -> dict:
    """Median, range and worst output deviation of ``REPEATS`` interleaved
    slow/fast pairs."""
    speedups, dev = [], 0.0
    for _ in range(REPEATS):
        t_slow, ref = slow()
        t_fast, out = fast()
        speedups.append(t_slow / t_fast)
        dev = max(dev, float(np.abs(ref - out).max()))
    return {"median": float(np.median(speedups)), "min": min(speedups),
            "max": max(speedups), "max_abs_deviation": dev}


def test_bench_repro_speed():
    for name, (slow, fast, floor, bound) in CASES.items():
        r = same_run_speedup(slow, fast)
        print(f"{name}: median {r['median']:.1f}x over {REPEATS} repeats "
              f"(range {r['min']:.1f}-{r['max']:.1f}x, floor {floor:.0f}x, "
              f"fails at a {r['median'] / floor:.1f}x slower fast path), "
              f"max deviation {r['max_abs_deviation']:g}")
        assert r["max_abs_deviation"] <= bound, f"{name} deviates: {r}"
        assert r["median"] >= floor, f"{name} below its floor: {r}"


if __name__ == "__main__":
    test_bench_repro_speed()

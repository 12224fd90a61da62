"""Host-speed probes: how much slower than nominal the host runs right now.

A shared 2-vCPU VM drifts between speed regimes that last from seconds to
minutes; wall ≈ CPU time throughout, so the drift is host speed, not
scheduling.  A median over one run cannot average a regime out, so the
benchmark runs a fixed probe before the first unit and after every unit
and divides each unit's wall time by the mean slowdown of the two probes
that bracket it (``stats.normalised``).

Different kinds of code slow down differently, so each workload names
the probe of the kind of code that dominates it (``Workload.probe``):

* ``numpy_small``: many small-array numpy calls (the chemistry
  integrator);
* ``python``: the interpreter on ints and dicts (service, scheduler and
  rank-partition bookkeeping);
* ``numpy_large``: bitwise popcounts over megabyte arrays (the tally
  engine).

The probes are benchmark code only and never call ``repro``, so a change
to the program cannot move them.
"""

from __future__ import annotations

import time

import numpy as np

#: each probe's time on the reference host (2-vCPU VM, Python 3.11.7,
#: numpy 2.4.6, scipy-openblas 0.3.31, 1 BLAS thread) in a fast regime;
#: a slowdown of 1 means the host runs at that speed
NOMINAL_S = {"numpy_small": 0.0095, "python": 0.0200, "numpy_large": 0.0085}


class HostProbe:
    """One kind of fixed probe; calling it returns the host's slowdown."""

    def __init__(self, kind: str) -> None:
        if kind not in NOMINAL_S:
            raise ValueError(f"unknown probe {kind!r}; known: "
                             f"{', '.join(NOMINAL_S)}")
        self.kind = kind
        self.body = getattr(self, f"_{kind}")
        rng = np.random.default_rng(0)
        if kind == "numpy_small":
            self.x0 = rng.random((48, 22))
            self.ones = np.ones((22, 22))
            self.mat = rng.random((48, 22, 22)) + 22.0 * np.eye(22)
            self.rhs = rng.random((48, 22, 1))
        elif kind == "numpy_large":
            self.w1 = rng.integers(0, 2**63, 1 << 18, dtype=np.uint64)
            self.w2 = rng.integers(0, 2**63, 1 << 18, dtype=np.uint64)
        self()  # the first call pays lazy set-up

    def _numpy_small(self) -> None:
        x = self.x0
        for k in range(400):
            y = np.maximum(x, 0.0) * 1.0001 + 1e-3
            x = 0.5 * (x + np.exp(-y) @ self.ones / 22.0)
            if k % 20 == 0:
                np.linalg.solve(self.mat, self.rhs)

    def _python(self) -> None:
        acc, table = 0, {}
        for k in range(150_000):
            acc += k * k % 7
            table[k & 1023] = acc

    def _numpy_large(self) -> None:
        for _ in range(16):
            int(np.bitwise_count(self.w1 & self.w2).sum())

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self.body()
        return (time.perf_counter() - t0) / NOMINAL_S[self.kind]

"""Wall-clock benchmark of the representative-rank scaling engine.

The tentpole claim of the scaling engine is an *economic* one: a full
10-point CoMet weak-scaling sweep to 9,074 Frontier nodes (72,592
simulated ranks) must cost seconds of wall-clock — at least **100x**
cheaper than extrapolating a naive all-live :class:`SimComm` campaign
from the largest live-feasible size.  This bench measures both sides in
the same run, interleaved, and gates the median of ``REPEATS`` ratios:

* the 10-point :func:`weak_scaling_curve` on a representative-rank
  :class:`SimComm` (six node-role exemplars carry every size);
* an all-live run at ``PROBE_NODES`` (the largest sweep size that is
  still live-feasible), extrapolated linearly in rank-steps over the
  whole sweep.  Linear is deliberately generous to the naive side:
  every live cost is at least linear in P.

Before that it runs the exemplar-vs-full differential and a 3-point
sweep per app against the paper's full-machine claims.  The sweep's
absolute wall time is measured by the ``machine_resilience`` perfbench
workload.  Run directly or through pytest::

    PYTHONPATH=src python benchmarks/bench_scaling.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments.scaling import (
    DEFAULT_NODE_COUNTS,
    QUICK_STRONG_NODE_COUNTS,
    QUICK_WEAK_NODE_COUNTS,
    WORKLOADS,
    CometWeakScaling,
    _measure,
    check_validation,
    render_validation,
    strong_scaling_curve,
    validate_exemplar_vs_full,
    weak_scaling_curve,
)

#: steps per sweep point — a short CCC campaign epoch; the naive cost
#: grows linearly with this, the exemplar cost barely at all
SWEEP_STEPS = 128
#: largest sweep size still feasible all-live (8,192 in-process ranks)
PROBE_NODES = 1024
#: the tentpole floor: exemplar sweep vs naive all-live extrapolation
MIN_SPEEDUP = 100.0
REPEATS = 3


def claim_smokes() -> None:
    """Exemplar-vs-full differential + 3-point sweep per app."""
    for name in sorted(WORKLOADS):
        points = validate_exemplar_vs_full(WORKLOADS[name](),
                                           node_counts=(1, 2), steps=2)
        check_validation(points)
        print(render_validation(points))

    comet = weak_scaling_curve(CometWeakScaling(),
                               node_counts=QUICK_WEAK_NODE_COUNTS)
    assert comet.efficiency_at(9074) >= 0.99
    assert 5.0 < comet.points[-1].metric < 8.5  # §3.6: 6.71 EF
    print(comet.render())

    pele = weak_scaling_curve(WORKLOADS["pele"](), node_counts=(1, 64, 4096))
    assert pele.efficiency_at(4096) >= 0.8  # §3.8
    print(pele.render())

    gamess = strong_scaling_curve(WORKLOADS["gamess"](),
                                  node_counts=QUICK_STRONG_NODE_COUNTS)
    assert gamess.efficiency_at(2048) >= 0.95  # §3.1
    print(gamess.render())


def sweep_speedup() -> list[float]:
    """Per-repeat ratio of the naive all-live extrapolation to the
    exemplar sweep, sweep and probe interleaved."""
    w = CometWeakScaling()
    rank_steps_ratio = (sum(w.ranks_for(n) for n in DEFAULT_NODE_COUNTS)
                        / w.ranks_for(PROBE_NODES))
    speedups = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        weak_scaling_curve(w, DEFAULT_NODE_COUNTS, steps=SWEEP_STEPS)
        t_sweep = time.perf_counter() - t0
        t0 = time.perf_counter()
        _measure(w, PROBE_NODES, mode="live", steps=SWEEP_STEPS)
        t_probe = time.perf_counter() - t0
        speedups.append(t_probe * rank_steps_ratio / t_sweep)
    return speedups


def test_bench_scaling():
    claim_smokes()
    speedups = sweep_speedup()
    median = float(np.median(speedups))
    print(f"10-point CoMet sweep to 9,074 nodes ({SWEEP_STEPS} steps/point) "
          f"vs naive all-live extrapolation from {PROBE_NODES} nodes: "
          f"median {median:.0f}x over {REPEATS} repeats "
          f"(range {min(speedups):.0f}-{max(speedups):.0f}x, "
          f"floor {MIN_SPEEDUP:.0f}x)")
    assert median >= MIN_SPEEDUP, (
        f"representative-rank sweep only {median:.1f}x cheaper than naive "
        f"(floor {MIN_SPEEDUP:.0f}x)")


if __name__ == "__main__":
    test_bench_scaling()

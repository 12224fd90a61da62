"""Wall-clock benchmark of the representative-rank scaling engine.

The tentpole claim of the scaling engine is an *economic* one: a full
10-point CoMet weak-scaling sweep to 9,074 Frontier nodes (72,592
simulated ranks) must cost seconds of wall-clock — at least **100x**
cheaper than extrapolating a naive all-live :class:`SimComm` campaign
from the largest live-feasible size.  This bench measures both sides:

* ``t_sweep`` — the 10-point :func:`weak_scaling_curve` on a
  representative-rank :class:`SimComm` (six node-role exemplars carry
  every size);
* ``t_naive_extrapolated`` — an all-live run at ``PROBE_NODES`` (the
  largest sweep size that is still live-feasible), extrapolated linearly
  in rank-steps over the whole sweep.  Linear is deliberately generous
  to the naive side: every live cost is at least linear in P.

The measured block is recorded as ``full_machine_scaling`` in
``BENCH_repro_speed.json`` (``--record``) and gated by CI through
:class:`BenchRegressionGate` exactly like the observability bench.
``--quick`` runs the CI mode: the exemplar-vs-full differential plus a
3-point smoke sweep per app, then the gated timed sweep.  Run directly::

    PYTHONPATH=src python benchmarks/bench_scaling.py [--quick] [--record]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

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
from repro.observability import BenchRegressionGate, Tracer

_BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_repro_speed.json"

#: span name -> key path into BENCH_repro_speed.json
GATED_SPANS = {
    "bench.scaling_sweep[comet]": ("full_machine_scaling", "t_sweep"),
}

#: steps per sweep point — a short CCC campaign epoch; the naive cost
#: grows linearly with this, the exemplar cost barely at all
SWEEP_STEPS = 128
#: largest sweep size still feasible all-live (8,192 in-process ranks)
PROBE_NODES = 1024
#: the tentpole floor: exemplar sweep vs naive all-live extrapolation
MIN_SPEEDUP = 100.0


def timed_sweep(tracer: Tracer):
    """The 10-point CoMet sweep under a wall-clock span (the gated span)."""
    with tracer.span("bench.scaling_sweep[comet]", cat="bench", pid="bench",
                     tid="scaling", points=len(DEFAULT_NODE_COUNTS),
                     steps=SWEEP_STEPS):
        return weak_scaling_curve(CometWeakScaling(),
                                  DEFAULT_NODE_COUNTS, steps=SWEEP_STEPS)


def measure_block() -> dict:
    """Measure sweep + naive probe and assemble the recordable block."""
    tracer = Tracer(clock=time.perf_counter)
    t0 = time.perf_counter()
    curve = timed_sweep(tracer)
    t_sweep = time.perf_counter() - t0

    w = CometWeakScaling()
    probe_ranks = w.ranks_for(PROBE_NODES)
    t0 = time.perf_counter()
    _measure(w, PROBE_NODES, mode="live", steps=SWEEP_STEPS)
    t_probe = time.perf_counter() - t0
    rank_steps_probe = probe_ranks * SWEEP_STEPS
    rank_steps_sweep = sum(w.ranks_for(n) * SWEEP_STEPS
                           for n in DEFAULT_NODE_COUNTS)
    t_naive = t_probe * rank_steps_sweep / rank_steps_probe

    top = curve.points[-1]
    return {
        "app": "comet",
        "node_counts": list(DEFAULT_NODE_COUNTS),
        "steps": SWEEP_STEPS,
        "t_sweep": t_sweep,
        "probe_nodes": PROBE_NODES,
        "probe_ranks": probe_ranks,
        "t_live_probe": t_probe,
        "t_naive_extrapolated": t_naive,
        "speedup_vs_naive": t_naive / t_sweep,
        "exaflops_at_9074": top.metric,
        "efficiency_at_9074": curve.efficiency_at(9074),
        "live_ranks_at_9074": top.live_ranks,
    }


def run_quick() -> None:
    """CI mode: differential + 3-point smoke per app + gated timed sweep."""
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

    run_gate()


def run_gate(*, slow_factor: float = 8.0, slack: float = 0.25) -> list:
    """Re-time the recorded sweep and gate it against its band."""
    tracer = Tracer(clock=time.perf_counter)
    timed_sweep(tracer)
    gate = BenchRegressionGate(_BENCH_PATH, slow_factor=slow_factor,
                               slack=slack)
    checks = gate.check_span_totals(tracer, GATED_SPANS)
    for check in checks:
        print(check.describe())
    BenchRegressionGate.assert_ok(checks)
    return checks


def run_full(*, record: bool = False) -> dict:
    block = measure_block()
    print(f"10-point CoMet sweep to 9,074 nodes ({SWEEP_STEPS} steps/point): "
          f"{block['t_sweep']:.3f} s wall")
    print(f"all-live probe at {block['probe_nodes']} nodes "
          f"({block['probe_ranks']} ranks): {block['t_live_probe']:.3f} s")
    print(f"naive all-live extrapolation over the sweep: "
          f"{block['t_naive_extrapolated']:.2f} s")
    print(f"speedup vs naive: {block['speedup_vs_naive']:.0f}x "
          f"(floor: {MIN_SPEEDUP:.0f}x)")
    print(f"headline at 9,074 nodes: {block['exaflops_at_9074']:.3f} EF, "
          f"weak-scaling efficiency {block['efficiency_at_9074']:.4f}, "
          f"{block['live_ranks_at_9074']} live ranks")
    assert block["speedup_vs_naive"] >= MIN_SPEEDUP, (
        f"representative-rank sweep only {block['speedup_vs_naive']:.1f}x "
        f"cheaper than naive (floor {MIN_SPEEDUP:.0f}x)")
    if record:
        doc = json.loads(_BENCH_PATH.read_text())
        doc["full_machine_scaling"] = block
        _BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"recorded full_machine_scaling block to {_BENCH_PATH.name}")
    return block


def test_bench_scaling_gate():
    checks = run_gate()
    assert len(checks) == len(GATED_SPANS)
    assert all(c.ok for c in checks)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="CI mode: differential + smoke sweeps + gate")
    ap.add_argument("--record", action="store_true",
                    help="rewrite the full_machine_scaling block")
    args = ap.parse_args(argv)
    if args.quick:
        run_quick()
    else:
        run_full(record=args.record)


if __name__ == "__main__":
    main()

"""Wall-clock benchmark of resilience at full-machine scale.

The resilience-at-scale claim is twofold: fault-injected campaigns on
the representative-rank engine cost seconds of wall-clock even when the
modelled machine has 72,592 ranks, and the measured optimal checkpoint
interval they produce agrees with Young/Daly within 2x.  This bench
times both sweeps from :mod:`repro.experiments.resilience_at_scale`:

* ``t_sweep`` — the 5-interval x 4-seed Daly validation at 4,096 nodes
  (the gated wall-clock span);
* ``t_curve`` — the resilience-overhead-vs-node-count curve from 1,024
  nodes to the paper's 9,074-node Frontier scale.

The measured block is recorded as ``scaled_resilience`` in
``BENCH_repro_speed.json`` (``--record``) and gated by CI through
:class:`BenchRegressionGate` like the other benches.  ``--quick`` runs
the CI mode: a fault-matrix smoke over every fault kind on exemplar and
modelled targets, a reduced Daly sweep asserting the 2x agreement, then
the gated timed sweep.  Run directly::

    PYTHONPATH=src python benchmarks/bench_scaled_resilience.py [--quick] [--record]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.experiments.resilience_at_scale import (
    run_daly_sweep,
    run_overhead_curve,
)
from repro.hardware.interconnect import SLINGSHOT_11
from repro.mpisim import RankGroupPartitioner, SimComm
from repro.observability import BenchRegressionGate, Tracer
from repro.resilience import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    SimulatedFault,
)

_BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_repro_speed.json"

#: span name -> key path into BENCH_repro_speed.json
GATED_SPANS = {
    "bench.scaled_resilience[daly]": ("scaled_resilience", "t_sweep"),
}

#: the acceptance bound on measured-vs-Young/Daly optimal interval
MAX_DALY_FACTOR = 2.0


def fault_matrix_smoke() -> None:
    """Every fault kind on both an exemplar and a modelled target."""
    inj = FaultInjector(rng=np.random.default_rng(0),
                        mtbf={k: 1.0 for k in FaultKind})
    for target, flavor in ((0, "exemplar"), (5, "modelled")):
        comm = SimComm(16, SLINGSHOT_11, ranks_per_node=8,
                       device_buffers=True,
                       partition=RankGroupPartitioner(
                           "endpoints").partition(16))
        arr = np.ones(32)
        for kind in FaultKind:
            event = FaultEvent(time=1.0, kind=kind, target=target,
                               slowdown=2.0, duration=10.0, bit=40)
            try:
                inj.fire(event, comm=comm, arrays=[arr])
            except SimulatedFault:
                pass
            assert kind not in (FaultKind.RANK_FAILURE,) or (
                comm.failed_ranks() == [target])
        assert not np.array_equal(arr, np.ones(32))  # SDC landed
        inj.clear(comm=comm)
        assert comm.failed_ranks() == []
        print(f"fault matrix OK on {flavor} target {target}: "
              f"{[k.value for k in FaultKind]}")


def timed_sweep(tracer: Tracer, *, seeds=(0, 1, 2, 3), nsteps=256):
    """The 4,096-node Daly validation sweep (the gated span)."""
    with tracer.span("bench.scaled_resilience[daly]", cat="bench",
                     pid="bench", tid="resilience", nodes=4096,
                     seeds=len(seeds), nsteps=nsteps):
        return run_daly_sweep(nodes=4096, seeds=tuple(seeds), nsteps=nsteps)


def measure_block() -> dict:
    tracer = Tracer(clock=time.perf_counter)
    t0 = time.perf_counter()
    sweep = timed_sweep(tracer)
    t_sweep = time.perf_counter() - t0

    t0 = time.perf_counter()
    curve = run_overhead_curve()
    t_curve = time.perf_counter() - t0

    return {
        "nodes": sweep.nodes,
        "machine_ranks": sweep.machine_ranks,
        "seeds": len(sweep.seeds),
        "nsteps": sweep.nsteps,
        "t_sweep": t_sweep,
        "t_curve": t_curve,
        "w_star_steps": sweep.w_star_steps,
        "measured_best_steps": sweep.measured_best_steps,
        "daly_agreement_factor": sweep.daly_agreement_factor,
        "intervals": [
            {"steps": p.interval_steps,
             "measured_overhead": p.measured_overhead,
             "predicted_overhead": p.predicted_overhead,
             "failures": p.failures}
            for p in sweep.points
        ],
        "overhead_curve": [
            {"nodes": p.nodes, "machine_ranks": p.machine_ranks,
             "interval_steps": p.interval_steps,
             "measured_overhead": p.measured_overhead,
             "failures": p.failures}
            for p in curve.points
        ],
    }


def run_quick() -> None:
    """CI mode: fault-matrix smoke + reduced Daly sweep + gate."""
    fault_matrix_smoke()
    sweep = run_daly_sweep(nodes=4096, seeds=(0, 1), nsteps=128)
    print(sweep.render())
    checks = sweep.checks()
    assert all(checks.values()), checks
    assert sweep.daly_agreement_factor <= MAX_DALY_FACTOR + 1e-9
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
    print(f"Daly validation at {block['nodes']} nodes "
          f"({block['machine_ranks']} machine ranks), "
          f"{block['seeds']} seeds x {block['nsteps']} steps: "
          f"{block['t_sweep']:.3f} s wall")
    for p in block["intervals"]:
        print(f"  {p['steps']:3d} steps: measured {p['measured_overhead']:.4f}"
              f"  predicted {p['predicted_overhead']:.4f}"
              f"  ({p['failures']} faults)")
    print(f"W* = {block['w_star_steps']:.1f} steps, measured optimum "
          f"{block['measured_best_steps']} steps "
          f"(agreement {block['daly_agreement_factor']:.2f}x, "
          f"bound {MAX_DALY_FACTOR:.0f}x)")
    print(f"overhead-vs-node-count curve: {block['t_curve']:.3f} s wall")
    for p in block["overhead_curve"]:
        print(f"  {p['nodes']:5d} nodes ({p['machine_ranks']:6d} ranks): "
              f"overhead {p['measured_overhead']:.4f} "
              f"at W*={p['interval_steps']} steps ({p['failures']} faults)")
    assert block["daly_agreement_factor"] <= MAX_DALY_FACTOR + 1e-9, (
        f"measured optimum {block['measured_best_steps']} steps disagrees "
        f"with W* = {block['w_star_steps']:.1f} by more than "
        f"{MAX_DALY_FACTOR:.0f}x")
    if record:
        doc = json.loads(_BENCH_PATH.read_text())
        doc["scaled_resilience"] = block
        _BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"recorded scaled_resilience block to {_BENCH_PATH.name}")
    return block


def test_bench_scaled_resilience_gate():
    checks = run_gate()
    assert len(checks) == len(GATED_SPANS)
    assert all(c.ok for c in checks)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="CI mode: fault-matrix smoke + Daly sweep + gate")
    ap.add_argument("--record", action="store_true",
                    help="rewrite the scaled_resilience block")
    args = ap.parse_args(argv)
    if args.quick:
        run_quick()
    else:
        run_full(record=args.record)


if __name__ == "__main__":
    main()

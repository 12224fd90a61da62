"""Wall-clock benchmark of resilience at full-machine scale.

The resilience-at-scale claim is twofold: fault-injected campaigns on
the representative-rank engine cost seconds of wall-clock even when the
modelled machine has 72,592 ranks, and the measured optimal checkpoint
interval they produce agrees with Young/Daly within 2x.  This bench
runs a fault-matrix smoke over every fault kind on exemplar and
modelled targets, then both sweeps from
:mod:`repro.experiments.resilience_at_scale`:

* the 5-interval x 4-seed Daly validation at 4,096 nodes (its checks
  include the 2x agreement);
* the resilience-overhead-vs-node-count curve from 1,024 nodes to the
  paper's 9,074-node Frontier scale.

Both assert their ``checks()``.  The Daly sweep's wall time is measured
by the ``machine_resilience`` perfbench workload.  Run directly or
through pytest::

    PYTHONPATH=src python benchmarks/bench_scaled_resilience.py
"""

from __future__ import annotations

import numpy as np

from repro.experiments.resilience_at_scale import (
    run_daly_sweep,
    run_overhead_curve,
)
from repro.hardware.interconnect import SLINGSHOT_11
from repro.mpisim import RankGroupPartitioner, SimComm
from repro.resilience import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    SimulatedFault,
)


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


def test_bench_scaled_resilience():
    fault_matrix_smoke()
    for result in (run_daly_sweep(nodes=4096, seeds=(0, 1, 2, 3), nsteps=256),
                   run_overhead_curve()):
        print(result.render())
        checks = result.checks()
        assert all(checks.values()), checks


if __name__ == "__main__":
    test_bench_scaled_resilience()

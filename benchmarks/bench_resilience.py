"""Resilience-subsystem bench: what checkpointing actually costs.

Measures, on the real reproduction code (wall clock, not models):

* snapshot serialization/restore latency for the Figure 2 Pele campaign
  state — the real-time cost a recovery pays before replay starts;
* the simulated checkpoint-overhead fraction of a fault-injected
  campaign run at the Young/Daly interval, with the failure-free wall
  clock as the baseline;
* the simulated-time inflation of ABFT checksum augmentation on the
  production-size batched-LU and count-GEMM kernels (gated at 10%);
* a fault matrix: every FaultKind crossed with every RecoveryPolicy on
  a tiny HACC campaign, each cell required to finish bit-identical.

Run directly::

    PYTHONPATH=src python benchmarks/bench_resilience.py

or through pytest (``python -m pytest benchmarks/bench_resilience.py``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.apps.exasky import ExaskyCampaign
from repro.apps.pele import PeleChemistryCampaign
from repro.gpu.device import Device
from repro.gpu.perfmodel import time_kernel
from repro.hardware.catalog import FRONTIER
from repro.linalg.batched import batched_lu_kernel_spec
from repro.mpisim import SimComm
from repro.resilience import (
    CheckpointCostModel,
    FaultInjector,
    FaultKind,
    ResilientRunner,
    SpareSwapPolicy,
    decode_snapshot,
    encode_snapshot,
    young_daly_interval,
)
from repro.similarity.gemmtally import gemm_tally_kernel_spec

ABFT_INFLATION_GATE = 0.10  # checksum work may not cost >10% kernel time


def checkpoint_latency() -> dict:
    """Real wall-clock cost of snapshot/encode and decode/restore for an
    8-cell Figure 2 campaign state (the recovery-path critical section),
    averaged over 3 repeats."""
    app = PeleChemistryCampaign(ncells=8, seed=0)
    app.step()  # measure a mid-campaign state, not the pristine one

    t0 = time.perf_counter()
    for _ in range(3):
        blob = encode_snapshot(app.snapshot())
    t_snapshot = (time.perf_counter() - t0) / 3

    t0 = time.perf_counter()
    for _ in range(3):
        app.restore(decode_snapshot(blob))
    t_restore = (time.perf_counter() - t0) / 3

    restored = encode_snapshot(app.snapshot())
    return {
        "snapshot_bytes": len(blob),
        "t_snapshot": t_snapshot,
        "t_restore": t_restore,
        "round_trip_exact": restored == blob,
    }


def campaign_overhead() -> dict:
    """Simulated overhead fraction of a 30-step Pele campaign under rank
    failures (MTBF 40 s) at the Young/Daly interval, vs. the failure-free
    run of the same job."""
    nsteps, mtbf = 30, 40.0
    cost = CheckpointCostModel(latency=0.5, restart_cost=5.0)

    def campaign() -> PeleChemistryCampaign:
        return PeleChemistryCampaign(ncells=8, seed=1)

    probe = campaign()
    delta = cost.write_time(len(encode_snapshot(probe.snapshot())))
    interval = max(1, round(young_daly_interval(delta, mtbf) / probe.step_cost))

    clean_app = campaign()
    clean = ResilientRunner(clean_app, checkpoint_interval=interval,
                            cost_model=cost).run(nsteps)

    app = campaign()
    injector = FaultInjector(rng=np.random.default_rng(43),
                             mtbf={FaultKind.RANK_FAILURE: mtbf})
    stats = ResilientRunner(app, checkpoint_interval=interval,
                            injector=injector, cost_model=cost,
                            max_retries=50, backoff_base=0.0).run(nsteps)

    recovery_latency = (stats.recovery_time / stats.recoveries
                        if stats.recoveries else 0.0)
    return {
        "checkpoint_interval": interval,
        "recoveries": stats.recoveries,
        "steps_replayed": stats.steps_replayed,
        "checkpoint_overhead_fraction": clean.overhead_fraction,
        "faulty_overhead_fraction": stats.overhead_fraction,
        "recovery_latency": recovery_latency,
        "wall_clock_inflation": stats.wall_clock / clean.wall_clock,
        "bit_identical": bool(
            encode_snapshot(app.snapshot())
            == encode_snapshot(clean_app.snapshot())
        ),
    }


def abft_overhead() -> dict:
    """Simulated-time inflation of checksum augmentation on the two
    production ABFT carriers, timed on the Frontier GPU model.

    The batched LU runs at the production block size (512 cells of a
    128-species mechanism): the Huang–Abraham ride-along is O(n²) work
    against O(n³) elimination, so toy sizes would overstate the ratio.
    The CoMet count-GEMM adds two GEMVs per state pair — O(1/n) of the
    tally itself.
    """
    gpu = FRONTIER.node.gpu

    def inflation(mk) -> float:
        base = time_kernel(mk(False), gpu).execution_time
        return time_kernel(mk(True), gpu).execution_time / base - 1.0

    return {
        "device": gpu.name,
        "batched_lu": {
            "batch": 512, "n": 128,
            "inflation": inflation(
                lambda a: batched_lu_kernel_spec(512, 128, abft=a)),
        },
        "gemm_tally": {
            "n_vectors": 4096, "n_fields": 65536,
            "inflation": inflation(
                lambda a: gemm_tally_kernel_spec(4096, 65536, abft=a)),
        },
        "gate": ABFT_INFLATION_GATE,
    }


def fault_matrix() -> dict:
    """Every FaultKind × every RecoveryPolicy on one tiny 8-step HACC
    campaign.

    Fatal-fault cells must end bit-identical to the failure-free run
    (recovery replays deterministically).  SDC cells must be
    bit-identical whenever every injected flip was detected — the
    campaign's range validators are real, partial guards, so a
    low-order mantissa flip can legitimately ride through; the matrix
    *measures* that coverage instead of assuming it.
    """
    nsteps = 8
    reference = ExaskyCampaign(nparticles=128, seed=3)
    for _ in range(nsteps):
        reference.step()

    cells: dict[str, dict] = {}
    for kind in FaultKind:
        for name in ("restart", "shrink", "spare"):
            app = ExaskyCampaign(nparticles=128, seed=3)
            comm = SimComm(8, FRONTIER.node.interconnect)
            runner = ResilientRunner(
                app, checkpoint_interval=4,
                injector=FaultInjector(rng=np.random.default_rng(11),
                                       mtbf={kind: 0.1},
                                       max_target=comm.nranks),
                cost_model=CheckpointCostModel(restart_cost=0.02),
                comm=comm, device=Device(FRONTIER.node.gpu),
                max_retries=50, backoff_base=0.0,
                policy=(SpareSwapPolicy(spares=2, activation_cost=0.005)
                        if name == "spare" else name),
            )
            stats = runner.run(nsteps)
            cells[f"{kind.value}/{name}"] = {
                "events_fired": stats.events_fired,
                "recoveries": stats.recoveries,
                "ranks_final": stats.ranks_final,
                "sdc_injected": stats.sdc_injected,
                "sdc_detected": stats.sdc_detected,
                "bit_identical": bool(
                    np.array_equal(app.pos, reference.pos)
                    and np.array_equal(app.vel, reference.vel)),
            }
    return cells


def test_bench_resilience():
    lat = checkpoint_latency()
    camp = campaign_overhead()
    print(f"\ncheckpoint ({lat['snapshot_bytes']} B): snapshot "
          f"{lat['t_snapshot']*1e6:.0f} us, restore {lat['t_restore']*1e6:.0f} us")
    print(f"campaign: ckpt every {camp['checkpoint_interval']} steps, "
          f"{camp['recoveries']} recoveries, overhead "
          f"{camp['faulty_overhead_fraction']:.1%} "
          f"(clean {camp['checkpoint_overhead_fraction']:.1%}), "
          f"recovery latency {camp['recovery_latency']:.1f} s")
    assert lat["round_trip_exact"]
    assert lat["t_snapshot"] < 0.1 and lat["t_restore"] < 0.1
    assert camp["bit_identical"]
    assert camp["recoveries"] >= 1
    assert camp["checkpoint_overhead_fraction"] < camp["faulty_overhead_fraction"]
    assert camp["wall_clock_inflation"] >= 1.0

    ab = abft_overhead()
    print(f"abft inflation on {ab['device']}: "
          f"batched LU {ab['batched_lu']['inflation']:.2%}, "
          f"count GEMM {ab['gemm_tally']['inflation']:.2%} "
          f"(gate {ab['gate']:.0%})")
    for carrier in ("batched_lu", "gemm_tally"):
        assert 0.0 <= ab[carrier]["inflation"] < ABFT_INFLATION_GATE, (
            f"ABFT inflates {carrier} simulated time by "
            f"{ab[carrier]['inflation']:.1%} (gate {ABFT_INFLATION_GATE:.0%})")

    matrix = fault_matrix()
    fired = sum(c["events_fired"] for c in matrix.values())
    print(f"fault matrix: {len(matrix)} kind x policy cells, "
          f"{fired} events fired")
    assert len(matrix) == len(FaultKind) * 3
    assert fired > 0, "fault matrix fired no events at all"
    for cell, result in matrix.items():
        if result["sdc_injected"] > result["sdc_detected"]:
            continue  # undetected SDC rode through: divergence is honest
        assert result["bit_identical"], f"{cell} diverged: {result}"


if __name__ == "__main__":
    test_bench_resilience()

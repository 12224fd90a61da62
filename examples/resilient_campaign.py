"""Resilience at Exascale: checkpoint/restart under injected failures.

Run:  python examples/resilient_campaign.py

The paper's campaigns (weeks on 4 096-9 408 nodes) only produced their
figures because checkpoint/restart absorbed the node losses a machine
that size suffers daily.  This example exercises the reproduction's
resilience subsystem end to end:

1. Young/Daly optimal checkpoint intervals computed from the same
   machine models (fabric alpha-beta, node counts) the rest of the
   repo uses;
2. a fault-injected HACC-style campaign — rank failures, device OOM and
   link degradation drawn from seeded exponential MTBF processes —
   driven by the ResilientRunner, recovering from the last valid
   snapshot, with the final phase space bit-identical to a
   failure-free run;
3. an elastic shrink-and-continue recovery: a rank dies, the surviving
   communicator shrinks ULFM-style, the particle domain redistributes,
   and the campaign finishes *without* a restart — still bit-identical;
4. the Figure 2 Pele chemistry campaign surviving injected rank
   failures with an exact replay;
5. a measured overhead-vs-interval sweep against Daly's model: the
   sweet spot lands where sqrt(2 delta M) says it should.

``--policy {restart,shrink,spare}`` selects the recovery policy the
main campaign uses; all three end in the same bits.  ``--nodes N`` adds
a machine-scale act: the same fault-injected campaign through a
representative-rank :class:`~repro.mpisim.SimComm` modelling
every rank of an N-node Frontier (N x 8 machine ranks, a handful
executed), with failures drawn over the whole machine by
:func:`~repro.resilience.scaled_fault_injector` — and still bit-identical
to the failure-free run.  ``--trace PATH``
turns on the unified observability layer and writes one merged
Chrome-trace/Perfetto JSON of the whole demo — spans from the simulated
communicator, the resilience runner, the batched solver and the GPU
perf model on a single timeline.  Tracing is observation-only: the
returned final state is bit-identical with it on or off.
"""

import numpy as np

from repro.apps.exasky import ExaskyCampaign
from repro.gpu.device import Device
from repro.hardware.catalog import FRONTIER, SUMMIT
from repro.mpisim import RankGroupPartitioner, SimComm
from repro.resilience import (
    CheckpointCostModel,
    FaultInjector,
    FaultKind,
    ResilientRunner,
    encode_snapshot,
    machine_checkpoint_cost,
    make_policy,
    optimal_interval_for_machine,
    predicted_overhead,
    scaled_fault_injector,
    system_mtbf,
    young_daly_interval,
)


def main(fast: bool = False, policy: str = "restart",
         trace: str | None = None, nodes: int | None = None) -> dict:
    """Run the full demo; ``fast`` shrinks the campaign and the Daly sweep
    (fewer steps, particles and seeds) without dropping any assertion —
    the bit-identical-recovery checks run in both modes.  ``policy``
    picks the main campaign's recovery strategy.  ``trace`` (a path)
    records the demo through :mod:`repro.observability` and writes the
    merged Chrome-trace JSON there.  Returns the final state and fault
    accounting of the main campaign, so a differential harness can assert
    traced and untraced runs are identical."""
    tracer = None
    if trace is not None:
        from repro.observability import Tracer

        tracer = Tracer()
    print("=== Young/Daly intervals from the machine models ===")
    nbytes = 16 << 30  # 16 GiB of state per node, a typical PeleC plotfile
    for machine in (SUMMIT, FRONTIER):
        mtbf = system_mtbf(machine)
        delta = machine_checkpoint_cost(machine, nbytes).write_time(nbytes)
        w = optimal_interval_for_machine(machine, nbytes)
        print(f"  {machine.name:9s} {machine.nodes:5d} nodes: system MTBF "
              f"{mtbf/3600:5.1f} h, ckpt {delta:6.1f} s "
              f"-> checkpoint every {w/60:.0f} min")

    print(f"\n=== Fault-injected HACC campaign, policy={policy} ===")
    nsteps, interval = (80, 25) if fast else (400, 25)
    nparticles = 512 if fast else 4096

    def campaign() -> ExaskyCampaign:
        return ExaskyCampaign(nparticles=nparticles, seed=3)

    cost = CheckpointCostModel(latency=5e-4, restart_cost=0.05)
    reference = campaign()
    ResilientRunner(reference, checkpoint_interval=interval,
                    cost_model=cost).run(nsteps)

    app = campaign()
    comm = SimComm(16, FRONTIER.node.interconnect, tracer=tracer)
    device = Device(FRONTIER.node.gpu)
    injector = FaultInjector(
        rng=np.random.default_rng(43),
        mtbf={
            FaultKind.RANK_FAILURE: 2.0,
            FaultKind.DEVICE_OOM: 4.0,
            FaultKind.LINK_DEGRADATION: 1.5,
        },
        max_target=comm.nranks,
    )
    # spares must come up fast on this compressed timescale or recoveries
    # outrun the MTBF and the event queue snowballs
    chosen = (make_policy("spare", spares=4, activation_cost=0.005)
              if policy == "spare" else policy)
    runner = ResilientRunner(
        app, checkpoint_interval=interval, injector=injector,
        cost_model=cost, comm=comm, device=device, max_retries=30,
        backoff_base=0.0,  # compressed timescale: skip the exponential waits
        policy=chosen, tracer=tracer,
    )
    stats = runner.run(nsteps)
    print(f"  {stats.describe()}")
    if stats.shrinks or stats.spares_used:
        print(f"  ranks {stats.ranks_initial} -> {stats.ranks_final}: "
              f"{stats.shrinks} shrink(s), {stats.spares_used} spare(s), "
              f"{stats.migrated_bytes/1e3:.1f} kB migrated, "
              f"{stats.degraded_throughput_time:.2f} s throughput haircut")
    identical = (
        np.array_equal(app.pos, reference.pos)
        and np.array_equal(app.vel, reference.vel)
        and app.steps_done == reference.steps_done
    )
    print(f"  final phase space bit-identical to failure-free run: {identical}")
    assert identical, f"policy={policy} diverged from the failure-free run"

    print("\n=== Elastic shrink-and-continue: lose a rank, keep going ===")
    shrink_app = campaign()
    shrink_comm = SimComm(16, FRONTIER.node.interconnect)
    shrink_runner = ResilientRunner(
        shrink_app, checkpoint_interval=interval,
        injector=FaultInjector(rng=np.random.default_rng(43),
                               mtbf={FaultKind.RANK_FAILURE: 2.0},
                               max_target=shrink_comm.nranks),
        cost_model=cost, comm=shrink_comm, max_retries=30,
        backoff_base=0.0, policy="shrink",
    )
    shrink_stats = shrink_runner.run(nsteps)
    assert shrink_stats.shrinks >= 1, "expected at least one shrink"
    assert shrink_stats.ranks_final < shrink_stats.ranks_initial
    assert np.array_equal(shrink_app.pos, reference.pos)
    assert np.array_equal(shrink_app.vel, reference.vel)
    print(f"  survived {shrink_stats.shrinks} failure(s) without restarting: "
          f"{shrink_stats.ranks_initial} -> {shrink_stats.ranks_final} ranks, "
          f"final state bit-identical to the failure-free run")

    scaled_stats = None
    if nodes:
        import dataclasses

        machine = dataclasses.replace(FRONTIER, nodes=int(nodes))
        ranks = machine.nodes * machine.node.gpus_per_node
        print(f"\n=== Machine-scale campaign: {machine.nodes} nodes, "
              f"{ranks} machine ranks, representative-rank engine ===")
        part = RankGroupPartitioner("endpoints").partition(ranks)
        scaled_comm = SimComm(ranks, machine.node.interconnect,
                              ranks_per_node=machine.node.gpus_per_node,
                              device_buffers=True, partition=part,
                              tracer=tracer)
        scaled_app = campaign()
        # compress the failure timescale so this seconds-long campaign
        # sees the fault rate of a weeks-long one at this node count
        horizon = nsteps * scaled_app.step_cost
        compression = system_mtbf(machine) / (horizon / 4.0)
        scaled_runner = ResilientRunner(
            scaled_app, checkpoint_interval=interval,
            injector=scaled_fault_injector(
                np.random.default_rng(43), machine, machine_ranks=ranks,
                time_compression=compression),
            cost_model=cost, comm=scaled_comm, max_retries=30,
            backoff_base=0.0, policy="restart", tracer=tracer,
        )
        scaled_stats = scaled_runner.run(nsteps)
        print(f"  executing {scaled_comm.nranks} exemplar ranks for "
              f"{ranks}; {scaled_stats.describe()}")
        scaled_identical = (
            np.array_equal(scaled_app.pos, reference.pos)
            and np.array_equal(scaled_app.vel, reference.vel)
        )
        print(f"  final phase space bit-identical to failure-free run: "
              f"{scaled_identical}")
        assert scaled_identical, (
            f"machine-scale campaign at {machine.nodes} nodes diverged")

    print("\n=== The Figure 2 campaign surviving rank failures ===")
    from repro.experiments.figure2 import run_figure2_resilient

    fig2_device = Device(FRONTIER.node.gpu) if tracer is not None else None
    fig2 = run_figure2_resilient(nsteps=4 if fast else 8,
                                 checkpoint_interval=2,
                                 ncells=4 if fast else 8, mtbf=7.0,
                                 tracer=tracer, device=fig2_device)
    print("  " + fig2.render().replace("\n", "\n  "))
    assert all(fig2.checks().values()), fig2.checks()

    print("\n=== Measured overhead vs. the Daly curve ===")
    probe = campaign()
    delta = cost.write_time(len(encode_snapshot(probe.snapshot())))
    mtbf = 1.0
    w_opt = young_daly_interval(delta, mtbf)
    opt_steps = max(1, round(w_opt / probe.step_cost))
    print(f"  ckpt cost {delta*1e3:.2f} ms, MTBF {mtbf:.1f} s "
          f"-> W* = {w_opt:.3f} s ({opt_steps} steps)")
    # exponential failures are noisy; average the measurement
    nseeds = 2 if fast else 8
    sweep = ({max(1, opt_steps // 4), opt_steps, opt_steps * 4} if fast
             else {max(1, opt_steps // 4), opt_steps,
                   opt_steps * 4, opt_steps * 16})
    for steps in sorted(sweep):
        measured = []
        for trial in range(nseeds):
            run_app = campaign()
            inj = FaultInjector(rng=np.random.default_rng(100 + trial),
                                mtbf={FaultKind.RANK_FAILURE: mtbf})
            r = ResilientRunner(run_app, checkpoint_interval=steps,
                                injector=inj, cost_model=cost,
                                max_retries=200, backoff_base=0.0)
            measured.append(r.run(nsteps).overhead_fraction)
        pred = predicted_overhead(steps * run_app.step_cost, delta, mtbf,
                                  restart_cost=cost.restart_cost)
        marker = "  <- W*" if steps == opt_steps else ""
        print(f"  every {steps:3d} steps: measured overhead "
              f"{np.mean(measured):6.1%}  (Daly predicts {pred:6.1%})"
              f"{marker}")

    if tracer is not None:
        from pathlib import Path

        from repro.observability import (
            export_chrome_trace,
            hot_spans_report,
            subsystems_in_trace,
            validate_chrome_trace,
        )

        devices = [d for d in (device, fig2_device) if d is not None]
        doc = export_chrome_trace(tracer, devices)
        payload = validate_chrome_trace(doc)
        Path(trace).write_text(doc)
        print(f"\n=== Merged Chrome trace -> {trace} ===")
        print(f"  {len(payload['traceEvents'])} events, subsystems: "
              + ", ".join(sorted(subsystems_in_trace(payload))))
        print("  " + hot_spans_report(tracer, top=8).replace("\n", "\n  "))

    # the differential harness's contract: everything the demo computed
    # that tracing must not perturb, in one comparable payload
    return {
        "pos": app.pos.copy(),
        "vel": app.vel.copy(),
        "steps_done": int(app.steps_done),
        "events_drawn": int(stats.events_drawn),
        "events_fired": int(stats.events_fired),
        "events_requeued_pending": int(stats.events_requeued_pending),
        "recoveries": int(stats.recoveries),
        "failures_by_kind": dict(stats.failures_by_kind),
        "shrink_recoveries": int(shrink_stats.recoveries),
        "fig2_bit_identical": bool(fig2.bit_identical),
        "scaled_nodes": int(nodes) if nodes else None,
        "scaled_recoveries": (int(scaled_stats.recoveries)
                              if scaled_stats is not None else None),
    }


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="reduced-size run (smaller campaign and sweep)")
    parser.add_argument("--policy", choices=("restart", "shrink", "spare"),
                        default="restart",
                        help="recovery policy for the main campaign")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a merged Chrome-trace JSON of the demo")
    parser.add_argument("--nodes", type=int, default=None, metavar="N",
                        help="also run the fault-injected campaign at N "
                             "Frontier nodes (N x 8 machine ranks) on the "
                             "representative-rank engine, e.g. 4096 or 9074")
    cli = parser.parse_args()
    main(fast=cli.fast, policy=cli.policy, trace=cli.trace, nodes=cli.nodes)

"""Figure 2: PeleC time-per-cell-per-timestep history (§3.8)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps import pele
from repro.core.report import render_series


@dataclass(frozen=True)
class Figure2Result:
    single_node: tuple[tuple[str, str, str, float], ...]
    at_scale: tuple[tuple[str, str, str, float], ...]
    total_improvement: float

    def checks(self) -> dict[str, bool]:
        """Shape assertions against the paper's narrative."""
        times = [t for _, _, _, t in self.single_node]
        gains = [a / b for a, b in zip(times, times[1:])]
        gpu_port_gain = gains[2]  # Eagle -> Summit GPU port
        return {
            "total ~75x (band 50-110)": 50.0 <= self.total_improvement <= 110.0,
            "GPU port is the largest single gain": gpu_port_gain == max(gains),
            "monotone improvement after 2019": all(
                g >= 0.999 for g in gains[2:]
            ),
            "Frontier is the fastest point": times[-1] == min(times),
            "async ghost helps at scale": (
                self.at_scale[1][3] <= self.at_scale[0][3]
            ),
        }

    def render(self) -> str:
        parts = [
            "Figure 2: PeleC time per cell per timestep (single node)",
            render_series(
                "single-node",
                [(f"{d} {m:9s} {s}", t) for d, m, s, t in self.single_node],
                value_format="{:.3e} s",
            ),
            render_series(
                "4096 nodes",
                [(f"{d} {m:9s} {s}", t) for d, m, s, t in self.at_scale],
                value_format="{:.3e} s",
            ),
            f"total improvement Sept 2018 -> Mar 2023: {self.total_improvement:.1f}x"
            "   [paper: ~75x]",
        ]
        return "\n\n".join(parts)


def run_figure2() -> Figure2Result:
    return Figure2Result(
        single_node=tuple(pele.figure2_history()),
        at_scale=tuple(pele.figure2_scale_series()),
        total_improvement=pele.total_improvement(),
    )


#: WRMS bound, in integration-tolerance units, on the batched chemistry's
#: distance from the Radau reference
RADAU_TOL_UNITS = 10.0


@dataclass(frozen=True)
class Figure2MeasuredResult:
    """Figure 2 plus a *measured* run of its central lever.

    The modeled history attributes the 2020 jump to the cvode-batched
    code state.  ``chemistry_stage`` re-enacts that lever on the
    reproduction's own integrators: the same drm19-scale field advanced
    once by a per-cell scalar BDF loop and once by the batched BDF with
    generated kernels and batched LU, with wall clocks for both.
    """

    modeled: Figure2Result
    chemistry_stage: dict

    def checks(self) -> dict[str, bool]:
        out = dict(self.modeled.checks())
        stage = self.chemistry_stage
        out["measured batched chemistry beats scalar loop"] = (
            stage["speedup"] > 1.0
        )
        out["scalar and batched solutions agree"] = (
            stage["max_rel_deviation"] < 1e-5
        )
        out[f"batched chemistry within {RADAU_TOL_UNITS:g} tolerance units "
            "of a Radau reference"] = (
            stage["radau_error_units"] <= RADAU_TOL_UNITS)
        return out

    def render(self) -> str:
        stage = self.chemistry_stage
        measured = "\n".join([
            "measured batched-chemistry ablation "
            f"({stage['ncells']} cells, dt={stage['dt']:.0e} s):",
            f"  scalar per-cell loop : {stage['t_scalar']:.3f} s",
            f"  batched BDF + LU     : {stage['t_batched']:.3f} s",
            f"  speedup              : {stage['speedup']:.1f}x",
            f"  max relative deviation: {stage['max_rel_deviation']:.2e}",
            f"  vs Radau reference   : {stage['radau_error_units']:.2f} "
            f"tolerance units (worst of {stage['radau_cells']} cells, "
            f"bound {RADAU_TOL_UNITS:g})",
        ])
        return self.modeled.render() + "\n\n" + measured


def run_figure2_measured(*, ncells: int = 32, dt: float = 1e-9,
                         seed: int = 0) -> Figure2MeasuredResult:
    """Figure 2 with the cvode-batched lever actually executed.

    Slower than :func:`run_figure2` (it integrates real stiff chemistry
    twice); intended for benchmarks, not the fast test tier.
    """
    return Figure2MeasuredResult(
        modeled=run_figure2(),
        chemistry_stage=pele.measured_chemistry_speedup(
            ncells=ncells, dt=dt, seed=seed
        ),
    )


@dataclass(frozen=True)
class Figure2ResilientResult:
    """A Figure 2 campaign driven through the resilience subsystem.

    The paper's Figure 2 points exist because multi-week PeleC campaigns
    at 4 096 nodes survived node losses; this result object carries the
    evidence the reproduction can do the same: the fault-injected run's
    accounting, and a bit-identical comparison of its final chemistry
    field against a failure-free run of the same campaign.
    """

    stats: "object"  # ResilienceStats (kept loose to avoid a hard import cycle)
    nsteps: int
    checkpoint_interval: int
    mtbf: float
    bit_identical: bool
    young_daly_interval_steps: float

    def checks(self) -> dict[str, bool]:
        return {
            "campaign completed all steps": self.stats.steps_completed == self.nsteps,
            "at least one failure was recovered": self.stats.recoveries >= 1,
            "final state bit-identical to failure-free run": self.bit_identical,
        }

    def render(self) -> str:
        return "\n".join([
            "Figure 2 resilient campaign (cvode-batched state, "
            f"{self.nsteps} steps, checkpoint every {self.checkpoint_interval}, "
            f"MTBF {self.mtbf:.0f}s):",
            "  " + self.stats.describe(),
            f"  Young/Daly optimal interval: "
            f"{self.young_daly_interval_steps:.2g} steps",
            f"  bit-identical vs failure-free: {self.bit_identical}",
        ])


def run_figure2_resilient(*, nsteps: int = 10, checkpoint_interval: int = 3,
                          ncells: int = 12, mtbf: float = 8.0,
                          seed: int = 0, tracer=None,
                          device=None) -> Figure2ResilientResult:
    """Drive the Figure 2 chemistry campaign through ``ResilientRunner``
    with injected rank failures, and verify restart exactness.

    The MTBF default is tuned to the campaign's simulated length so a
    handful of failures fire (a compressed stand-in for hours-scale MTBF
    over a weeks-scale campaign).

    ``tracer`` (a :class:`repro.observability.Tracer`) and ``device`` (a
    :class:`repro.gpu.device.Device`) observe the *fault-injected* run
    only — communicator traffic, checkpoint/recovery spans, solver
    rounds and kernel launches all land on one timeline — while the
    failure-free reference stays bare, so the bit-identical check also
    proves instrumentation never feeds back into the physics.
    """
    from repro.resilience import (
        CheckpointCostModel,
        FaultInjector,
        FaultKind,
        ResilientRunner,
        encode_snapshot,
        young_daly_interval,
    )
    import numpy as np

    from repro.hardware.catalog import SUMMIT
    from repro.hardware.interconnect import IB_EDR_DUAL
    from repro.mpisim import SimComm

    span = None
    if tracer is not None:
        span = tracer.begin("experiments.figure2_resilient",
                            cat="experiments", pid="experiments",
                            tid="campaign", nsteps=int(nsteps),
                            ncells=int(ncells))

    def campaign(**observers):
        return pele.PeleChemistryCampaign(ncells=ncells, seed=seed, **observers)

    # failure-free reference: same campaign, no injector, no observers
    reference = campaign()
    cost = CheckpointCostModel(restart_cost=2.0, latency=1e-3)
    clean = ResilientRunner(reference, checkpoint_interval=checkpoint_interval,
                            cost_model=cost)
    clean.run(nsteps)

    # fault-injected run through a simulated communicator
    fabric = SUMMIT.node.interconnect or IB_EDR_DUAL
    comm = SimComm(8, fabric, tracer=tracer)
    app = campaign(tracer=tracer, comm=comm, device=device)
    injector = FaultInjector(
        rng=np.random.default_rng(seed + 1),
        mtbf={FaultKind.RANK_FAILURE: mtbf},
        max_target=comm.nranks,
    )
    runner = ResilientRunner(app, checkpoint_interval=checkpoint_interval,
                             injector=injector, cost_model=cost, comm=comm,
                             max_retries=20, tracer=tracer)
    stats = runner.run(nsteps)
    if span is not None:
        tracer.end(span, recoveries=stats.recoveries)

    delta = cost.write_time(len(encode_snapshot(app.snapshot())))
    w_opt = young_daly_interval(delta, mtbf)
    return Figure2ResilientResult(
        stats=stats,
        nsteps=nsteps,
        checkpoint_interval=checkpoint_interval,
        mtbf=mtbf,
        bit_identical=bool(
            np.array_equal(app.C, reference.C)
            and np.array_equal(app.T, reference.T)
            and app.steps_done == reference.steps_done
        ),
        young_daly_interval_steps=w_opt / app.step_cost,
    )


if __name__ == "__main__":  # pragma: no cover - CLI entry
    import argparse

    parser = argparse.ArgumentParser(
        description="Figure 2 with the cvode-batched lever measured")
    parser.add_argument("--ncells", type=int, default=32)
    parser.add_argument("--dt", type=float, default=1e-9)
    cli = parser.parse_args()
    result = run_figure2_measured(ncells=cli.ncells, dt=cli.dt)
    print(result.render())
    checks = result.checks()
    print(", ".join(f"{k}={'OK' if v else 'MISS'}" for k, v in checks.items()))
    raise SystemExit(0 if all(checks.values()) else 1)

"""Checkpoint-interval tuning against injected-fault campaigns.

The knob is the Young/Daly question: how many compute steps between
checkpoints on each machine?  The *measured* objective is the overhead
fraction a fault-injected :class:`~repro.apps.exasky.ExaskyCampaign`
actually pays through the :class:`~repro.resilience.runner.ResilientRunner`
on a representative-rank :class:`~repro.mpisim.comm.SimComm` of the
full machine — not the analytic formula, which enters only as a
cross-check (the recorded ``w_star_steps`` and agreement factor).

Because campaigns are stochastic under fault injection, the search is
:func:`~repro.tuning.search.successive_halving` over rising fidelity
(more steps, more seeds): every candidate gets a cheap measurement, the
surviving half a trustworthy one.  Calibration mirrors
:mod:`repro.experiments.resilience_at_scale`: checkpoint cost δ is pinned
to ``CHECKPOINT_STEP_FRACTION`` of a step and the timescale is compressed
so Young/Daly's W* lands near :data:`TARGET_WSTAR_STEPS` steps — cheap but
discriminating.

The untuned baseline is the conservative default of a team that has not
measured anything: checkpoint after every step.  That is what makes the
margin real — the tuner's win is the measured gap between "always safe"
and the interval the fault process actually rewards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.exasky import ExaskyCampaign
from repro.hardware.machine import MachineSpec
from repro.mpisim.comm import SimComm
from repro.mpisim.partition import RankGroupPartitioner
from repro.resilience.daly import scaled_fault_injector, system_mtbf
from repro.resilience.runner import CheckpointCostModel, ResilientRunner
from repro.resilience.snapshot import encode_snapshot
from repro.tuning.search import successive_halving

#: the compression anchor: steps of compute W* prescribes between
#: checkpoints (same constant as experiments.resilience_at_scale)
TARGET_WSTAR_STEPS = 8
#: checkpoint write cost delta as a fraction of one step's cost
CHECKPOINT_STEP_FRACTION = 0.25
#: scheduler relaunch cost as a fraction of one step's cost
RESTART_STEP_FRACTION = 0.5
#: the untuned baseline: checkpoint after every step
DEFAULT_INTERVAL_STEPS = 1
#: interval candidates as multiples of the W* anchor
INTERVAL_FACTORS: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0)


@dataclass(frozen=True)
class CheckpointFidelity:
    """One successive-halving rung: campaign length x fault seeds."""

    nsteps: int
    seeds: tuple[int, ...]

    def describe(self) -> dict:
        return {"nsteps": self.nsteps, "seeds": list(self.seeds)}


@dataclass(frozen=True)
class CheckpointTuningResult:
    """Tuned checkpoint cadence for one machine."""

    machine: str
    nodes: int
    machine_ranks: int
    default_interval_steps: int
    default_overhead: float
    tuned_interval_steps: int
    tuned_overhead: float
    w_star_steps: float
    campaigns: int  # fault campaigns executed by the search
    fidelity: CheckpointFidelity  # the final (trusted) rung

    @property
    def speedup(self) -> float:
        """Campaign wall-time ratio: default over tuned.

        Overhead fractions convert to wall time as ``1 / (1 - overhead)``
        of the pure compute time.
        """
        return (1.0 - self.tuned_overhead) / (1.0 - self.default_overhead)

    @property
    def daly_agreement_factor(self) -> float:
        best = float(max(self.tuned_interval_steps, 1))
        return max(best / self.w_star_steps, self.w_star_steps / best)


def _campaign_overhead(machine: MachineSpec, *, interval_steps: int,
                       nsteps: int, seed: int, time_compression: float,
                       nparticles: int,
                       cost_model: CheckpointCostModel) -> float:
    app = ExaskyCampaign(nparticles=nparticles, seed=seed)
    ranks = machine.nodes * max(machine.node.gpus_per_node, 1)
    part = RankGroupPartitioner("endpoints").partition(ranks)
    comm = SimComm(
        ranks, machine.node.interconnect,
        ranks_per_node=max(machine.node.gpus_per_node, 1),
        device_buffers=machine.node.has_gpus, partition=part,
    )
    injector = scaled_fault_injector(
        np.random.default_rng(seed), machine,
        machine_ranks=comm.machine_ranks,
        time_compression=time_compression,
    )
    runner = ResilientRunner(
        app, checkpoint_interval=interval_steps, injector=injector,
        cost_model=cost_model, comm=comm, policy="restart",
        backoff_base=0.0, max_retries=64,
    )
    return runner.run(nsteps).overhead_fraction


def _calibration(machine: MachineSpec,
                 nparticles: int) -> tuple[float, CheckpointCostModel, float]:
    """``(step_cost, cost_model, time_compression)`` for this machine.

    The cost model is built backwards from the campaign's actual snapshot
    size so a checkpoint write costs exactly ``CHECKPOINT_STEP_FRACTION``
    steps, and the compression maps the machine's real system MTBF onto a
    timescale where W* sits at ``TARGET_WSTAR_STEPS`` steps — preserving
    the 1/N failure composition while campaigns run in seconds.
    """
    probe = ExaskyCampaign(nparticles=nparticles, seed=0)
    dt_step = float(probe.step_cost)
    nbytes = len(encode_snapshot(probe.snapshot()))
    delta = CHECKPOINT_STEP_FRACTION * dt_step
    cost_model = CheckpointCostModel(
        write_bandwidth=nbytes / delta,
        read_bandwidth=nbytes / delta,
        latency=0.0,
        restart_cost=RESTART_STEP_FRACTION * dt_step,
    )
    w_star = TARGET_WSTAR_STEPS * dt_step
    m_eff = w_star * w_star / (2.0 * delta)
    compression = system_mtbf(machine) / m_eff
    return dt_step, cost_model, compression


def tune_checkpoint_interval(
    machine: MachineSpec,
    *,
    rungs: tuple[CheckpointFidelity, ...],
    nparticles: int = 96,
) -> CheckpointTuningResult:
    """Search the interval grid on *machine* by successive halving.

    Everything is derived from the machine spec and the rung schedule:
    same machine + same rungs => identical result, bit for bit.
    """
    dt_step, cost_model, compression = _calibration(machine, nparticles)

    candidates = sorted({
        max(1, round(TARGET_WSTAR_STEPS * f)) for f in INTERVAL_FACTORS
    })

    def objective(interval: int, rung: object) -> float:
        fid: CheckpointFidelity = rung  # type: ignore[assignment]
        overheads = [
            _campaign_overhead(
                machine, interval_steps=interval, nsteps=fid.nsteps,
                seed=seed, time_compression=compression,
                nparticles=nparticles, cost_model=cost_model,
            )
            for seed in fid.seeds
        ]
        return float(np.mean(overheads))

    result, _ = successive_halving(candidates, objective, rungs)
    final = rungs[-1]
    tuned_interval = candidates[result.best_index]
    default_overhead = objective(DEFAULT_INTERVAL_STEPS, final)
    campaigns = result.evaluated * len(final.seeds) + len(final.seeds)
    return CheckpointTuningResult(
        machine=machine.name,
        nodes=machine.nodes,
        machine_ranks=machine.nodes * max(machine.node.gpus_per_node, 1),
        default_interval_steps=DEFAULT_INTERVAL_STEPS,
        default_overhead=default_overhead,
        tuned_interval_steps=tuned_interval,
        tuned_overhead=result.best_value,
        w_star_steps=float(TARGET_WSTAR_STEPS),
        campaigns=campaigns,
        fidelity=final,
    )


def measure_overhead(machine: MachineSpec, interval_steps: int,
                     fidelity: CheckpointFidelity, *,
                     nparticles: int = 96) -> float:
    """Re-measure one interval at one fidelity (what generated checks do).

    Identical calibration path to :func:`tune_checkpoint_interval`, so a
    recorded overhead reproduces exactly from (machine, interval,
    fidelity).
    """
    _, cost_model, compression = _calibration(machine, nparticles)
    overheads = [
        _campaign_overhead(
            machine, interval_steps=interval_steps, nsteps=fidelity.nsteps,
            seed=seed, time_compression=compression, nparticles=nparticles,
            cost_model=cost_model,
        )
        for seed in fidelity.seeds
    ]
    return float(np.mean(overheads))

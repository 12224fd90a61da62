"""The service's job model: a tenant's campaign as a schedulable unit.

Balsam's core abstraction (Salim et al. 2018) is the *job*: a unit of
work a user hands a shared machine, carrying who owns it, what it needs
(nodes, walltime) and what to run.  This module is that abstraction over
the reproduction's campaigns: a :class:`Job` wraps any
:class:`~repro.resilience.runner.SteppedApp` (every Checkpointable
campaign driver — HACC kick-drift, Pele chemistry, ...) behind a
seed-deterministic factory, so the service can construct a *fresh*,
bit-reproducible instance per execution attempt and the differential
tests can rebuild the identical campaign standalone.

Walltime estimates are Young/Daly-informed rather than guessed: the
expected overhead of checkpointing at the optimal interval under the
job's fault environment (:func:`walltime_estimate`, via
:mod:`repro.resilience.daly`) inflates the raw ``nsteps x step_cost``
work, and the same arithmetic fixes the runner's checkpoint interval in
steps (:func:`checkpoint_interval_steps`).  EASY backfill's guarantee
only holds when estimates are upper bounds, so a safety factor rides on
top — exactly the pessimism real users bake into their batch scripts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from repro.resilience.daly import predicted_overhead, young_daly_interval
from repro.resilience.runner import ResilienceStats, SteppedApp


class JobError(ValueError):
    """Invalid job specification (zero nodes, negative steps, ...)."""


class JobState(str, Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass(frozen=True)
class JobTemplate:
    """A reusable job shape: app factory + resource request + priority.

    ``make_app(seed)`` must be deterministic — same seed, same campaign,
    bit for bit — because the engine reconstructs the app on every
    execution attempt and the differential suite reconstructs it again
    standalone.  ``est_step_cost`` is the simulated seconds one step is
    expected to take (apps expose it as ``step_cost``); it feeds the
    walltime estimate and the Young/Daly checkpoint interval.
    """

    name: str
    nodes: int
    nsteps: int
    est_step_cost: float
    make_app: Callable[[int], SteppedApp]
    priority: int = 0

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise JobError(f"template {self.name!r}: needs at least 1 node")
        if self.nsteps < 1:
            raise JobError(f"template {self.name!r}: needs at least 1 step")
        if self.est_step_cost <= 0:
            raise JobError(
                f"template {self.name!r}: est_step_cost must be positive")


@dataclass
class Job:
    """One submitted campaign: template + tenant + seed + queue lifecycle.

    The frozen identity lives in the first block; everything below
    ``state`` is runtime bookkeeping the engine fills in as the job moves
    through the queue.  ``result_checksum`` is the snapshot checksum of
    the final app state — the value the bit-identity acceptance test
    compares against a standalone run.
    """

    job_id: int
    tenant: str
    template: JobTemplate
    app_seed: int
    submit_time: float
    priority: int | None = None  # None: inherit the template's

    # -- runtime state, owned by the engine ---------------------------------
    state: JobState = JobState.PENDING
    attempt: int = 0
    walltime_estimate: float = 0.0
    checkpoint_interval: int = 1
    start_time: float | None = None
    end_time: float | None = None
    start_kind: str | None = None  # "head" | "backfill" | "spare-borrow"
    borrowed_spares: int = 0
    result_checksum: str | None = None
    stats: ResilienceStats | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.submit_time < 0:
            raise JobError(f"job {self.job_id}: negative submit time")
        if self.priority is None:
            self.priority = self.template.priority

    @property
    def nodes(self) -> int:
        return self.template.nodes

    @property
    def nsteps(self) -> int:
        return self.template.nsteps

    @property
    def est_step_cost(self) -> float:
        return self.template.est_step_cost

    def make_app(self) -> SteppedApp:
        return self.template.make_app(self.app_seed)

    @property
    def queue_wait(self) -> float | None:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def duration(self) -> float | None:
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time


# ---------------------------------------------------------------------------
# Young/Daly-informed estimates
# ---------------------------------------------------------------------------


def combined_fatal_mtbf(mtbf_by_kind: dict | None) -> float:
    """Aggregate MTBF of the job-killing fault kinds.

    Independent failure processes compose harmonically (rates add):
    ``1/M = sum(1/M_k)`` over the fatal kinds.  ``inf`` with faults off.
    """
    from repro.resilience.faults import FATAL_KINDS, FaultKind

    if not mtbf_by_kind:
        return math.inf
    rate = 0.0
    for kind, m in mtbf_by_kind.items():
        if FaultKind(kind) in FATAL_KINDS and math.isfinite(m):
            if m <= 0:
                raise JobError(f"MTBF for {kind!r} must be positive")
            rate += 1.0 / m
    return 1.0 / rate if rate > 0 else math.inf


def checkpoint_interval_steps(est_step_cost: float, checkpoint_cost: float,
                              mtbf: float, *, nsteps: int) -> int:
    """The Young/Daly interval ``W* = sqrt(2 delta M)``, in whole steps.

    Clamped to ``[1, nsteps]``: an infinite MTBF still checkpoints once
    at the end (the runner always writes checkpoint 0 and the final one).
    """
    if est_step_cost <= 0:
        raise JobError("est_step_cost must be positive")
    if not math.isfinite(mtbf):
        return nsteps
    w_star = young_daly_interval(checkpoint_cost, mtbf)
    return max(1, min(nsteps, round(w_star / est_step_cost)))


def walltime_estimate(nsteps: int, est_step_cost: float,
                      checkpoint_cost: float, mtbf: float, *,
                      restart_cost: float = 0.0,
                      safety: float = 1.5) -> float:
    """User-facing walltime request: work x (1 + Daly overhead) x safety.

    The overhead term is the first-order expected overhead fraction at
    the optimal interval (:func:`~repro.resilience.daly.predicted_overhead`);
    ``safety`` makes the estimate an upper bound in the common case, which
    is what EASY backfill's no-delay guarantee is conditioned on.
    """
    if safety < 1.0:
        raise JobError("safety factor must be >= 1 (estimates are bounds)")
    work = nsteps * est_step_cost
    if not math.isfinite(mtbf):
        return work * safety
    interval = min(young_daly_interval(checkpoint_cost, mtbf), work)
    overhead = predicted_overhead(interval, checkpoint_cost, mtbf,
                                  restart_cost=restart_cost)
    return work * (1.0 + overhead) * safety

"""The event-driven campaign service: Balsam over the simulated machine.

:class:`CampaignService` is the closed world where everything this
package models meets: an open-loop arrival process submits
:class:`~repro.service.job.Job`\\ s, the EASY backfill scheduler packs
them onto a :class:`~repro.service.pool.MachinePool`, and each started
job runs its campaign through a
:class:`~repro.resilience.runner.ResilientRunner` with fault injection
on — completions, failures and requeues all advance one deterministic
event loop on the service's simulated clock.

Determinism contract (audited by the same suite as the resilience
layer): no wall clock anywhere, every random draw comes from an
explicitly seeded generator, every tie in the event heap is broken by a
monotone sequence number, and per-job fault schedules derive from
``SeedSequence([service_seed, job_id, attempt])`` — so the *entire
campaign history* (start times, spare-pool audit log, SLO numbers, final
state checksums) is a pure function of the seed and the submitted jobs.

Execution semantics worth naming: when the scheduler starts a job, its
whole campaign is executed synchronously and its completion event is
scheduled ``wall_clock`` simulated seconds later — so resources the
campaign's recovery acquires (shared spares) are committed at the job's
*start* time (allocation-time reservation).  That is coarser than
interleaving every job's internal steps, but it keeps job executions
bit-independent, which is what the standalone-vs-service differential
test leans on.

Bit-identity: because every recovery policy finishes bit-identical to a
failure-free run (the PR 4 contract), a job's ``result_checksum`` must
equal the checksum of its app stepped ``nsteps`` times with no service,
no faults, no runner at all (:func:`failure_free_checksum`) — the
acceptance criterion the soak benchmark asserts for every job.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.hardware.machine import MachineSpec
from repro.mpisim.comm import SimComm
from repro.mpisim.partition import RankGroupPartitioner
from repro.observability.metrics import MetricsRegistry
from repro.resilience.faults import FaultInjector, FaultKind
from repro.resilience.runner import (
    CheckpointCostModel,
    RecoveryPolicy,
    ResilienceError,
    ResilienceStats,
    ResilientRunner,
    make_policy,
)
from repro.resilience.snapshot import encode_snapshot, snapshot_checksum
from repro.service.job import (
    Job,
    JobError,
    JobState,
    checkpoint_interval_steps,
    combined_fatal_mtbf,
    walltime_estimate,
)
from repro.service.pool import MachinePool
from repro.service.scheduler import (
    EasyBackfillScheduler,
    Reservation,
    RunningView,
    ScheduledStart,
)
from repro.service.slo import QUEUE_WAIT_EDGES, SloReport, compute_slo

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.observability.tracer import Tracer

# event-kind ordering at equal timestamps: completions free nodes before
# requeues re-enqueue, and both before new arrivals see the machine
_COMPLETE, _REQUEUE, _ARRIVAL = 0, 1, 2

#: jobs at or above this width run their campaign communicator in
#: representative-rank mode (a few exemplars standing for every node)
#: instead of materializing one SimComm rank per node — what lets
#: fault-injected campaigns execute at 4,096-9,074 nodes.  Below it the
#: all-live SimComm is cheap and exact.
SCALED_COMM_MIN_NODES = 256


def _campaign_comm(nodes: int, fabric) -> SimComm:
    """The campaign communicator for a job of *nodes* nodes: all-live
    below :data:`SCALED_COMM_MIN_NODES`, representative-rank above.
    Fault targets, shrink survivors and rank accounting all speak
    machine numbering on either, so the runner code path is identical.
    """
    partition = (None if nodes < SCALED_COMM_MIN_NODES
                 else RankGroupPartitioner("endpoints").partition(nodes))
    return SimComm(nodes, fabric, partition=partition)


def execute_campaign(job: Job, machine: MachineSpec, *, seed: int,
                     fault_mtbf: dict | None = None,
                     cost_model: CheckpointCostModel | None = None,
                     policy: RecoveryPolicy | str = "restart",
                     tracer: "Tracer | None" = None,
                     max_retries: int = 8,
                     backoff_base: float = 1.0
                     ) -> tuple[ResilienceStats, str]:
    """Run one job's campaign exactly as the service would.

    Module-level so the differential tests can execute the *same* code
    path standalone: same app construction, same
    ``SeedSequence([seed, job_id, attempt])`` fault schedule, same
    runner configuration — only the recovery policy's spare source (and
    therefore timing, never bits) may differ.  Returns the runner stats
    and the final-state snapshot checksum.
    """
    app = job.make_app()
    if tracer is not None and hasattr(app, "tracer"):
        # any campaign that can carry a tracer gets the service's, so
        # every scheduled app lands its spans on the shared timeline
        app.tracer = tracer
    injector = None
    if fault_mtbf:
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, job.job_id, job.attempt]))
        injector = FaultInjector(rng=rng, mtbf=dict(fault_mtbf),
                                 max_target=max(job.nodes, 1))
    comm = None
    if machine.node.interconnect is not None:
        comm = _campaign_comm(job.nodes, machine.node.interconnect)
    runner = ResilientRunner(
        app,
        checkpoint_interval=max(job.checkpoint_interval, 1),
        injector=injector,
        cost_model=cost_model,
        comm=comm,
        policy=policy,
        max_retries=max_retries,
        backoff_base=backoff_base,
        tracer=tracer,
    )
    stats = runner.run(job.nsteps)
    return stats, snapshot_checksum(encode_snapshot(app.snapshot()))


def failure_free_checksum(job: Job) -> str:
    """The job's campaign stepped with no service, faults or runner —
    the ground truth every service execution must match bit for bit."""
    app = job.make_app()
    for _ in range(job.nsteps):
        app.step()
    return snapshot_checksum(encode_snapshot(app.snapshot()))


@dataclass
class ServiceResult:
    """Everything a finished campaign leaves behind."""

    jobs: list[Job]
    slo: SloReport
    metrics: MetricsRegistry
    pool: MachinePool
    requeues: int
    makespan: float

    @property
    def completed(self) -> list[Job]:
        return [j for j in self.jobs if j.state is JobState.COMPLETED]

    @property
    def failed(self) -> list[Job]:
        return [j for j in self.jobs if j.state is JobState.FAILED]

    def render(self) -> str:
        return self.slo.render() + "\n" + self.pool.describe()


@dataclass
class _RunningEntry:
    job: Job
    est_end: float
    recovery_spares: int = 0
    failed: bool = field(default=False)


class CampaignService:
    """Multi-tenant campaign scheduler over one simulated machine pool."""

    def __init__(self, pool: MachinePool, *, seed: int = 0,
                 fault_mtbf: dict | None = None,
                 cost_model: CheckpointCostModel | None = None,
                 recovery: str = "spare",
                 scheduler: EasyBackfillScheduler | None = None,
                 tracer: "Tracer | None" = None,
                 trace_campaigns: bool = False,
                 max_requeues: int = 2,
                 max_retries: int = 8,
                 backoff_base: float = 1.0,
                 requeue_delay: float | None = None) -> None:
        self.pool = pool
        self.seed = int(seed)
        self.fault_mtbf = (
            {FaultKind(k): float(v) for k, v in fault_mtbf.items()}
            if fault_mtbf else None
        )
        self.cost_model = cost_model or CheckpointCostModel(restart_cost=10.0)
        if recovery not in ("restart", "shrink", "spare"):
            raise JobError(f"unknown recovery mode {recovery!r}")
        self.recovery = recovery
        self.scheduler = scheduler or EasyBackfillScheduler()
        self.tracer = tracer
        self.trace_campaigns = trace_campaigns
        if max_requeues < 0:
            raise JobError("max_requeues must be non-negative")
        self.max_requeues = max_requeues
        self.max_retries = max_retries
        if backoff_base < 0:
            raise JobError("backoff_base must be non-negative")
        self.backoff_base = backoff_base
        self.requeue_delay = (requeue_delay if requeue_delay is not None
                              else self.cost_model.restart_cost)

        self.metrics = tracer.metrics if tracer is not None else MetricsRegistry()
        self.now = 0.0
        self.jobs: list[Job] = []
        self.queue: list[Job] = []
        self.running: dict[int, _RunningEntry] = {}
        self.requeues = 0
        self._events: list[tuple[float, int, int, Job]] = []
        self._seq = 0
        self._mtbf = combined_fatal_mtbf(self.fault_mtbf)
        self._snapshot_bytes: dict[str, int] = {}
        self._last_reservation: Reservation | None = None

    # -- submission ----------------------------------------------------------

    def submit(self, jobs: Sequence[Job]) -> None:
        for job in jobs:
            if job.nodes > self.pool.nodes:
                raise JobError(
                    f"job {job.job_id} requests {job.nodes} nodes; the "
                    f"pool has {self.pool.nodes}"
                )
            delta = self.cost_model.write_time(self._template_bytes(job))
            job.walltime_estimate = walltime_estimate(
                job.nsteps, job.est_step_cost, delta, self._mtbf,
                restart_cost=self.cost_model.restart_cost,
            )
            job.checkpoint_interval = checkpoint_interval_steps(
                job.est_step_cost, delta, self._mtbf, nsteps=job.nsteps)
            job.state = JobState.PENDING
            self.jobs.append(job)
            self._push(job.submit_time, _ARRIVAL, job)
            self.metrics.counter("service.jobs_submitted").inc()

    def _template_bytes(self, job: Job) -> int:
        """Estimated checkpoint size for the job's template (probed once
        per template from a seed-0 instance; sizes are seed-independent)."""
        name = job.template.name
        if name not in self._snapshot_bytes:
            probe = job.template.make_app(0)
            self._snapshot_bytes[name] = len(encode_snapshot(probe.snapshot()))
        return self._snapshot_bytes[name]

    # -- the event loop ------------------------------------------------------

    def run(self, jobs: Sequence[Job] | None = None) -> ServiceResult:
        if jobs is not None:
            self.submit(jobs)
        if not self._events:
            raise JobError("nothing submitted")
        tr = self.tracer
        run_idx = None
        if tr is not None:
            run_idx = tr.begin("service.run", ts=self._events[0][0],
                               cat="service", pid="service", tid="engine",
                               njobs=len(self.jobs))
        while self._events:
            t, kind, _, job = heapq.heappop(self._events)
            self.now = max(self.now, t)
            self.pool.spares.now = self.now
            if kind == _COMPLETE:
                self._on_complete(job)
            elif kind == _REQUEUE:
                self._on_requeue(job)
            else:
                self._on_arrival(job)
            self._schedule_cycle()
        self._finalize()
        if run_idx is not None:
            tr.end(run_idx, ts=self.now)
        slo = compute_slo(self.jobs, self.pool, requeues=self.requeues)
        return ServiceResult(jobs=self.jobs, slo=slo, metrics=self.metrics,
                             pool=self.pool, requeues=self.requeues,
                             makespan=slo.makespan)

    def _push(self, t: float, kind: int, job: Job) -> None:
        self._seq += 1
        heapq.heappush(self._events, (t, kind, self._seq, job))

    def _on_arrival(self, job: Job) -> None:
        self.queue.append(job)

    def _on_complete(self, job: Job) -> None:
        entry = self.running.pop(job.job_id)
        self._release_resources(job, entry)
        job.state = JobState.COMPLETED
        job.end_time = self.now
        duration = job.duration or 0.0
        self.scheduler.fairshare.charge(job.tenant, job.nodes * duration,
                                        self.now)
        m = self.metrics
        m.counter("service.jobs_completed").inc()
        m.counter(f"service.tenant_completed[{job.tenant}]").inc()
        m.counter("service.node_seconds_delivered").inc(job.nodes * duration)
        m.histogram("service.queue_wait", QUEUE_WAIT_EDGES).observe(
            job.queue_wait or 0.0)
        tr = self.tracer
        if tr is not None:
            tr.record(f"job.{job.template.name}", job.start_time, duration,
                      cat="service", pid="service",
                      tid=f"tenant:{job.tenant}", job=int(job.job_id),
                      nodes=int(job.nodes), kind=job.start_kind or "",
                      wait=float(job.queue_wait or 0.0))

    def _on_requeue(self, job: Job) -> None:
        entry = self.running.pop(job.job_id)
        self._release_resources(job, entry)
        job.attempt += 1
        job.start_time = None
        job.start_kind = None
        job.borrowed_spares = 0
        if job.attempt > self.max_requeues:
            job.state = JobState.FAILED
            job.end_time = self.now
            self.metrics.counter("service.jobs_failed").inc()
            return
        job.state = JobState.PENDING
        self.requeues += 1
        self.metrics.counter("service.jobs_requeued").inc()
        self.queue.append(job)

    def _release_resources(self, job: Job, entry: _RunningEntry) -> None:
        pool_nodes = job.nodes - job.borrowed_spares
        if pool_nodes > 0:
            self.pool.release(pool_nodes)
        if job.borrowed_spares:
            self.pool.spares.release(job.borrowed_spares, "scheduler-return")
        if entry.recovery_spares:
            self.pool.spares.release(entry.recovery_spares, "recovery-return")

    # -- scheduling ----------------------------------------------------------

    def _running_views(self) -> list[RunningView]:
        return [
            RunningView(e.job.nodes - e.job.borrowed_spares, e.est_end)
            for _, e in sorted(self.running.items())
        ]

    def _schedule_cycle(self) -> None:
        if not self.queue:
            return
        plan = self.scheduler.plan(
            self.queue, self.pool.free_nodes, self._running_views(), self.now,
            spare_available=self.pool.spares.available,
        )
        tr = self.tracer
        if (tr is not None and plan.reservation is not None
                and plan.reservation != self._last_reservation):
            tr.record("sched.reserve", self.now, 0.0, cat="service",
                      pid="service", tid="scheduler",
                      job=int(plan.reservation.job_id),
                      start_at=float(plan.reservation.start_at))
        self._last_reservation = plan.reservation
        for start in plan.starts:
            self._start_job(start)

    def _start_job(self, start: ScheduledStart) -> None:
        job, borrowed = start.job, start.borrowed_spares
        if borrowed:
            granted = self.pool.spares.acquire_many(borrowed, "scheduler")
            if granted < borrowed:
                # a recovery drained the pool inside this same cycle:
                # give back what we got and retry at the next event
                if granted:
                    self.pool.spares.release(granted, "scheduler-return")
                return
            self.metrics.counter("service.spares_borrowed").inc(borrowed)
        if job.nodes - borrowed > 0:
            self.pool.allocate(job.nodes - borrowed)
        self.queue.remove(job)
        job.state = JobState.RUNNING
        job.start_time = self.now
        job.start_kind = start.kind
        job.borrowed_spares = borrowed
        m = self.metrics
        m.counter("service.jobs_started").inc()
        m.counter(f"service.starts[{start.kind}]").inc()
        tr = self.tracer
        if tr is not None:
            tr.record(f"sched.{start.kind}", self.now, 0.0, cat="service",
                      pid="service", tid="scheduler", job=int(job.job_id),
                      tenant=job.tenant, nodes=int(job.nodes),
                      wait=float(self.now - job.submit_time))

        stats, checksum, recovery_spares = self._execute(job)
        if stats is None:
            # the campaign died (retries exhausted): hold the nodes for
            # the relaunch round-trip, then requeue or fail terminally
            est_end = self.now + self.requeue_delay
            self.running[job.job_id] = _RunningEntry(
                job, est_end, recovery_spares, failed=True)
            self._push(est_end, _REQUEUE, job)
            return
        job.stats = stats
        job.result_checksum = checksum
        m.counter("service.recovery_spares_used").inc(recovery_spares)
        self.running[job.job_id] = _RunningEntry(
            job, self.now + job.walltime_estimate, recovery_spares)
        self._push(self.now + stats.wall_clock, _COMPLETE, job)

    def _make_policy(self) -> RecoveryPolicy:
        if self.recovery == "spare":
            # the shared pool: recovery and scheduling contend here
            return make_policy("spare", pool=self.pool.spares)
        return make_policy(self.recovery)

    def _execute(self, job: Job
                 ) -> tuple[ResilienceStats | None, str | None, int]:
        policy = self._make_policy()
        tracer = self.tracer if self.trace_campaigns else None
        try:
            stats, checksum = execute_campaign(
                job, self.pool.machine, seed=self.seed,
                fault_mtbf=self.fault_mtbf, cost_model=self.cost_model,
                policy=policy, tracer=tracer, max_retries=self.max_retries,
                backoff_base=self.backoff_base,
            )
        except ResilienceError:
            return None, None, getattr(policy, "acquired", 0)
        return stats, checksum, getattr(policy, "acquired", 0)

    # -- wrap-up -------------------------------------------------------------

    def _finalize(self) -> None:
        m = self.metrics
        slo = compute_slo(self.jobs, self.pool, requeues=self.requeues)
        m.gauge("service.makespan").set(slo.makespan)
        m.gauge("service.jobs_per_sec").set(slo.jobs_per_sec)
        m.gauge("service.utilization").set(slo.utilization)
        m.gauge("service.p50_queue_wait").set(slo.p50_queue_wait)
        m.gauge("service.p99_queue_wait").set(slo.p99_queue_wait)
        m.gauge("service.spare_denials").set(self.pool.spares.denials)

"""Seeded fault injection: the failure processes exascale campaigns live with.

Frontier-scale reality (and the §2 early-access experience): at 4 096+
nodes the system MTBF is measured in hours, GPUs disappear mid-job,
and links flap.  :class:`FaultInjector` draws those events from
independent exponential inter-arrival distributions (one configurable
MTBF per fault kind) using an *explicit* seeded generator — the schedule
is a pure function of the seed, so a campaign rerun at a different
checkpoint interval sees the exact same failure process (what the
Young/Daly validation needs).

Faults *fire through the real substrates* rather than being abstract
flags: a rank failure marks the rank dead in :class:`~repro.mpisim.comm.SimComm`
(so the next collective raises :class:`~repro.mpisim.comm.RankFailedError`),
and a device OOM reserves the remaining heap of a
:class:`~repro.gpu.device.Device` so the allocator's own
:class:`~repro.gpu.memory.OutOfDeviceMemory` fires.  ``clear`` undoes the
damage — the "replacement node" the scheduler hands back after a restart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.gpu.device import Device
from repro.gpu.memory import Allocation, OutOfDeviceMemory
from repro.mpisim.comm import RankFailedError, SimComm
from repro.resilience.abft import flip_bit


class FaultKind(str, Enum):
    RANK_FAILURE = "rank_failure"
    DEVICE_OOM = "device_oom"
    LINK_DEGRADATION = "link_degradation"
    SDC = "sdc"


#: Kinds that kill the job step (vs. merely slowing it down).  SDC is the
#: insidious non-member: the job keeps running on corrupted data, and only
#: the ABFT checksums (:mod:`repro.resilience.abft`) can turn it fatal.
FATAL_KINDS = frozenset({FaultKind.RANK_FAILURE, FaultKind.DEVICE_OOM})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: absolute simulated time + kind + target."""

    time: float
    kind: FaultKind
    target: int
    #: link_degradation only: throughput divisor and how long it lasts.
    slowdown: float = 1.0
    duration: float = 0.0
    #: sdc only: which bit of the targeted float64 element flips.
    bit: int = -1

    @property
    def fatal(self) -> bool:
        return self.kind in FATAL_KINDS


class SimulatedFault(RuntimeError):
    """A fault fired by the injector; carries the originating event."""

    def __init__(self, event: FaultEvent, message: str) -> None:
        super().__init__(message)
        self.event = event


class RankFailureFault(SimulatedFault):
    pass


class DeviceOomFault(SimulatedFault):
    pass


@dataclass
class FaultInjector:
    """Draws fault events from per-kind exponential MTBF distributions.

    ``mtbf`` maps kind -> mean seconds between events of that kind
    (``float('inf')`` or omission disables a kind).  ``rng`` must be an
    explicitly seeded generator — determinism is load-bearing here, both
    for reproducible campaigns and for comparing checkpoint intervals
    against an identical failure process.

    ``max_target`` bounds the uniform target draw.  For machine-scale
    campaigns set it to ``comm.machine_ranks`` (72,592 on the modelled
    Frontier) so failures land anywhere on the machine, not just on the
    executed exemplars — :func:`repro.resilience.daly.scaled_fault_injector`
    builds exactly that, with the MTBF scaled by true node count.
    """

    rng: np.random.Generator
    mtbf: dict[FaultKind, float] = field(default_factory=dict)
    max_target: int = 4096
    degradation_slowdown: float = 2.0
    degradation_duration_fraction: float = 0.1  # of that kind's MTBF

    def __post_init__(self) -> None:
        if not isinstance(self.rng, np.random.Generator):
            raise TypeError("FaultInjector requires an explicit np.random.Generator")
        self.mtbf = {FaultKind(k): float(v) for k, v in self.mtbf.items()}
        for kind, m in self.mtbf.items():
            if m <= 0:
                raise ValueError(f"MTBF for {kind.value} must be positive")
        self.events_fired: list[FaultEvent] = []
        self.events_drawn: int = 0
        self.events_requeued: int = 0
        self.sdc_injected: list[tuple[FaultEvent, float]] = []
        self._requeued: list[FaultEvent] = []
        self._oom_reservations: list[tuple[Device, list[Allocation]]] = []
        # draw each kind's first arrival in a fixed (enum) order so the
        # schedule depends only on the seed and the mtbf dict contents
        self._next: dict[FaultKind, FaultEvent] = {}
        for kind in FaultKind:
            if np.isfinite(self.mtbf.get(kind, np.inf)):
                self._draw_next(kind, 0.0)

    def _draw_next(self, kind: FaultKind, after: float) -> None:
        gap = float(self.rng.exponential(self.mtbf[kind]))
        target = int(self.rng.integers(self.max_target))
        if kind is FaultKind.LINK_DEGRADATION:
            event = FaultEvent(
                time=after + gap, kind=kind, target=target,
                slowdown=self.degradation_slowdown,
                duration=self.degradation_duration_fraction * self.mtbf[kind],
            )
        elif kind is FaultKind.SDC:
            # the extra bit draw happens only on SDC's own stream slots, so
            # configs without SDC see the exact schedule they always did
            event = FaultEvent(time=after + gap, kind=kind, target=target,
                               bit=int(self.rng.integers(64)))
        else:
            event = FaultEvent(time=after + gap, kind=kind, target=target)
        self._next[kind] = event

    # -- schedule ----------------------------------------------------------

    def peek(self) -> FaultEvent | None:
        """The earliest pending event (requeued or fresh), without
        consuming it."""
        candidates = self._requeued + list(self._next.values())
        if not candidates:
            return None
        return min(candidates, key=lambda e: e.time)

    def pop(self) -> FaultEvent:
        """Consume the earliest pending event.

        Requeued events come back *without* a redraw — they were drawn
        (and counted) exactly once on their first pop.  Fresh events
        redraw their kind's next arrival.  Every popped event must
        subsequently be :meth:`fire`\\ d or :meth:`requeue`\\ d; the
        identity ``events_drawn == len(events_fired) + pending requeued``
        is what :meth:`assert_conserved` checks, so an event silently
        dropped by a caller is an accounting error, not a quiet no-op.
        """
        event = self.peek()
        if event is None:
            raise RuntimeError("no fault kinds enabled")
        for i, e in enumerate(self._requeued):
            if e == event:  # already counted drawn on its first pop
                del self._requeued[i]
                return event
        self.events_drawn += 1
        self._draw_next(event.kind, event.time)
        return event

    def requeue(self, event: FaultEvent) -> None:
        """Put a popped-but-unfired event back on the schedule.

        The escape hatch that makes dropping events impossible: a caller
        that pops an event it cannot handle this step (e.g. a non-fatal
        event landing past a rollback point) must requeue it rather than
        forget it.
        """
        self.events_requeued += 1
        self._requeued.append(event)

    @property
    def events_pending_requeued(self) -> int:
        return len(self._requeued)

    def assert_conserved(self) -> None:
        """Every drawn event must be fired or still requeued.

        Valid whenever all fires go through :meth:`pop` (the runner's
        discipline); hand-constructed events fired directly break the
        identity by design.
        """
        accounted = len(self.events_fired) + len(self._requeued)
        if self.events_drawn != accounted:
            raise AssertionError(
                f"fault-event conservation violated: drawn "
                f"{self.events_drawn}, fired {len(self.events_fired)} + "
                f"requeued-pending {len(self._requeued)} = {accounted}"
            )

    # -- firing through the substrates -------------------------------------

    def fire(self, event: FaultEvent, *, comm: SimComm | None = None,
             device: Device | None = None,
             arrays: list[np.ndarray] | None = None) -> None:
        """Make *event* happen.  Fatal kinds raise a :class:`SimulatedFault`
        after routing the damage through the provided substrates.

        ``arrays`` are the *live* state arrays an SDC event may strike:
        the event's target deterministically selects one array and one
        element, and :func:`~repro.resilience.abft.flip_bit` corrupts it
        in place — silently, which is the whole point.  The injection is
        recorded in ``sdc_injected`` (ground truth), so detection
        coverage is *measured* against what was actually flipped rather
        than assumed.
        """
        self.events_fired.append(event)
        if event.kind is FaultKind.SDC:
            live = [a for a in (arrays or [])
                    if a.dtype == np.float64 and a.size
                    and a.flags["C_CONTIGUOUS"]]
            if live:
                arr = live[event.target % len(live)]
                old = flip_bit(arr, event.target, event.bit)
                self.sdc_injected.append((event, old))
            return
        if event.kind is FaultKind.RANK_FAILURE:
            if comm is not None:
                # modulo the *machine* rank count: on a representative-
                # rank comm the target lands anywhere on the modelled
                # machine (72,592 ranks), not just the R exemplars; on an
                # all-live comm machine_ranks == nranks
                rank = event.target % comm.machine_ranks
                comm.fail_rank(rank)
                try:
                    comm.barrier()  # ULFM-style detection at the next collective
                except RankFailedError as exc:
                    raise RankFailureFault(
                        event, f"rank {rank} failed at t={event.time:.1f}s"
                    ) from exc
                raise AssertionError("dead rank must fail the barrier")
            raise RankFailureFault(
                event, f"rank {event.target} failed at t={event.time:.1f}s"
            )
        if event.kind is FaultKind.DEVICE_OOM:
            if device is not None:
                hog = device.reserve_remaining_memory(tag="fault-injected")
                self._oom_reservations.append((device, hog))
                try:
                    device.malloc(1, tag="oom-canary")
                except OutOfDeviceMemory as exc:
                    raise DeviceOomFault(
                        event,
                        f"device {device.device_id} out of memory at "
                        f"t={event.time:.1f}s",
                    ) from exc
                raise AssertionError("exhausted device must refuse the canary")
            raise DeviceOomFault(
                event, f"device {event.target} out of memory at t={event.time:.1f}s"
            )
        # link degradation is not fatal: the caller slows affected steps
        # down, and a provided communicator degrades its fabric for the
        # window so collectives priced meanwhile see the real bandwidth
        if event.kind is FaultKind.LINK_DEGRADATION and comm is not None:
            comm.degrade_link(event.slowdown, event.duration)

    def clear(self, *, comm: SimComm | None = None,
              device: Device | None = None) -> None:
        """Undo fired damage: revive failed ranks, release OOM pressure."""
        if comm is not None:
            # failed_ranks speaks machine numbering on every communicator
            # (dead modelled ranks included, which the live-index
            # `failed` mask cannot report)
            for rank in comm.failed_ranks():
                comm.restore_rank(rank)
        for dev, allocs in self._oom_reservations:
            if device is not None and dev is not device:
                continue
            for alloc in allocs:
                dev.free(alloc)
        self._oom_reservations = [
            (dev, allocs) for dev, allocs in self._oom_reservations
            if device is not None and dev is not device
        ]

"""Span-based tracing over the reproduction's *simulated* clocks.

Every porting story in the paper leans on timelines; this tracer is the
substrate that lets the simulated MPI fabric, the resilience runner, the
batched solvers and the GPU perf model all write onto one of them.

Design rules, enforced by the property suite and the determinism audit:

* **Timestamps never come from the wall clock.**  A span's ``ts`` is
  either caller-supplied (simulated seconds read off a
  :class:`~repro.mpisim.comm.SimComm` clock, a runner's ``t_sim``, a
  device clock) or drawn from the tracer's deterministic tick counter —
  so two runs of the same seeded workload produce byte-identical traces.
  (A benchmark may pass ``clock=time.perf_counter`` explicitly to build
  a *wall-clock* trace; the import never lives in this package.)
* **Lanes.**  Each span lives on a ``(pid, tid)`` lane — process/thread
  rows in the Perfetto UI (ranks, devices, subsystems).  Nesting is
  per-lane and LIFO: ``begin``/``end`` maintain a stack, and a span's
  ``parent`` is whatever was open on its lane when it began.
* **Observation only.**  Tracing mutates nothing it observes; all
  previously bit-identical guarantees hold with tracing on, which the
  differential tests assert.
* **Zero cost when off.**  Instrumented call sites hold
  ``tracer = None`` and guard with one ``is not None`` test;
  :class:`NullTracer` exists for callers that prefer unconditional calls.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.observability.metrics import MetricsRegistry


class TraceError(ValueError):
    """Structural misuse: negative duration, non-LIFO end, double end."""


@dataclass
class Span:
    """One timed interval on a lane.  ``dur is None`` while still open."""

    name: str
    cat: str
    pid: str
    tid: str
    ts: float
    dur: float | None = None
    args: dict = field(default_factory=dict)
    parent: int | None = None
    index: int = -1

    @property
    def end_ts(self) -> float:
        return self.ts + (self.dur or 0.0)


@dataclass
class Instant:
    """A zero-duration marker (fault fired, SDC detected, ...)."""

    name: str
    cat: str
    pid: str
    tid: str
    ts: float
    args: dict = field(default_factory=dict)


class Tracer:
    """Collects spans, instants and metrics for one run.

    ``clock`` supplies timestamps when the caller does not: the default
    is a deterministic tick counter (+1 per event), which keeps ordinal
    timelines (solver rounds, pipeline phases) reproducible.  Pass an
    explicit callable (e.g. ``time.perf_counter`` from a benchmark) only
    for wall-clock traces.
    """

    is_enabled = True

    def __init__(self, *, clock: Callable[[], float] | None = None) -> None:
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.metrics = MetricsRegistry()
        self._clock = clock
        self._tick = 0.0
        self._stacks: dict[tuple[str, str], list[int]] = {}

    # -- clock -----------------------------------------------------------------

    def now(self) -> float:
        """Next timestamp: the injected clock, or the deterministic tick."""
        if self._clock is not None:
            return float(self._clock())
        self._tick += 1.0
        return self._tick

    # -- spans -----------------------------------------------------------------

    def begin(self, name: str, *, ts: float | None = None, cat: str = "repro",
              pid: str = "repro", tid: str = "main", **args) -> int:
        """Open a span on lane ``(pid, tid)``; returns its handle index."""
        stack = self._stacks.setdefault((pid, tid), [])
        span = Span(
            name=name, cat=cat, pid=pid, tid=tid,
            ts=self.now() if ts is None else float(ts),
            args=dict(args),
            parent=stack[-1] if stack else None,
            index=len(self.spans),
        )
        self.spans.append(span)
        stack.append(span.index)
        return span.index

    def end(self, index: int, *, ts: float | None = None, **args) -> Span:
        """Close the span ``begin`` returned; ends must be LIFO per lane."""
        span = self.spans[index]
        if span.dur is not None:
            raise TraceError(f"span {span.name!r} already ended")
        stack = self._stacks.get((span.pid, span.tid), [])
        if not stack or stack[-1] != index:
            raise TraceError(
                f"non-LIFO end of span {span.name!r} on lane "
                f"({span.pid}, {span.tid})"
            )
        end_ts = self.now() if ts is None else float(ts)
        if end_ts < span.ts:
            raise TraceError(
                f"span {span.name!r} would end at {end_ts} before its "
                f"start {span.ts}"
            )
        stack.pop()
        span.dur = end_ts - span.ts
        span.args.update(args)
        return span

    @contextmanager
    def span(self, name: str, *, cat: str = "repro", pid: str = "repro",
             tid: str = "main", **args) -> Iterator[Span]:
        """``with tracer.span(...) as s:`` — begin/end on the lane stack.
        Mutate ``s.args`` inside the block to attach results."""
        index = self.begin(name, cat=cat, pid=pid, tid=tid, **args)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def record(self, name: str, ts: float, dur: float, *, cat: str = "repro",
               pid: str = "repro", tid: str = "main", **args) -> Span:
        """Record an already-complete span (explicit sim-time interval).

        The natural call for substrates that know an operation's start
        and cost on their own clocks (collectives, checkpoints).  The
        span still nests under whatever ``begin`` left open on its lane.
        """
        if dur < 0:
            raise TraceError(f"span {name!r}: negative duration {dur!r}")
        stack = self._stacks.get((pid, tid), [])
        span = Span(
            name=name, cat=cat, pid=pid, tid=tid, ts=float(ts),
            dur=float(dur), args=dict(args),
            parent=stack[-1] if stack else None,
            index=len(self.spans),
        )
        self.spans.append(span)
        return span

    def instant(self, name: str, *, ts: float | None = None,
                cat: str = "repro", pid: str = "repro", tid: str = "main",
                **args) -> Instant:
        inst = Instant(name=name, cat=cat, pid=pid, tid=tid,
                       ts=self.now() if ts is None else float(ts),
                       args=dict(args))
        self.instants.append(inst)
        return inst

    # -- introspection ---------------------------------------------------------

    def open_spans(self) -> list[Span]:
        """Spans begun but not yet ended (should be empty after a run)."""
        return [s for s in self.spans if s.dur is None]

    def closed_spans(self) -> list[Span]:
        return [s for s in self.spans if s.dur is not None]


class _NullContext:
    """Reusable no-op ``with`` target yielding a shared throwaway span."""

    __slots__ = ("_span",)

    def __init__(self) -> None:
        self._span = Span(name="", cat="", pid="", tid="", ts=0.0, dur=0.0)

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> None:
        return None


class NullTracer:
    """A tracer-shaped black hole: every method is a no-op.

    For call sites that prefer ``tracer.record(...)`` unconditionally
    over ``if tracer is not None`` guards.  Shares the :class:`Tracer`
    surface; records nothing, allocates (almost) nothing.
    """

    is_enabled = False

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.metrics = MetricsRegistry()
        self._null_context = _NullContext()

    def now(self) -> float:
        return 0.0

    def begin(self, name: str, **kw) -> int:
        return -1

    def end(self, index: int, **kw) -> None:
        return None

    def span(self, name: str, **kw) -> _NullContext:
        return self._null_context

    def record(self, name: str, ts: float, dur: float, **kw) -> None:
        return None

    def instant(self, name: str, **kw) -> None:
        return None

    def open_spans(self) -> list[Span]:
        return []

    def closed_spans(self) -> list[Span]:
        return []


#: Shared no-op instance for unconditional call styles.
NULL_TRACER = NullTracer()

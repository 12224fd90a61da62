"""Streams and events: in-order queues with asynchronous host semantics.

The simulated device keeps a clock per stream.  ``launch`` enqueues work
and returns immediately (host time advances only by the launch API cost);
``synchronize`` advances host time to the stream's completion.  Events
record stream timestamps and support cross-stream waits — enough to model
the overlap strategies in §2.2 (NOWAIT), §3.5 (same-stream pipelining) and
the AMReX asynchronous ghost exchange.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass
class Event:
    """A marker in a stream's timeline."""

    event_id: int
    timestamp: float | None = None  # device time when recorded, None until then

    @property
    def recorded(self) -> bool:
        return self.timestamp is not None


class Stream:
    """An in-order execution queue on one device."""

    _ids = itertools.count()

    def __init__(self, clock: "DeviceClock") -> None:
        self.stream_id = next(Stream._ids)
        self._clock = clock
        self.ready_at = 0.0  # device time when all enqueued work completes

    def enqueue(self, duration: float, *, launch_latency: float = 0.0) -> float:
        """Enqueue *duration* seconds of device work; returns completion time.

        Work begins once both the stream is free and the launch command has
        reached the device (host_now + launch_latency).
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        start = max(self.ready_at, self._clock.host_now + launch_latency)
        self.ready_at = start + duration
        return self.ready_at

    def record_event(self, event: Event) -> None:
        event.timestamp = self.ready_at

    def wait_event(self, event: Event) -> None:
        """Stall this stream until *event* has occurred (cross-stream dep)."""
        if not event.recorded:
            raise RuntimeError("waiting on an unrecorded event")
        assert event.timestamp is not None
        self.ready_at = max(self.ready_at, event.timestamp)


class DeviceClock:
    """Shared notion of host time for a set of streams.

    ``host_now`` advances when the host blocks (API call costs,
    synchronizations).  Device streams run ahead asynchronously.
    """

    def __init__(self) -> None:
        self.host_now = 0.0
        self._streams: list[Stream] = []
        self._events: list[Event] = []
        self._event_ids = itertools.count()

    def create_stream(self) -> Stream:
        s = Stream(self)
        self._streams.append(s)
        return s

    def create_event(self) -> Event:
        e = Event(event_id=next(self._event_ids))
        self._events.append(e)
        return e

    def host_busy(self, duration: float) -> None:
        """Host-side work (or API overhead) of *duration* seconds."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self.host_now += duration

    def synchronize_stream(self, stream: Stream) -> None:
        """Block the host until *stream* drains."""
        self.host_now = max(self.host_now, stream.ready_at)

    def synchronize_event(self, event: Event) -> None:
        if not event.recorded:
            raise RuntimeError("synchronizing on an unrecorded event")
        assert event.timestamp is not None
        self.host_now = max(self.host_now, event.timestamp)

    def synchronize_device(self) -> None:
        """Block the host until every stream drains."""
        for s in self._streams:
            self.host_now = max(self.host_now, s.ready_at)

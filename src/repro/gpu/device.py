"""The simulated GPU device: spec + clock + streams + memory, in one object.

This is the execution engine both API layers (:mod:`repro.progmodel.cuda`
and :mod:`repro.progmodel.hip`) delegate to — the analogue of HIP being a
thin header over the underlying runtime, which is what makes Figure 1's
HIP≈CUDA result structural rather than accidental.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.kernel import KernelSpec
from repro.gpu.memory import Allocation, DeviceAllocator
from repro.gpu.perfmodel import KernelTiming, time_kernel
from repro.gpu.stream import DeviceClock, Event, Stream
from repro.gpu.transfer import d2d_time, d2h_time, h2d_time
from repro.hardware.gpu import GPUSpec


@dataclass
class LaunchRecord:
    """Trace entry for one kernel launch."""

    kernel: str
    stream_id: int
    enqueued_at: float
    completes_at: float
    timing: KernelTiming


class Device:
    """One simulated GPU with its own clock, streams, memory and trace."""

    def __init__(self, spec: GPUSpec, *, device_id: int = 0) -> None:
        self.spec = spec
        self.device_id = device_id
        self.clock = DeviceClock()
        self.allocator = DeviceAllocator(int(spec.mem_capacity))
        self.default_stream = self.clock.create_stream()
        self.trace: list[LaunchRecord] = []
        self.kernel_launches = 0
        self.bytes_h2d = 0
        self.bytes_d2h = 0

    # -- memory ------------------------------------------------------------

    def malloc(self, nbytes: int, *, tag: str = "") -> Allocation:
        alloc = self.allocator.malloc(nbytes, tag=tag)
        self.clock.host_busy(self.allocator.alloc_latency)
        return alloc

    def free(self, alloc: Allocation) -> None:
        self.allocator.free(alloc)
        self.clock.host_busy(self.allocator.alloc_latency)

    def reserve_remaining_memory(self, *, tag: str = "reserved") -> list[Allocation]:
        """Exhaust the device heap (fault injection: a leak or a
        neighbouring tenant); ``free`` the returned allocations to recover."""
        allocs = self.allocator.reserve_remaining(tag=tag)
        self.clock.host_busy(self.allocator.alloc_latency)
        return allocs

    # -- transfers ----------------------------------------------------------

    def memcpy_h2d(self, nbytes: int, *, stream: Stream | None = None, sync: bool = True) -> float:
        """Copy host→device; returns the transfer time charged."""
        t = h2d_time(nbytes, self.spec).time
        s = stream or self.default_stream
        s.enqueue(t)
        self.bytes_h2d += nbytes
        if sync:
            self.clock.synchronize_stream(s)
        return t

    def memcpy_d2h(self, nbytes: int, *, stream: Stream | None = None, sync: bool = True) -> float:
        t = d2h_time(nbytes, self.spec).time
        s = stream or self.default_stream
        s.enqueue(t)
        self.bytes_d2h += nbytes
        if sync:
            self.clock.synchronize_stream(s)
        return t

    def memcpy_d2d(self, nbytes: int, *, same_package: bool = False,
                   stream: Stream | None = None, sync: bool = True) -> float:
        """Device-to-device copy (in-package Infinity Fabric when
        ``same_package``, e.g. the two GCDs of one MI250X)."""
        t = d2d_time(nbytes, self.spec, same_package=same_package).time
        s = stream or self.default_stream
        s.enqueue(t)
        if sync:
            self.clock.synchronize_stream(s)
        return t

    def memset(self, nbytes: int, *, stream: Stream | None = None,
               sync: bool = True) -> float:
        """Device memset: a pure-bandwidth write of *nbytes*."""
        if nbytes < 0:
            raise ValueError("memset size must be non-negative")
        t = nbytes / self.spec.effective_bandwidth
        s = stream or self.default_stream
        s.enqueue(t, launch_latency=self.spec.kernel_launch_latency)
        if sync:
            self.clock.synchronize_stream(s)
        return t

    # -- kernels -------------------------------------------------------------

    def launch(self, kernel: KernelSpec, *, stream: Stream | None = None) -> LaunchRecord:
        """Asynchronously launch *kernel*; the host only pays the API cost."""
        s = stream or self.default_stream
        timing = time_kernel(kernel, self.spec)
        enqueued = self.clock.host_now
        completes = s.enqueue(timing.execution_time, launch_latency=timing.launch_latency)
        # Host-side API cost of issuing the launch (a fraction of device latency).
        self.clock.host_busy(0.25 * timing.launch_latency)
        rec = LaunchRecord(
            kernel=kernel.name,
            stream_id=s.stream_id,
            enqueued_at=enqueued,
            completes_at=completes,
            timing=timing,
        )
        self.trace.append(rec)
        self.kernel_launches += kernel.launch_count if kernel.launch_count else 1
        return rec

    def launch_sync(self, kernel: KernelSpec, *, stream: Stream | None = None) -> LaunchRecord:
        """Launch and wait; host time advances past completion."""
        rec = self.launch(kernel, stream=stream)
        self.clock.host_now = max(self.clock.host_now, rec.completes_at)
        return rec

    # -- control -------------------------------------------------------------

    def create_stream(self) -> Stream:
        return self.clock.create_stream()

    def create_event(self) -> Event:
        return self.clock.create_event()

    def synchronize(self) -> None:
        self.clock.synchronize_device()

    @property
    def elapsed(self) -> float:
        """Wall time so far: host clock after all blocking operations."""
        return self.clock.host_now

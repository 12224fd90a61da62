"""Shared GPU runtime API that both the CUDA and HIP facades delegate to.

In reality HIP is a thin portability layer: on NVIDIA targets it is a
header-only shim over the CUDA runtime, and on AMD targets it is the native
ROCm entry point.  We model that structure directly — a single
:class:`GpuRuntime` engine, with :class:`repro.progmodel.cuda.CudaRuntime`
and :class:`repro.progmodel.hip.HipRuntime` exposing vendor-spelled entry
points plus a per-call wrapper overhead.  Figure 1's "HIP ≈ 99.8 % of CUDA"
then follows from the wrapper overhead being small compared with kernel
runtimes, exactly the paper's explanation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.gpu.device import Device
from repro.gpu.kernel import KernelSpec
from repro.gpu.memory import Allocation
from repro.gpu.stream import Event, Stream
from repro.hardware.gpu import GPUSpec


class GpuApiError(RuntimeError):
    """Invalid use of the runtime API (bad handle, wrong device, ...)."""


@dataclass(frozen=True)
class MemHandle:
    """Opaque device-pointer handle returned by ``malloc``."""

    device_id: int
    allocation: Allocation
    nbytes: int


class GpuRuntime:
    """A process-wide view of one node's GPUs, with a current-device cursor.

    ``api_overhead`` is added to host time on every API call; vendor
    facades set it (0 for native CUDA, a small epsilon for HIP's wrapper).
    """

    api_overhead: float = 0.0

    def __init__(self, specs: list[GPUSpec] | GPUSpec, *, count: int | None = None) -> None:
        if isinstance(specs, GPUSpec):
            specs = [specs] * (count or 1)
        if not specs:
            raise GpuApiError("a runtime needs at least one device")
        self.devices = [Device(s, device_id=i) for i, s in enumerate(specs)]
        self._current = 0
        self.api_calls = 0
        self._handles: set[int] = set()
        self._handle_ids = itertools.count()

    # -- bookkeeping ---------------------------------------------------------

    def _tick(self) -> None:
        self.api_calls += 1
        if self.api_overhead:
            self.current_device.clock.host_busy(self.api_overhead)

    @property
    def current_device(self) -> Device:
        return self.devices[self._current]

    # -- device management -----------------------------------------------------

    def set_device(self, device_id: int) -> None:
        if not 0 <= device_id < len(self.devices):
            raise GpuApiError(f"no device {device_id} (have {len(self.devices)})")
        self._current = device_id
        self._tick()

    def get_device(self) -> int:
        self._tick()
        return self._current

    def get_device_count(self) -> int:
        self._tick()
        return len(self.devices)

    # -- memory ------------------------------------------------------------------

    def malloc(self, nbytes: int, *, tag: str = "") -> MemHandle:
        self._tick()
        alloc = self.current_device.malloc(nbytes, tag=tag)
        return MemHandle(device_id=self._current, allocation=alloc, nbytes=nbytes)

    def free(self, handle: MemHandle) -> None:
        self._tick()
        self.devices[handle.device_id].free(handle.allocation)

    def memcpy_h2d(self, handle: MemHandle, nbytes: int | None = None, *,
                   stream: Stream | None = None, sync: bool = True) -> float:
        self._tick()
        n = handle.nbytes if nbytes is None else nbytes
        if n > handle.nbytes:
            raise GpuApiError(f"copy of {n} bytes into a {handle.nbytes}-byte buffer")
        return self.devices[handle.device_id].memcpy_h2d(n, stream=stream, sync=sync)

    def memcpy_d2h(self, handle: MemHandle, nbytes: int | None = None, *,
                   stream: Stream | None = None, sync: bool = True) -> float:
        self._tick()
        n = handle.nbytes if nbytes is None else nbytes
        if n > handle.nbytes:
            raise GpuApiError(f"copy of {n} bytes out of a {handle.nbytes}-byte buffer")
        return self.devices[handle.device_id].memcpy_d2h(n, stream=stream, sync=sync)

    # -- execution ---------------------------------------------------------------

    def launch_kernel(self, kernel: KernelSpec, *, stream: Stream | None = None):
        self._tick()
        return self.current_device.launch(kernel, stream=stream)

    # -- streams & events ------------------------------------------------------

    def stream_create(self) -> Stream:
        self._tick()
        return self.current_device.create_stream()

    def stream_synchronize(self, stream: Stream) -> None:
        self._tick()
        self.current_device.clock.synchronize_stream(stream)

    def event_create(self) -> Event:
        self._tick()
        return self.current_device.create_event()

    def event_record(self, event: Event, stream: Stream | None = None) -> None:
        self._tick()
        s = stream or self.current_device.default_stream
        s.record_event(event)

    def event_synchronize(self, event: Event) -> None:
        self._tick()
        self.current_device.clock.synchronize_event(event)

    def event_elapsed_time(self, start: Event, end: Event) -> float:
        """Elapsed device time between two recorded events, in seconds."""
        self._tick()
        if not (start.recorded and end.recorded):
            raise GpuApiError("both events must be recorded")
        assert start.timestamp is not None and end.timestamp is not None
        return end.timestamp - start.timestamp

    def device_synchronize(self) -> None:
        self._tick()
        self.current_device.synchronize()

    # -- results --------------------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Host wall time on the current device's clock."""
        return self.current_device.elapsed

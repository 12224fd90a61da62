"""CUDA-spelled runtime facade.

Exposes the subset of the CUDA runtime API the paper's applications use,
delegating to :class:`repro.progmodel.api.GpuRuntime`.  Method names follow
the C API so that application "source" written against this facade can be
mechanically translated by :mod:`repro.progmodel.hipify`.
"""

from __future__ import annotations

from repro.gpu.kernel import KernelSpec
from repro.gpu.stream import Event, Stream
from repro.hardware.gpu import V100, GPUSpec, GPUVendor
from repro.progmodel.api import GpuApiError, GpuRuntime, MemHandle


class CudaRuntime(GpuRuntime):
    """The native CUDA runtime on NVIDIA devices: zero wrapper overhead."""

    api_overhead = 0.0

    def __init__(self, specs: list[GPUSpec] | GPUSpec = V100, *, count: int | None = None) -> None:
        super().__init__(specs, count=count)
        for d in self.devices:
            if d.spec.vendor is not GPUVendor.NVIDIA:
                raise GpuApiError(
                    f"CUDA runtime cannot drive {d.spec.name}; use HIP for AMD devices"
                )

    # Device management -------------------------------------------------------
    def cudaSetDevice(self, device_id: int) -> None:  # noqa: N802 (C API names)
        self.set_device(device_id)

    def cudaGetDevice(self) -> int:  # noqa: N802
        return self.get_device()

    def cudaGetDeviceCount(self) -> int:  # noqa: N802
        return self.get_device_count()

    # Memory --------------------------------------------------------------------
    def cudaMalloc(self, nbytes: int, *, tag: str = "") -> MemHandle:  # noqa: N802
        return self.malloc(nbytes, tag=tag)

    def cudaFree(self, handle: MemHandle) -> None:  # noqa: N802
        self.free(handle)

    def cudaMemcpyHostToDevice(self, handle: MemHandle, nbytes: int | None = None) -> float:  # noqa: N802
        return self.memcpy_h2d(handle, nbytes)

    def cudaMemcpyDeviceToHost(self, handle: MemHandle, nbytes: int | None = None) -> float:  # noqa: N802
        return self.memcpy_d2h(handle, nbytes)

    # Execution ------------------------------------------------------------------
    def cudaLaunchKernel(self, kernel: KernelSpec, *, stream: Stream | None = None):  # noqa: N802
        return self.launch_kernel(kernel, stream=stream)

    # Streams & events -----------------------------------------------------------
    def cudaStreamCreate(self) -> Stream:  # noqa: N802
        return self.stream_create()

    def cudaStreamSynchronize(self, stream: Stream) -> None:  # noqa: N802
        self.stream_synchronize(stream)

    def cudaEventCreate(self) -> Event:  # noqa: N802
        return self.event_create()

    def cudaEventRecord(self, event: Event, stream: Stream | None = None) -> None:  # noqa: N802
        self.event_record(event, stream)

    def cudaEventSynchronize(self, event: Event) -> None:  # noqa: N802
        self.event_synchronize(event)

    def cudaEventElapsedTime(self, start: Event, end: Event) -> float:  # noqa: N802
        """Milliseconds, matching the CUDA API convention."""
        return 1e3 * self.event_elapsed_time(start, end)

    def cudaDeviceSynchronize(self) -> None:  # noqa: N802
        self.device_synchronize()

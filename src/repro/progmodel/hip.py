"""HIP-spelled runtime facade.

On AMD devices this is the native entry point; on NVIDIA devices HIP is a
header-only shim over CUDA, so the wrapper overhead is essentially zero and
compiled programs *are* CUDA programs — the structural reason Figure 1
shows HIP within a fraction of a percent of CUDA.

§2.1 also warns that not every (latest) CUDA feature exists in HIP.  The
facade enforces an explicit unsupported-feature list so programs relying on
them fail loudly with the same guidance the COE gave users.
"""

from __future__ import annotations

from repro.gpu.kernel import KernelSpec
from repro.gpu.stream import Event, Stream
from repro.hardware.gpu import MI250X_GCD, GPUSpec, GPUVendor
from repro.progmodel.api import GpuApiError, GpuRuntime, MemHandle


class HipUnsupportedFeature(GpuApiError):
    """A CUDA feature HIP does not replicate (see §2.1)."""


#: CUDA features without a HIP equivalent at the ROCm versions the COE
#: supported, with the guidance message users received.
UNSUPPORTED_CUDA_FEATURES: dict[str, str] = {
    "cudaGraphInstantiate": "CUDA graphs: restructure around streams/events",
    "cudaGraphLaunch": "CUDA graphs: restructure around streams/events",
    "cudaLaunchCooperativeKernel": "grid-wide sync: split the kernel at the sync point",
    "cuTensorMapEncodeTiled": "TMA is Hopper-specific hardware",
    "cudaMemAdvise_ReadMostly": "fine-grained UVM hints: use explicit prefetch",
}


class HipRuntime(GpuRuntime):
    """HIP runtime driving AMD (native) or NVIDIA (header shim) devices."""

    #: Per-call wrapper cost when HIP sits on top of CUDA.  Header-only
    #: inlining makes this tens of nanoseconds; on AMD it is the native
    #: path and also ~0, but early ROCm launch latency is carried in the
    #: GPUSpec itself.
    api_overhead = 5e-8

    def __init__(self, specs: list[GPUSpec] | GPUSpec = MI250X_GCD, *, count: int | None = None) -> None:
        super().__init__(specs, count=count)
        self.backend = (
            "rocm" if self.devices[0].spec.vendor is GPUVendor.AMD else "cuda-shim"
        )

    def require_feature(self, feature: str) -> None:
        """Raise :class:`HipUnsupportedFeature` for unreplicated CUDA features."""
        if feature in UNSUPPORTED_CUDA_FEATURES:
            raise HipUnsupportedFeature(
                f"{feature} is not provided by HIP: {UNSUPPORTED_CUDA_FEATURES[feature]}"
            )

    # Device management -------------------------------------------------------
    def hipSetDevice(self, device_id: int) -> None:  # noqa: N802 (C API names)
        self.set_device(device_id)

    def hipGetDeviceCount(self) -> int:  # noqa: N802
        return self.get_device_count()

    # Memory --------------------------------------------------------------------
    def hipMalloc(self, nbytes: int, *, tag: str = "") -> MemHandle:  # noqa: N802
        return self.malloc(nbytes, tag=tag)

    def hipFree(self, handle: MemHandle) -> None:  # noqa: N802
        self.free(handle)

    def hipMemcpyHostToDevice(self, handle: MemHandle, nbytes: int | None = None) -> float:  # noqa: N802
        return self.memcpy_h2d(handle, nbytes)

    def hipMemcpyDeviceToHost(self, handle: MemHandle, nbytes: int | None = None) -> float:  # noqa: N802
        return self.memcpy_d2h(handle, nbytes)

    # Execution ------------------------------------------------------------------
    def hipLaunchKernel(self, kernel: KernelSpec, *, stream: Stream | None = None):  # noqa: N802
        return self.launch_kernel(kernel, stream=stream)

    # Streams & events -----------------------------------------------------------
    def hipStreamCreate(self) -> Stream:  # noqa: N802
        return self.stream_create()

    def hipStreamSynchronize(self, stream: Stream) -> None:  # noqa: N802
        self.stream_synchronize(stream)

    def hipEventCreate(self) -> Event:  # noqa: N802
        return self.event_create()

    def hipEventRecord(self, event: Event, stream: Stream | None = None) -> None:  # noqa: N802
        self.event_record(event, stream)

    def hipEventSynchronize(self, event: Event) -> None:  # noqa: N802
        self.event_synchronize(event)

    def hipEventElapsedTime(self, start: Event, end: Event) -> float:  # noqa: N802
        """Milliseconds, matching the HIP API convention."""
        return 1e3 * self.event_elapsed_time(start, end)

    def hipDeviceSynchronize(self) -> None:  # noqa: N802
        self.device_synchronize()

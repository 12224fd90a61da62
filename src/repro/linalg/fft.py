"""FFT library substrate (cuFFT / rocFFT analogue).

Real transforms via numpy plus kernel descriptors using the standard
``5 N log2 N`` FLOP model for complex transforms.
"""

from __future__ import annotations

import math

import numpy as np

from repro.gpu.kernel import KernelSpec
from repro.hardware.gpu import Precision


def fft(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Forward complex FFT along one axis."""
    return np.fft.fft(x, axis=axis)


def ifft(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inverse complex FFT along one axis (numpy's 1/N normalization)."""
    return np.fft.ifft(x, axis=axis)


def fft_flops(n: int, batch: int = 1) -> float:
    """FLOPs of *batch* complex length-n transforms: 5 n log2 n each."""
    if n < 1 or batch < 1:
        raise ValueError("n and batch must be positive")
    return 5.0 * n * math.log2(max(n, 2)) * batch


def fft_kernel_spec(n: int, batch: int = 1, *,
                    precision: Precision = Precision.FP64,
                    efficiency: float = 0.35,
                    name: str | None = None) -> KernelSpec:
    """Kernel descriptor for a batched 1-D complex FFT.

    FFTs are memory-bandwidth limited on GPUs; typical achieved compute
    fractions are ~35 % of vector peak, and the traffic term (one read +
    one write of the complex data per pass) usually dominates.
    """
    itemsize = 2 * precision.bytes_per_element
    passes = max(1, int(math.ceil(math.log2(max(n, 2)) / 4)))  # radix-16ish
    return KernelSpec(
        name=name or f"fft1d_{n}x{batch}",
        flops=fft_flops(n, batch) / efficiency,
        bytes_read=float(n * batch * itemsize * passes),
        bytes_written=float(n * batch * itemsize * passes),
        threads=max(n * batch // 4, 64),
        precision=precision,
        registers_per_thread=64,
        lds_per_workgroup=32 * 1024,
        workgroup_size=256,
    )

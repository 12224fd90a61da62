"""Simulated vendor BLAS (cuBLAS / rocBLAS / hipBLAS) with size-tuned kernels.

Two responsibilities:

* **real arithmetic** — ``gemm`` really multiplies (numpy), so application
  substrates built on it are numerically correct;
* **timing** — :class:`TunedGemmLibrary` models §4's central library story:
  GPU math libraries contain "a large collection of problem-size-dependent
  implementations", and sizes the application teams communicated early got
  hand-tuned kernels.  Tuned shapes reach a high fraction of peak; generic
  shapes fall back to a lower efficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.gpu.kernel import KernelSpec
from repro.hardware.gpu import GPUSpec, Precision

#: Fraction of peak a generic (untuned) GEMM shape achieves.
GENERIC_GEMM_EFFICIENCY = 0.60
#: Fraction of peak a vendor-tuned shape achieves (post-§4 co-design).
TUNED_GEMM_EFFICIENCY = 0.90
#: Very small GEMMs are launch/shape limited regardless of tuning.
SMALL_GEMM_EFFICIENCY = 0.20
SMALL_GEMM_THRESHOLD = 128  # max(m, n, k) below this counts as small


def gemm(a: np.ndarray, b: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Real matrix multiply (any real/complex dtype)."""
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ValueError(f"gemm shape mismatch {a.shape} x {b.shape}")
    result = a @ b
    if out is not None:
        np.copyto(out, result)
        return out
    return result


def gemm_flops(m: int, n: int, k: int, *, complex_data: bool = False) -> float:
    """FLOPs of an m×k · k×n multiply (4x multiplies for complex)."""
    base = 2.0 * m * n * k
    return 4.0 * base if complex_data else base


def gemm_kernel_spec(
    m: int,
    n: int,
    k: int,
    *,
    precision: Precision = Precision.FP64,
    complex_data: bool = False,
    efficiency: float = GENERIC_GEMM_EFFICIENCY,
    use_matrix_engine: bool = True,
    name: str | None = None,
) -> KernelSpec:
    """Kernel descriptor for one GEMM call at a given achieved efficiency.

    Efficiency is folded into the FLOP count (``flops / efficiency``) so the
    roofline model yields ``ideal_time / efficiency``.
    """
    if not 0.0 < efficiency <= 1.0:
        raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
    itemsize = precision.bytes_per_element * (2 if complex_data else 1)
    return KernelSpec(
        name=name or f"gemm_{m}x{n}x{k}_{precision.value}",
        flops=gemm_flops(m, n, k, complex_data=complex_data) / efficiency,
        bytes_read=float((m * k + k * n) * itemsize),
        bytes_written=float(m * n * itemsize),
        threads=max(m * n, 64),
        precision=precision,
        uses_matrix_engine=use_matrix_engine,
        registers_per_thread=128,
        lds_per_workgroup=32 * 1024,
        workgroup_size=256,
    )


@dataclass
class TunedGemmLibrary:
    """A vendor GEMM library with a registry of hand-tuned problem sizes."""

    device: GPUSpec
    tuned_shapes: set[tuple[int, int, int]] = field(default_factory=set)
    tuned_hits: int = 0
    generic_hits: int = 0

    def register_tuned_shape(self, m: int, n: int, k: int) -> None:
        """Record a shape communicated to the vendor for tuning (§4)."""
        self.tuned_shapes.add((m, n, k))

    def efficiency_for(self, m: int, n: int, k: int) -> float:
        if max(m, n, k) < SMALL_GEMM_THRESHOLD:
            return SMALL_GEMM_EFFICIENCY
        if (m, n, k) in self.tuned_shapes:
            return TUNED_GEMM_EFFICIENCY
        return GENERIC_GEMM_EFFICIENCY

    def kernel_spec(self, m: int, n: int, k: int, *,
                    precision: Precision = Precision.FP64,
                    complex_data: bool = False,
                    use_matrix_engine: bool = True) -> KernelSpec:
        eff = self.efficiency_for(m, n, k)
        if eff == TUNED_GEMM_EFFICIENCY:
            self.tuned_hits += 1
        else:
            self.generic_hits += 1
        return gemm_kernel_spec(
            m, n, k,
            precision=precision,
            complex_data=complex_data,
            efficiency=eff,
            use_matrix_engine=use_matrix_engine,
        )

    def time(self, m: int, n: int, k: int, **kw) -> float:
        """Synchronous wall time of one GEMM on this device."""
        from repro.gpu.perfmodel import time_kernel

        return time_kernel(self.kernel_spec(m, n, k, **kw), self.device).total_time


def batched_gemm_kernel_spec(
    batch: int, m: int, n: int, k: int, *,
    precision: Precision = Precision.FP64,
    complex_data: bool = False,
    efficiency: float | None = None,
) -> KernelSpec:
    """One launch computing *batch* independent GEMMs (MAGMA-style).

    Batching rescues small shapes: efficiency is computed for the
    *aggregate* problem, so many tiny GEMMs in one launch behave like one
    large one — the PeleLM(eX) + MAGMA strategy (§3.8).
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if efficiency is None:
        eff_m = int(round(m * math.sqrt(batch)))
        efficiency = (
            SMALL_GEMM_EFFICIENCY
            if max(eff_m, n, k) < SMALL_GEMM_THRESHOLD
            else GENERIC_GEMM_EFFICIENCY
        )
    single = gemm_kernel_spec(
        m, n, k, precision=precision, complex_data=complex_data, efficiency=efficiency,
        name=f"batched_gemm_{batch}x{m}x{n}x{k}",
    )
    return single.scaled(batch, name=single.name)

"""Vendor math-library substrates: BLAS, dense solvers, batched ops, FFT."""

from repro.linalg.batched import (
    BatchedLU,
    batched_lu_factor,
    batched_lu_kernel_spec,
    batched_lu_solve,
    batched_lu_solve_factored,
)
from repro.linalg.blas import (
    GENERIC_GEMM_EFFICIENCY,
    SMALL_GEMM_EFFICIENCY,
    SMALL_GEMM_THRESHOLD,
    TUNED_GEMM_EFFICIENCY,
    TunedGemmLibrary,
    batched_gemm_kernel_spec,
    gemm,
    gemm_flops,
    gemm_kernel_spec,
)
from repro.linalg.fft import fft, fft_flops, fft_kernel_spec, ifft
from repro.linalg.solver import (
    LUFactorization,
    getrf,
    getrf_flops,
    getrs,
    getrs_flops,
    invert_first_block_lu,
    solver_kernel_spec,
    zblock_lu,
    zblock_lu_flops,
)

__all__ = [
    "BatchedLU",
    "GENERIC_GEMM_EFFICIENCY",
    "LUFactorization",
    "SMALL_GEMM_EFFICIENCY",
    "SMALL_GEMM_THRESHOLD",
    "TUNED_GEMM_EFFICIENCY",
    "TunedGemmLibrary",
    "batched_gemm_kernel_spec",
    "batched_lu_factor",
    "batched_lu_kernel_spec",
    "batched_lu_solve",
    "batched_lu_solve_factored",
    "fft",
    "fft_flops",
    "fft_kernel_spec",
    "gemm",
    "gemm_flops",
    "gemm_kernel_spec",
    "getrf",
    "getrf_flops",
    "getrs",
    "getrs_flops",
    "ifft",
    "invert_first_block_lu",
    "solver_kernel_spec",
    "zblock_lu",
    "zblock_lu_flops",
]

"""MAGMA-style batched dense operations (PeleLM(eX)'s chemistry path, §3.8).

Real math over stacks of small matrices plus aggregate kernel descriptors.
The factor/solve path optionally carries Huang–Abraham row-sum checksums
(:mod:`repro.resilience.abft`): ``P·A·e = L·(U·e)`` is verified after
every factorization and solves are residual-checked against the original
matrices, so a bit flip in the held factors — the LU-reuse caches live
across many Newton iterations, plenty of time to take a hit — surfaces
as :class:`~repro.resilience.abft.SdcDetected` instead of a silently
wrong trajectory.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.kernel import KernelSpec
from repro.hardware.gpu import Precision
from repro.linalg.solver import getrf_flops, getrs_flops
from repro.resilience.abft import (
    AbftReport,
    lu_checksum,
    verify_lu,
    verify_solve,
)


def batched_lu_factor(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-pivoted LU of a stack of small square systems (getrf_batched).

    Vectorizes over the batch: the elimination loop runs over the (small)
    matrix dimension only, every operation inside it touching all batch
    entries at once — the MAGMA batched-factorization structure the Pele
    chemistry path reuses across Newton iterations and steps.

    Returns ``(lu, piv)``: the packed L\\U factors (unit lower diagonal
    implicit) and the pivot row chosen at each elimination column.
    """
    lu = np.array(mats, dtype=float, copy=True)
    if lu.ndim != 3 or lu.shape[1] != lu.shape[2]:
        raise ValueError(f"expected (batch, n, n) matrices, got {lu.shape}")
    b, n, _ = lu.shape
    piv = np.empty((b, n), dtype=np.intp)
    rows = np.arange(b)
    for k in range(n):
        p = k + np.argmax(np.abs(lu[:, k:, k]), axis=1)
        piv[:, k] = p
        tmp = lu[rows, k, :].copy()
        lu[rows, k, :] = lu[rows, p, :]
        lu[rows, p, :] = tmp
        pivot = lu[:, k, k]
        safe = np.where(np.abs(pivot) > 0.0, pivot, 1.0)
        lu[:, k + 1:, k] /= safe[:, None]
        lu[:, k + 1:, k + 1:] -= lu[:, k + 1:, k, None] * lu[:, k, None, k + 1:]
    return lu, piv


def batched_lu_solve_factored(lu: np.ndarray, piv: np.ndarray,
                              rhs: np.ndarray) -> np.ndarray:
    """Solve with factors from :func:`batched_lu_factor` (getrs_batched).

    ``rhs``: (batch, n) or (batch, n, nrhs); triangular sweeps run over the
    matrix dimension with the whole batch advanced per sweep.
    """
    b, n, _ = lu.shape
    x = np.array(rhs, dtype=float, copy=True)
    vector_rhs = x.ndim == 2
    if vector_rhs:
        x = x[..., None]
    if x.shape[:2] != (b, n):
        raise ValueError(f"rhs shape {rhs.shape} does not match factors {lu.shape}")
    rows = np.arange(b)
    for k in range(n):
        p = piv[:, k]
        tmp = x[rows, k, :].copy()
        x[rows, k, :] = x[rows, p, :]
        x[rows, p, :] = tmp
    for k in range(1, n):  # forward: L has unit diagonal
        x[:, k, :] -= np.einsum("bj,bjm->bm", lu[:, k, :k], x[:, :k, :])
    for k in range(n - 1, -1, -1):  # backward
        if k + 1 < n:
            x[:, k, :] -= np.einsum("bj,bjm->bm", lu[:, k, k + 1:], x[:, k + 1:, :])
        x[:, k, :] /= lu[:, k, k, None]
    return x[..., 0] if vector_rhs else x


def batched_lu_factor_checked(mats: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`batched_lu_factor` with the Huang–Abraham invariant verified.

    The checksum ``A·e`` is taken before elimination; after it,
    ``L·(U·e)`` must reproduce the permuted checksum to within roundoff.
    Raises :class:`~repro.resilience.abft.SdcDetected` when the factors
    came out corrupted.
    """
    mats = np.asarray(mats, dtype=float)
    checksum = lu_checksum(mats)
    lu, piv = batched_lu_factor(mats)
    verify_lu(lu, piv, checksum)
    return lu, piv


class BatchedLU:
    """A held batched factorization: factor once, solve many times.

    The CVODE/MAGMA reuse pattern — the Newton matrix is factored when the
    Jacobian (or gamma) changes and the factors serve every subsequent
    modified-Newton iteration.  ``select`` solves for a subset of the batch
    (converged cells freeze while stiff cells keep iterating).

    With ``abft=True`` the factorization is checksum-verified, the held
    factors can be re-audited at any time (:meth:`verify` — the factors
    outlive many solves, so corruption-while-held is the realistic SDC
    window), and every solve is residual-checked against the original
    matrices at O(n²) per cell next to the O(n³) factorization.
    """

    def __init__(self, mats: np.ndarray, *, abft: bool = False) -> None:
        mats = np.asarray(mats, dtype=float)
        self.abft = abft
        self._mats = np.array(mats, copy=True) if abft else None
        self._checksum = lu_checksum(mats) if abft else None
        self.lu, self.piv = batched_lu_factor(mats)
        if abft:
            verify_lu(self.lu, self.piv, self._checksum)

    @property
    def batch(self) -> int:
        return self.lu.shape[0]

    def verify(self) -> AbftReport:
        """Re-audit the held factors against their stored checksum."""
        if not self.abft:
            raise ValueError("factorization was not built with abft=True")
        return verify_lu(self.lu, self.piv, self._checksum)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = batched_lu_solve_factored(self.lu, self.piv, rhs)
        if self.abft:
            verify_solve(self._mats, x, np.asarray(rhs, dtype=float))
        return x

    def solve_subset(self, idx: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        x = batched_lu_solve_factored(self.lu[idx], self.piv[idx], rhs)
        if self.abft:
            verify_solve(self._mats[idx], x, np.asarray(rhs, dtype=float))
        return x

    def update(self, idx: np.ndarray, mats: np.ndarray) -> None:
        """Refactor only the systems in *idx* (fresh Jacobians)."""
        mats = np.asarray(mats, dtype=float)
        lu, piv = batched_lu_factor(mats)
        self.lu[idx] = lu
        self.piv[idx] = piv
        if self.abft:
            self._mats[idx] = mats
            self._checksum[idx] = lu_checksum(mats)
            verify_lu(lu, piv, self._checksum[idx])


def batched_lu_solve(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``mats[i] @ x[i] = rhs[i]`` for a stack of square systems.

    ``mats``: (batch, n, n); ``rhs``: (batch, n) or (batch, n, nrhs).
    """
    mats = np.asarray(mats)
    rhs = np.asarray(rhs)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"expected (batch, n, n) matrices, got {mats.shape}")
    if rhs.shape[0] != mats.shape[0] or rhs.shape[1] != mats.shape[1]:
        raise ValueError(f"rhs shape {rhs.shape} does not match {mats.shape}")
    if rhs.ndim == 2:
        # (batch, n) would be read as an (n, nrhs) matrix by the gufunc
        return np.linalg.solve(mats, rhs[..., None])[..., 0]
    return np.linalg.solve(mats, rhs)


def batched_lu_kernel_spec(batch: int, n: int, nrhs: int = 1, *,
                           precision: Precision = Precision.FP64,
                           complex_data: bool = False,
                           abft: bool = False,
                           efficiency: float | None = None) -> KernelSpec:
    """One launch factorizing and solving *batch* n×n systems.

    Batching amortizes launch overhead and fills the device: efficiency
    grows with total work, saturating at the dense-solver ceiling (0.5).

    ``abft=True`` folds in the Huang–Abraham ride-along: the checksum
    column ``A·e`` is eliminated alongside the matrix (one extra column,
    ~3n² flops per cell next to the O(n³) elimination) and solves are
    checked in checksum space (``(eᵀA)·x`` vs ``eᵀb``, O(n) per rhs).
    The factors never need a second pass — only the checksum vectors
    move — so the overhead ratio shrinks with n, which is why the gate
    in the benchmarks runs at production block sizes, not toy ones.
    """
    if batch < 1 or n < 1:
        raise ValueError("batch and n must be positive")
    flops = batch * (getrf_flops(n, complex_data=complex_data)
                     + getrs_flops(n, nrhs, complex_data=complex_data))
    if abft:
        # checksum build (n²), augmented-column elimination + fused
        # L·(U·e) comparison (2n²), checksum-space solve check (4n/rhs)
        flops += batch * (3.0 * n * n + 4.0 * n * nrhs)
    if efficiency is None:
        # tiny batches leave the device idle; ramp to 0.5 by ~10^8 flops
        efficiency = min(0.5, max(0.05, 0.5 * flops / 1e8))
    itemsize = precision.bytes_per_element * (2 if complex_data else 1)
    # the checksum columns ride along; the factors are never re-read
    abft_bytes = float(batch * (2 * n + n * nrhs) * itemsize) if abft else 0.0
    return KernelSpec(
        name=f"batched_lu_{batch}x{n}" + ("_abft" if abft else ""),
        flops=flops / efficiency,
        bytes_read=float(batch * (n * n + n * nrhs) * itemsize) + abft_bytes,
        bytes_written=float(batch * (n * n + n * nrhs) * itemsize)
        + (float(batch * 2 * n * itemsize) if abft else 0.0),
        threads=max(batch * n, 64),
        precision=precision,
        registers_per_thread=128,
        workgroup_size=256,
    )

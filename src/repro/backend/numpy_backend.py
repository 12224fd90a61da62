"""The fused numpy kernels under the batched chemistry integration.

Each kernel is *fused* relative to the path it replaced:

* chemistry rates collapse the generated kernel's ~700 tiny array ops
  per sweep (one per unrolled reaction term) into ~6 whole-batch ops —
  two gathers, two multiplies, one subtract, one GEMM against the net
  stoichiometry matrix;
* the Newton solve path trades the 2n-einsum triangular sweeps for one
  batched inversion per refactorization plus a single matmul per
  iteration.

The bit-exact LU factor/solve lives in :mod:`repro.linalg.batched`;
:class:`NumpyBackend` forwards to it so the SDC-guarded Newton path and
the inverse fast path sit behind one object.  Callers use the
module-level :data:`NUMPY` instance.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ChemRateTables, FusedRatesKernel
from repro.linalg.batched import batched_lu_factor, batched_lu_solve_factored


class _NumpyRates(FusedRatesKernel):
    def __init__(self, tables: ChemRateTables) -> None:
        super().__init__(tables)
        self._any_reverse = bool(tables.has_reverse.any())

    def wdot(self, kf: np.ndarray, kr: np.ndarray,
             C: np.ndarray) -> np.ndarray:
        """Production rates for ``C`` (..., n_species) under ``(kf, kr)``.

        Leading axes of ``C`` beyond the ones ``kf`` carries must
        broadcast (the batched FD Jacobian stacks perturbed copies of the
        whole field in front).
        """
        t = self.tables
        # dummy-species column: padded gather indices hit a constant 1.0
        C1 = np.concatenate(
            [C, np.ones(C.shape[:-1] + (1,), dtype=C.dtype)], axis=-1)
        q = kf * C1[..., t.fwd_idx[:, 0]]
        for col in range(1, t.fwd_idx.shape[1]):
            q = q * C1[..., t.fwd_idx[:, col]]
        if self._any_reverse:
            qr = kr * C1[..., t.rev_idx[:, 0]]
            for col in range(1, t.rev_idx.shape[1]):
                qr = qr * C1[..., t.rev_idx[:, col]]
            q = q - qr
        return q @ t.net


class NumpyBackend:
    """Batched Newton factor/solve kernels and the fused rates kernel."""

    def lu_factor(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row-pivoted LU of a (batch, n, n) stack → ``(lu, piv)``."""
        return batched_lu_factor(mats)

    def lu_solve(self, lu: np.ndarray, piv: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
        """Solve with held factors; ``rhs`` (batch, n) or (batch, n, k)."""
        return batched_lu_solve_factored(lu, piv, rhs)

    def inv(self, mats: np.ndarray) -> np.ndarray:
        """Explicit batched inverse (batch, n, n) → (batch, n, n).

        The Newton fast path trades one inversion per refactorization for
        matmul-only iterations — the fuse-the-solve move; modified Newton
        is self-correcting, so the residual envelope difference versus a
        triangular solve is absorbed by the iteration it feeds.
        """
        return np.linalg.inv(mats)

    def inv_apply(self, inv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """``x[i] = inv[i] @ rhs[i]`` — one fused batched matmul."""
        return np.matmul(inv, rhs[..., None])[..., 0]

    def rates_kernel(self, tables: ChemRateTables) -> _NumpyRates:
        """A fused ω̇ evaluator for one mechanism."""
        return _NumpyRates(tables)


#: The one instance every caller uses.
NUMPY = NumpyBackend()

"""The numpy reference backend: always available, defines the semantics.

Every kernel here is *fused* relative to the paths it replaced:

* chemistry rates collapse the generated kernel's ~700 tiny array ops
  per sweep (one per unrolled reaction term) into ~6 whole-batch ops —
  two gathers, two multiplies, one subtract, one GEMM against the net
  stoichiometry matrix;
* the Newton solve path trades the 2n-einsum triangular sweeps for one
  batched inversion per refactorization plus a single matmul per
  iteration;
* the popcount tallies exploit the tensors' permutation symmetry: the 2-way
  sweep covers the upper triangle of the (n·S)×(n·S) row-pair matrix in
  row blocks and mirrors each block, and the 3-way sweep loops a pivot
  vector i over the simplex j, k ≥ i (all S³ state triples in one
  broadcast) and scatters the three index rotations that put i first.

The bit-exact LU factor/solve reference lives in
:mod:`repro.linalg.batched`; this backend re-exports it so alternate
backends have a single semantic anchor.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import erfc

from repro.backend.base import ArrayBackend, ChemRateTables, FusedRatesKernel

# -- popcount primitives (shared with repro.similarity.gemmtally) -----------

#: Byte-popcount lookup, built once at import (never per engine instance).
POP8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)
#: 16-bit popcount lookup for compiled backends (4 lookups per uint64).
POP16 = (POP8[np.arange(1 << 16) & 0xFF]
         + POP8[np.arange(1 << 16) >> 8]).astype(np.uint8)

if hasattr(np, "bitwise_count"):  # numpy >= 2.0: the hardware popcount
    def popcount_words(words: np.ndarray) -> np.ndarray:
        return np.bitwise_count(words)
else:  # pragma: no cover - exercised only on numpy 1.x
    def popcount_words(words: np.ndarray) -> np.ndarray:
        return POP8[words.view(np.uint8)].reshape(*words.shape, 8).sum(axis=-1)


#: Element budget of one AND/popcount temporary in the tally kernels
#: (2 MiB of uint64 words): large enough to amortise the numpy call
#: overhead, small enough to stay cache-resident, and the row blocks it
#: induces are what let the 2-way sweep skip the lower triangle.
_SWEEP_BUDGET = 1 << 18


@lru_cache(maxsize=128)
def triu_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Memoized ``np.triu_indices(n, k=1)`` — campaigns evaluate forces
    for the same particle count thousands of times; callers must treat
    the returned arrays as read-only."""
    return np.triu_indices(n, k=1)


def short_range_pair_magnitude(r: np.ndarray, rs: float, *,
                               G: float = 1.0) -> np.ndarray:
    """erfc-filtered short-range force magnitude for unit masses."""
    return G * (
        erfc(r / (2 * rs)) / r**2
        + np.exp(-(r**2) / (4 * rs**2)) / (rs * np.sqrt(np.pi) * r)
    )


class _NumpyRates(FusedRatesKernel):
    def __init__(self, tables: ChemRateTables) -> None:
        super().__init__(tables)
        self._any_reverse = bool(tables.has_reverse.any())

    def wdot(self, kf: np.ndarray, kr: np.ndarray,
             C: np.ndarray) -> np.ndarray:
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


class NumpyBackend(ArrayBackend):
    """Reference implementation on plain numpy (+ scipy.special)."""

    name = "numpy"

    # -- batched dense linalg ---------------------------------------------

    def lu_factor(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        from repro.linalg.batched import batched_lu_factor

        return batched_lu_factor(mats)

    def lu_solve(self, lu: np.ndarray, piv: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
        from repro.linalg.batched import batched_lu_solve_factored

        return batched_lu_solve_factored(lu, piv, rhs)

    def inv(self, mats: np.ndarray) -> np.ndarray:
        return np.linalg.inv(mats)

    def inv_apply(self, inv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return np.matmul(inv, rhs[..., None])[..., 0]

    # -- fused chemistry rates --------------------------------------------

    def rates_kernel(self, tables: ChemRateTables) -> FusedRatesKernel:
        return _NumpyRates(tables)

    # -- bit-plane popcount tallies ---------------------------------------

    def popcount_tallies_2way(self, words: np.ndarray) -> np.ndarray:
        n, S, W = words.shape
        N = n * S
        flat = words.reshape(N, W)
        counts = np.empty((N, N), dtype=np.int64)
        r0 = 0
        while r0 < N:
            # rows r0:r1 against every row >= r0; the rest is the mirror
            tri = flat[r0:]
            r1 = min(N, r0 + max(1, _SWEEP_BUDGET // (len(tri) * W)))
            rows = flat[r0:r1]
            wb = max(1, _SWEEP_BUDGET // (len(rows) * len(tri)))
            blk = np.zeros((len(rows), len(tri)), dtype=np.int64)
            for w0 in range(0, W, wb):
                blk += popcount_words(
                    rows[:, None, w0:w0 + wb] & tri[None, :, w0:w0 + wb]
                ).sum(axis=-1, dtype=np.int64)
            counts[r0:r1, r0:] = blk
            counts[r0:, r0:r1] = blk.T
            r0 = r1
        return np.ascontiguousarray(
            counts.reshape(n, S, n, S).transpose(1, 3, 0, 2))

    def popcount_tallies_3way(self, words: np.ndarray) -> np.ndarray:
        n, S, W = words.shape
        counts = np.empty((S,) * 3 + (n,) * 3, dtype=np.int64)
        planes = words.transpose(1, 0, 2)  # (S, n, W)
        for i in range(n):
            # T[s, t, u, j, k] for the pivot i and every j, k >= i
            tail = planes[:, i:]
            r = n - i
            pair = tail[:, None, 0, None, :] & tail[None]  # (S, S, r, W)
            jb = max(1, _SWEEP_BUDGET // (S**3 * r * W))
            wb = max(1, _SWEEP_BUDGET // (S**3 * jb * r))
            T = np.zeros((S,) * 3 + (r, r), dtype=np.int64)
            for j0 in range(0, r, jb):
                for w0 in range(0, W, wb):
                    tri = (pair[:, :, None, j0:j0 + jb, None, w0:w0 + wb]
                           & tail[None, None, :, None, :, w0:w0 + wb])
                    T[:, :, :, j0:j0 + jb] += popcount_words(tri).sum(
                        axis=-1, dtype=np.int64)
            # the three rotations of (i, j, k) that put the pivot first
            counts[..., i, i:, i:] = T
            counts[..., i:, i:, i] = T.transpose(1, 2, 0, 3, 4)
            counts[..., i:, i, i:] = T.transpose(2, 0, 1, 4, 3)
        return counts

    # -- pairwise short-range forces --------------------------------------

    def pairwise_forces(self, x: np.ndarray, masses: np.ndarray, *,
                        G: float, rs: float | None = None,
                        cutoff: float | None = None,
                        box_size: float | None = None) -> np.ndarray:
        n = len(x)
        forces = np.zeros_like(x)
        if n < 2:
            return forces
        ii, jj = triu_pairs(n)
        d = x[jj] - x[ii]
        if box_size is not None:
            d -= box_size * np.round(d / box_size)
        r = np.sqrt((d * d).sum(axis=1))
        keep = r > 0.0
        if cutoff is not None:
            keep &= r < cutoff
        ii, jj, d, r = ii[keep], jj[keep], d[keep], r[keep]
        if rs is not None:
            fmag = masses[ii] * masses[jj] * short_range_pair_magnitude(
                r, rs, G=G)
            fvec = (fmag / r)[:, None] * d
        else:
            fvec = (G * masses[ii] * masses[jj] / r**3)[:, None] * d
        np.add.at(forces, ii, fvec)
        np.add.at(forces, jj, -fvec)
        return forces

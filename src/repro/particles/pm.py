"""Particle-mesh gravity with Ewald-style long/short-range splitting.

HACC's structure (§3.4): a long-range force solved spectrally on a mesh
(the code's only external dependency is an FFT library) plus a short-range
direct kernel — the six performance-critical gravity kernels of the paper
are variants of the short-range evaluation.

Splitting: 1/r = erfc(r/2rₛ)/r + erf(r/2rₛ)/r.  The erf part is smooth and
band-limited, solved on the mesh by multiplying the Poisson Green's
function by exp(−k²rₛ²); the erfc part decays fast and is summed directly
within a cutoff (≈5rₛ).  Verified: combined force ≈ Newtonian pair force.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erfc


@dataclass(frozen=True)
class PMGrid:
    """Periodic cubic mesh for the long-range solve."""

    n: int
    box_size: float

    @property
    def cell(self) -> float:
        return self.box_size / self.n


def cic_deposit(x: np.ndarray, masses: np.ndarray, grid: PMGrid) -> np.ndarray:
    """Cloud-in-cell mass deposit onto the mesh (periodic)."""
    n, h = grid.n, grid.cell
    rho = np.zeros((n, n, n))
    u = (x / h) % n
    i0 = np.floor(u).astype(int)
    f = u - i0
    for dx in (0, 1):
        wx = np.where(dx == 0, 1 - f[:, 0], f[:, 0])
        ix = (i0[:, 0] + dx) % n
        for dy in (0, 1):
            wy = np.where(dy == 0, 1 - f[:, 1], f[:, 1])
            iy = (i0[:, 1] + dy) % n
            for dz in (0, 1):
                wz = np.where(dz == 0, 1 - f[:, 2], f[:, 2])
                iz = (i0[:, 2] + dz) % n
                np.add.at(rho, (ix, iy, iz), masses * wx * wy * wz)
    return rho / h**3


def cic_gather(field: np.ndarray, x: np.ndarray, grid: PMGrid) -> np.ndarray:
    """CIC interpolation of a mesh field to particle positions."""
    n, h = grid.n, grid.cell
    u = (x / h) % n
    i0 = np.floor(u).astype(int)
    f = u - i0
    out = np.zeros(len(x))
    for dx in (0, 1):
        wx = np.where(dx == 0, 1 - f[:, 0], f[:, 0])
        ix = (i0[:, 0] + dx) % n
        for dy in (0, 1):
            wy = np.where(dy == 0, 1 - f[:, 1], f[:, 1])
            iy = (i0[:, 1] + dy) % n
            for dz in (0, 1):
                wz = np.where(dz == 0, 1 - f[:, 2], f[:, 2])
                iz = (i0[:, 2] + dz) % n
                out += field[ix, iy, iz] * wx * wy * wz
    return out


def long_range_forces(x: np.ndarray, masses: np.ndarray, grid: PMGrid, *,
                      G: float = 1.0, r_split: float | None = None) -> np.ndarray:
    """Mesh (long-range) force on every particle.

    Solves ∇²φ = 4πGρ with the Gaussian-filtered Green's function
    −4πG exp(−k²rₛ²)/k², takes the spectral gradient, and CIC-gathers.
    """
    n = grid.n
    rs = r_split if r_split is not None else 1.5 * grid.cell
    rho = cic_deposit(x, masses, grid)
    rho_k = np.fft.fftn(rho)
    k1 = 2 * np.pi * np.fft.fftfreq(n, d=grid.cell)
    kx, ky, kz = np.meshgrid(k1, k1, k1, indexing="ij")
    k2 = kx**2 + ky**2 + kz**2
    k2[0, 0, 0] = 1.0
    phi_k = -4 * np.pi * G * rho_k * np.exp(-k2 * rs**2) / k2
    phi_k[0, 0, 0] = 0.0  # remove the mean (Jeans swindle)
    forces = np.empty_like(x)
    for d, kd in enumerate((kx, ky, kz)):
        acc_k = -1j * kd * phi_k  # a = -∇φ
        acc = np.real(np.fft.ifftn(acc_k))
        forces[:, d] = masses * cic_gather(acc, x, grid)
    return forces


def short_range_pair_force(r, rs: float, *, G: float = 1.0):
    """Magnitude of the erfc-filtered short-range force for unit masses.

    Accepts a scalar or an array of separations (the vectorized pair
    kernel evaluates all surviving pairs in one call).
    """
    if np.any(np.asarray(r) <= 0):
        raise ValueError("r must be positive")
    return G * (
        erfc(r / (2 * rs)) / r**2
        + np.exp(-(r**2) / (4 * rs**2)) / (rs * np.sqrt(np.pi) * r)
    )


@lru_cache(maxsize=128)
def triu_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Memoized ``np.triu_indices(n, k=1)`` — campaigns evaluate forces
    for the same particle count thousands of times; callers must treat
    the returned arrays as read-only."""
    return np.triu_indices(n, k=1)


def pairwise_forces(x: np.ndarray, masses: np.ndarray, *, G: float,
                    rs: float | None = None, cutoff: float | None = None,
                    box_size: float | None = None) -> np.ndarray:
    """All i<j pair forces accumulated per particle.

    ``rs`` selects the erfc-filtered short-range kernel (with ``cutoff``
    and minimum-image ``box_size``); ``rs=None`` is the open-boundary
    Newtonian direct sum.  Every pair is evaluated at once on memoized
    triangular indices and scatter-added back.
    """
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
        fmag = masses[ii] * masses[jj] * short_range_pair_force(r, rs, G=G)
        fvec = (fmag / r)[:, None] * d
    else:
        fvec = (G * masses[ii] * masses[jj] / r**3)[:, None] * d
    np.add.at(forces, ii, fvec)
    np.add.at(forces, jj, -fvec)
    return forces


def short_range_forces(x: np.ndarray, masses: np.ndarray, box_size: float, *,
                       rs: float, cutoff: float | None = None,
                       G: float = 1.0, vectorized: bool = True
                       ) -> np.ndarray:
    """Direct short-range sum within the cutoff (minimum image).

    The default path is :func:`pairwise_forces`: every i<j pair at once
    (one erfc sweep over the surviving separations, scatter-added back) —
    the HACC short-range kernel recast as array sweeps.
    ``vectorized=False`` is the original per-pair Python loop, kept as
    the ablation the benchmark measures against.
    """
    cutoff = cutoff if cutoff is not None else 5.0 * rs
    n = len(x)
    if not vectorized:
        forces = np.zeros_like(x)
        for i in range(n):
            for j in range(i + 1, n):
                d = x[j] - x[i]
                d -= box_size * np.round(d / box_size)
                r = float(np.linalg.norm(d))
                if r >= cutoff or r == 0.0:
                    continue
                fmag = masses[i] * masses[j] * short_range_pair_force(r, rs, G=G)
                fvec = fmag * d / r
                forces[i] += fvec
                forces[j] -= fvec
        return forces
    return pairwise_forces(x, masses, G=G, rs=rs, cutoff=cutoff,
                           box_size=box_size)


def p3m_forces(x: np.ndarray, masses: np.ndarray, grid: PMGrid, *,
               G: float = 1.0, r_split: float | None = None,
               vectorized: bool = True) -> np.ndarray:
    """Total gravity: mesh long-range + direct short-range."""
    rs = r_split if r_split is not None else 1.5 * grid.cell
    return (
        long_range_forces(x, masses, grid, G=G, r_split=rs)
        + short_range_forces(x, masses, grid.box_size, rs=rs, G=G,
                             vectorized=vectorized)
    )


def direct_forces(x: np.ndarray, masses: np.ndarray, *, G: float = 1.0,
                  vectorized: bool = True) -> np.ndarray:
    """Open-boundary direct sum (reference for isolated configurations).

    Same :func:`pairwise_forces` sweep as :func:`short_range_forces` (no
    splitting filter, no cutoff);
    ``vectorized=False`` keeps the naive pair loop for ablation.
    """
    n = len(x)
    if not vectorized:
        forces = np.zeros_like(x)
        for i in range(n):
            for j in range(i + 1, n):
                d = x[j] - x[i]
                r = float(np.linalg.norm(d))
                if r == 0.0:
                    continue
                fvec = G * masses[i] * masses[j] * d / r**3
                forces[i] += fvec
                forces[j] -= fvec
        return forces
    return pairwise_forces(x, masses, G=G)

"""1-D compressible Euler solver: the Cholla-class astrophysical hydro.

Section 2.1 cites Cholla's single-header macro strategy for staying in
CUDA while running on AMD.  Cholla itself is a GPU finite-volume Euler
code; this module implements its 1-D core for real — conservative
finite-volume update with HLL fluxes and an ideal-gas EOS — verified on
the Sod shock tube against the exact Riemann solution's plateau states.

The GPU mini-app wrapper (:mod:`repro.apps.cholla`) drives these kernels
through the macro compatibility layer on either vendor's runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IdealGas:
    gamma: float = 1.4

    def pressure(self, rho: np.ndarray, mom: np.ndarray, ener: np.ndarray) -> np.ndarray:
        """p = (γ−1)(E − ½ρu²)."""
        u = mom / rho
        return (self.gamma - 1.0) * (ener - 0.5 * rho * u * u)

    def sound_speed(self, rho: np.ndarray, p: np.ndarray) -> np.ndarray:
        return np.sqrt(self.gamma * np.maximum(p, 1e-300) / rho)


@dataclass
class Euler1D:
    """Conservative state U = (ρ, ρu, E) on a uniform grid with outflow BCs."""

    rho: np.ndarray
    mom: np.ndarray
    ener: np.ndarray
    dx: float
    eos: IdealGas = IdealGas()

    def __post_init__(self) -> None:
        if not (len(self.rho) == len(self.mom) == len(self.ener)):
            raise ValueError("state components must have equal length")
        if self.dx <= 0:
            raise ValueError("dx must be positive")

    @classmethod
    def sod(cls, n: int = 400, *, gamma: float = 1.4) -> "Euler1D":
        """The Sod shock-tube initial condition on [0, 1], interface at 0.5."""
        if n < 10:
            raise ValueError("need at least 10 cells")
        x = (np.arange(n) + 0.5) / n
        rho = np.where(x < 0.5, 1.0, 0.125)
        p = np.where(x < 0.5, 1.0, 0.1)
        mom = np.zeros(n)
        ener = p / (gamma - 1.0)
        return cls(rho=rho, mom=mom, ener=ener, dx=1.0 / n,
                   eos=IdealGas(gamma=gamma))

    # -- physics --------------------------------------------------------------

    def primitive(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        u = self.mom / self.rho
        p = self.eos.pressure(self.rho, self.mom, self.ener)
        return self.rho, u, p

    def _flux(self, rho, mom, ener):
        u = mom / rho
        p = self.eos.pressure(rho, mom, ener)
        return np.stack([mom, mom * u + p, (ener + p) * u])

    def _hll_fluxes(self):
        """HLL flux at each interior face (outflow ghost at the ends)."""
        rho = np.concatenate([[self.rho[0]], self.rho, [self.rho[-1]]])
        mom = np.concatenate([[self.mom[0]], self.mom, [self.mom[-1]]])
        ener = np.concatenate([[self.ener[0]], self.ener, [self.ener[-1]]])
        uL = (rho[:-1], mom[:-1], ener[:-1])
        uR = (rho[1:], mom[1:], ener[1:])
        fL = self._flux(*uL)
        fR = self._flux(*uR)
        vL = mom[:-1] / rho[:-1]
        vR = mom[1:] / rho[1:]
        pL = self.eos.pressure(*uL)
        pR = self.eos.pressure(*uR)
        cL = self.eos.sound_speed(rho[:-1], pL)
        cR = self.eos.sound_speed(rho[1:], pR)
        sL = np.minimum(vL - cL, vR - cR)
        sR = np.maximum(vL + cL, vR + cR)
        UL = np.stack(uL)
        UR = np.stack(uR)
        with np.errstate(divide="ignore", invalid="ignore"):
            hll = (sR * fL - sL * fR + sL * sR * (UR - UL)) / (sR - sL)
        flux = np.where(sL >= 0, fL, np.where(sR <= 0, fR, hll))
        return flux  # shape (3, n+1)

    def max_wavespeed(self) -> float:
        rho, u, p = self.primitive()
        return float(np.max(np.abs(u) + self.eos.sound_speed(rho, p)))

    def step(self, cfl: float = 0.5) -> float:
        """One first-order Godunov/HLL step; returns the dt taken."""
        if not 0 < cfl <= 1:
            raise ValueError("cfl must be in (0, 1]")
        dt = cfl * self.dx / self.max_wavespeed()
        flux = self._hll_fluxes()
        dfdx = (flux[:, 1:] - flux[:, :-1]) / self.dx
        self.rho -= dt * dfdx[0]
        self.mom -= dt * dfdx[1]
        self.ener -= dt * dfdx[2]
        if np.any(self.rho <= 0):
            raise FloatingPointError("negative density: CFL too aggressive")
        return dt

    def run_until(self, t_end: float, *, cfl: float = 0.5) -> int:
        """Advance to *t_end*; returns the number of steps taken."""
        if t_end <= 0:
            raise ValueError("t_end must be positive")
        t, steps = 0.0, 0
        while t < t_end:
            dt = min(self.step(cfl), t_end - t)
            t += dt
            steps += 1
            if steps > 100_000:
                raise RuntimeError("step limit exceeded")
        return steps

    def total_mass(self) -> float:
        return float(self.rho.sum() * self.dx)


#: Exact Sod solution plateau states at γ=1.4 (Toro, Table 4.2):
#: the star-region pressure and the density on each side of the contact.
SOD_EXACT = {
    "p_star": 0.30313,
    "rho_star_left": 0.42632,
    "rho_star_right": 0.26557,
    "u_star": 0.92745,
}


def sod_plateau_states(solver: Euler1D, *, t: float = 0.2) -> dict[str, float]:
    """Measured star-region states of a Sod run at time *t*.

    Samples the solution just left/right of the contact discontinuity
    (which has moved to x = 0.5 + u*·t).
    """
    rho, u, p = solver.primitive()
    n = len(rho)
    x_contact = 0.5 + SOD_EXACT["u_star"] * t
    i_contact = int(x_contact * n)
    off = max(3, n // 80)
    return {
        "p_star": float(p[i_contact - off]),
        "rho_star_left": float(rho[i_contact - off]),
        "rho_star_right": float(rho[i_contact + off]),
        "u_star": float(u[i_contact - off]),
    }

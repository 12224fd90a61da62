"""Self-consistent field iteration: the LSMS production loop.

LSMS "solv[es] the Schrödinger equation of electrons within a solid using
density functional theory": each SCF iteration computes every atom's
τ-matrix from the current potentials, derives new charge-like moments from
τ, and mixes them into updated potentials until self-consistency.  The
structure (not the full DFT physics) is reproduced: the τ solve is the
real dense-complex computation, the "density" is the trace moment of the
central τ block, and linear mixing drives a fixed-point iteration whose
convergence the tests verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.scattering.kkr import LIZ, make_t_matrices, tau_central_block


@dataclass
class ScfHistory:
    """Per-iteration convergence record."""

    residuals: list[float] = field(default_factory=list)
    moments: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.residuals)


@dataclass
class ScfResult:
    moment: float
    potential_strength: float
    history: ScfHistory
    converged: bool


def density_moment(tau00: np.ndarray) -> float:
    """The density-like scalar extracted from the central τ block.

    Physically the site charge comes from an energy integral over
    Im Tr τ(E); the single-energy stand-in is |Im Tr τ| which inherits the
    right fixed-point structure.
    """
    return float(abs(np.imag(np.trace(tau00))))


def scf_iterate(liz: LIZ, *, target_moment: float = 0.5,
                initial_strength: float = 0.3, mixing: float = 0.4,
                tol: float = 1e-8, max_iter: int = 100,
                method: str = "getrf", seed: int = 0) -> ScfResult:
    """Fixed-point SCF: adjust the t-matrix strength until the density
    moment matches ``target_moment``.

    The map ``strength → moment(strength)`` is smooth and monotone for
    well-conditioned LIZ problems, so linear mixing converges; the tests
    assert geometric residual decay and method-independence of the fixed
    point (getrf vs zblock_lu — the §3.2 solver swap must not change the
    physics).
    """
    if not 0 < mixing <= 1:
        raise ValueError("mixing must be in (0, 1]")
    strength = initial_strength
    history = ScfHistory()
    for _ in range(max_iter):
        t = make_t_matrices(liz, strength=strength, seed=seed)
        tau00 = tau_central_block(liz, t, method=method)
        moment = density_moment(tau00)
        residual = abs(moment - target_moment)
        history.residuals.append(residual)
        history.moments.append(moment)
        if residual < tol:
            return ScfResult(moment=moment, potential_strength=strength,
                             history=history, converged=True)
        # secant-flavoured linear mixing: scale strength toward the target
        if moment <= 0:
            strength *= 2.0
            continue
        proposal = strength * target_moment / moment
        strength = (1 - mixing) * strength + mixing * proposal
    return ScfResult(moment=history.moments[-1], potential_strength=strength,
                     history=history, converged=False)

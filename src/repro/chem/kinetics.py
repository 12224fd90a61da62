"""Production rates and Jacobians for a mechanism (interpreted evaluation).

The two kernels §3.8 says dominate Pele's chemistry: "the computation of
chemical production rates and the chemical Jacobian".  The generated-code
path (:mod:`repro.chem.codegen`) must agree with these reference
implementations exactly.
"""

from __future__ import annotations

import numpy as np

from repro.chem.mechanism import R_UNIV, Mechanism


def production_rates(mech: Mechanism, T: float, conc: np.ndarray) -> np.ndarray:
    """Net molar production rate ω̇ of every species at (T, concentrations)."""
    if conc.shape != (mech.n_species,):
        raise ValueError(f"need {mech.n_species} concentrations, got {conc.shape}")
    wdot = np.zeros(mech.n_species)
    for rx in mech.reactions:
        kf = rx.rate_constant(T)
        rate_f = kf
        for s, nu in rx.reactants.items():
            rate_f *= conc[s] ** nu
        kr = rx.reverse_rate_constant(T)
        rate_r = 0.0
        if kr:
            rate_r = kr
            for s, nu in rx.products.items():
                rate_r *= conc[s] ** nu
        net = rate_f - rate_r
        for s, nu in rx.reactants.items():
            wdot[s] -= nu * net
        for s, nu in rx.products.items():
            wdot[s] += nu * net
    return wdot


def analytic_jacobian(mech: Mechanism, T: float, conc: np.ndarray) -> np.ndarray:
    """∂ω̇/∂C, assembled analytically reaction by reaction.

    This is the kernel whose unrolled generated form spans ~140k lines in
    PeleC (§3.8); here it is the closed-form product-rule assembly.
    """
    n = mech.n_species
    jac = np.zeros((n, n))
    for rx in mech.reactions:
        kf = rx.rate_constant(T)
        kr = rx.reverse_rate_constant(T)
        # d(rate_f)/dC_m = kf * nu_m * C_m^(nu_m - 1) * prod_others
        for m in rx.reactants:
            d = kf
            for s, nu in rx.reactants.items():
                if s == m:
                    d *= nu * conc[s] ** (nu - 1)
                else:
                    d *= conc[s] ** nu
            for s, nu in rx.reactants.items():
                jac[s, m] -= nu * d
            for s, nu in rx.products.items():
                jac[s, m] += nu * d
        if kr:
            for m in rx.products:
                d = kr
                for s, nu in rx.products.items():
                    if s == m:
                        d *= nu * conc[s] ** (nu - 1)
                    else:
                        d *= conc[s] ** nu
                # reverse rate reduces net: signs flip
                for s, nu in rx.reactants.items():
                    jac[s, m] += nu * d
                for s, nu in rx.products.items():
                    jac[s, m] -= nu * d
    return jac


def numerical_jacobian(mech: Mechanism, T: float, conc: np.ndarray,
                       *, eps: float = 1e-7) -> np.ndarray:
    """Finite-difference reference for the analytic Jacobian."""
    n = mech.n_species
    base = production_rates(mech, T, conc)
    jac = np.zeros((n, n))
    for m in range(n):
        dc = eps * max(conc[m], 1e-3)
        cp = conc.copy()
        cp[m] += dc
        jac[:, m] = (production_rates(mech, T, cp) - base) / dc
    return jac


def chemistry_rhs(mech: Mechanism, T: float):
    """An ODE right-hand side ``f(t, C) = ω̇(T, C)`` for the integrators."""

    def rhs(t: float, conc: np.ndarray) -> np.ndarray:
        return production_rates(mech, T, np.maximum(conc, 0.0))

    return rhs


def production_rates_batch(mech: Mechanism, T, conc: np.ndarray) -> np.ndarray:
    """ω̇ for a whole batch of cells at once (the paper's batched-RHS motif).

    ``conc`` has shape (..., batch, n_species); ``T`` is a scalar or a
    (batch,)-shaped per-cell temperature.  Leading axes broadcast, which is
    what lets the batched integrator evaluate all finite-difference
    Jacobian columns of every cell in a single sweep.
    """
    conc = np.asarray(conc, dtype=float)
    if conc.shape[-1] != mech.n_species:
        raise ValueError(
            f"need trailing axis of {mech.n_species} concentrations, got {conc.shape}"
        )
    T = np.asarray(T, dtype=float)
    wdot = np.zeros(np.broadcast_shapes(conc.shape[:-1], T.shape) + conc.shape[-1:])
    for rx in mech.reactions:
        kf = rx.A * T**rx.b * np.exp(-rx.Ea / (R_UNIV * T))
        rate_f = kf * np.ones(conc.shape[:-1])
        for s, nu in rx.reactants.items():
            rate_f = rate_f * conc[..., s] ** nu
        net = rate_f
        if rx.reverse_A:
            kr = rx.reverse_A * T**rx.reverse_b * np.exp(
                -rx.reverse_Ea / (R_UNIV * T)
            )
            rate_r = kr * np.ones(conc.shape[:-1])
            for s, nu in rx.products.items():
                rate_r = rate_r * conc[..., s] ** nu
            net = rate_f - rate_r
        for s, nu in rx.reactants.items():
            wdot[..., s] -= nu * net
        for s, nu in rx.products.items():
            wdot[..., s] += nu * net
    return wdot


def analytic_jacobian_batch(mech: Mechanism, T, conc: np.ndarray) -> np.ndarray:
    """∂ω̇/∂C for a batch of cells: (batch, n, n) from (batch, n) states."""
    conc = np.asarray(conc, dtype=float)
    if conc.ndim != 2 or conc.shape[1] != mech.n_species:
        raise ValueError(
            f"need (batch, {mech.n_species}) concentrations, got {conc.shape}"
        )
    T = np.broadcast_to(np.asarray(T, dtype=float), conc.shape[:1])
    n = mech.n_species
    jac = np.zeros((conc.shape[0], n, n))
    for rx in mech.reactions:
        kf = rx.A * T**rx.b * np.exp(-rx.Ea / (R_UNIV * T))
        for m in rx.reactants:
            d = kf.copy()
            for s, nu in rx.reactants.items():
                if s == m:
                    d *= nu * conc[:, s] ** (nu - 1)
                else:
                    d *= conc[:, s] ** nu
            for s, nu in rx.reactants.items():
                jac[:, s, m] -= nu * d
            for s, nu in rx.products.items():
                jac[:, s, m] += nu * d
        if rx.reverse_A:
            kr = rx.reverse_A * T**rx.reverse_b * np.exp(
                -rx.reverse_Ea / (R_UNIV * T)
            )
            for m in rx.products:
                d = kr.copy()
                for s, nu in rx.products.items():
                    if s == m:
                        d *= nu * conc[:, s] ** (nu - 1)
                    else:
                        d *= conc[:, s] ** nu
                for s, nu in rx.reactants.items():
                    jac[:, s, m] += nu * d
                for s, nu in rx.products.items():
                    jac[:, s, m] -= nu * d
    return jac


def rates_flop_count(mech: Mechanism) -> float:
    """FLOPs of one production-rate evaluation (exp + powers + updates)."""
    flops = 0.0
    for rx in mech.reactions:
        # Arrhenius: exp (≈20 flops) + power (≈10) per direction
        flops += 30.0 * (2 if rx.reverse_A else 1)
        flops += 4.0 * (len(rx.reactants) + len(rx.products))
    return flops


def jacobian_flop_count(mech: Mechanism) -> float:
    """FLOPs of one analytic Jacobian assembly."""
    flops = 0.0
    for rx in mech.reactions:
        nr, npd = len(rx.reactants), len(rx.products)
        flops += 30.0 + nr * (3.0 * nr + 2.0 * (nr + npd))
        if rx.reverse_A:
            flops += 30.0 + npd * (3.0 * npd + 2.0 * (nr + npd))
    return flops

"""Mechanism tables and rate constants for the fused chemistry kernel.

The fused path evaluates the generated kernel's mass-action production
rates from precomputed stoichiometry tables in a handful of whole-batch
array sweeps, instead of one statement per unrolled reaction term — the
launch-overhead pathology §3.8 describes, in numpy form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChemRateTables:
    """Mechanism stoichiometry flattened into arrays.

    The generated-code path (:mod:`repro.chem.codegen`) unrolls every
    reaction into its own source lines; these tables are the same
    information laid out for *data-driven* fused kernels:

    ``fwd_idx``/``rev_idx`` list each reaction's reactant/product species
    with multiplicity (a ν=2 species appears twice), padded with the
    out-of-range index ``n_species`` so a gathered dummy concentration of
    1.0 is a no-op.  ``net`` holds the net stoichiometry as a dense
    matrix, so the scatter back onto species is one GEMM.
    """

    n_species: int
    n_reactions: int
    A: np.ndarray          # (R,) forward Arrhenius prefactor
    b: np.ndarray          # (R,) forward temperature exponent
    Ea: np.ndarray         # (R,) forward activation energy
    rev_A: np.ndarray      # (R,) reverse prefactor (0 = irreversible)
    rev_b: np.ndarray
    rev_Ea: np.ndarray
    has_reverse: np.ndarray  # (R,) bool
    fwd_idx: np.ndarray    # (R, Lf) intp, padded with n_species
    rev_idx: np.ndarray    # (R, Lp) intp, padded with n_species
    net: np.ndarray        # (R, n) float net stoichiometry


class FusedRatesKernel:
    """The temperature-only half of a fused ω̇ evaluator for one mechanism.

    Split in two so the Arrhenius work is paid once per integration (T is
    a parameter of the chemistry advance, not a state variable):
    :meth:`rate_constants` precomputes ``(kf, kr)`` for a temperature
    field, and the subclass's ``wdot`` evaluates production rates for a
    concentration field under those constants.
    """

    def __init__(self, tables: ChemRateTables) -> None:
        self.tables = tables

    def rate_constants(self, T) -> tuple[np.ndarray, np.ndarray]:
        """``(kf, kr)`` with shape ``np.shape(T) + (n_reactions,)``.

        Elementwise identical to the generated kernel's per-reaction
        ``A * T**b * exp(-Ea/(R*T))`` expressions, so fused and unrolled
        paths agree to the last bit on the rate constants.
        """
        from repro.chem.mechanism import R_UNIV

        t = self.tables
        T = np.asarray(T, dtype=float)[..., None]
        kf = t.A * T ** t.b * np.exp(-t.Ea / (R_UNIV * T))
        kr = np.where(
            t.has_reverse,
            t.rev_A * T ** t.rev_b * np.exp(-t.rev_Ea / (R_UNIV * T)),
            0.0,
        )
        return kf, np.broadcast_to(kr, kf.shape)

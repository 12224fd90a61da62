"""Mechanism → :class:`~repro.backend.base.ChemRateTables` flattening.

The generated-code path unrolls a mechanism into source text (one line
per Arrhenius factor, one per stoichiometric update — §3.8's 140k-line
kernels).  The fused path flattens the same mechanism into index/value
tables a data-driven kernel can sweep in O(1) array operations per RHS
evaluation.  Both paths evaluate identical per-reaction expressions;
the parity suite holds them together to roundoff.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ChemRateTables
from repro.chem.mechanism import Mechanism

#: Memoized tables per mechanism identity (same keying as the generated
#: kernel caches: name alone is not enough, fold in the reaction table).
_TABLES_CACHE: dict[tuple, ChemRateTables] = {}


def _fingerprint(mech: Mechanism) -> tuple:
    return (
        mech.name,
        mech.species,
        tuple(
            (
                tuple(sorted(rx.reactants.items())),
                tuple(sorted(rx.products.items())),
                rx.A, rx.b, rx.Ea, rx.reverse_A, rx.reverse_b, rx.reverse_Ea,
            )
            for rx in mech.reactions
        ),
    )


def _multiplicity_rows(sides: list[dict[int, int]], pad: int
                       ) -> np.ndarray:
    """Species-with-multiplicity index rows, padded with *pad*."""
    width = max((sum(side.values()) for side in sides), default=1)
    width = max(width, 1)
    rows = np.full((len(sides), width), pad, dtype=np.intp)
    for r, side in enumerate(sides):
        k = 0
        for s, nu in side.items():
            for _ in range(nu):
                rows[r, k] = s
                k += 1
    return rows


def rate_tables(mech: Mechanism) -> ChemRateTables:
    """Flatten *mech* into fused-kernel tables (memoized per mechanism)."""
    key = _fingerprint(mech)
    cached = _TABLES_CACHE.get(key)
    if cached is not None:
        return cached
    n, R = mech.n_species, mech.n_reactions
    net = np.zeros((R, n))
    for r, rx in enumerate(mech.reactions):
        for s, nu in rx.reactants.items():
            net[r, s] -= nu
        for s, nu in rx.products.items():
            net[r, s] += nu
    tables = ChemRateTables(
        n_species=n,
        n_reactions=R,
        A=np.array([rx.A for rx in mech.reactions]),
        b=np.array([rx.b for rx in mech.reactions]),
        Ea=np.array([rx.Ea for rx in mech.reactions]),
        rev_A=np.array([rx.reverse_A for rx in mech.reactions]),
        rev_b=np.array([rx.reverse_b for rx in mech.reactions]),
        rev_Ea=np.array([rx.reverse_Ea for rx in mech.reactions]),
        has_reverse=np.array([rx.reverse_A != 0.0 for rx in mech.reactions]),
        fwd_idx=_multiplicity_rows([rx.reactants for rx in mech.reactions], n),
        rev_idx=_multiplicity_rows([rx.products for rx in mech.reactions], n),
        net=net,
    )
    _TABLES_CACHE[key] = tables
    return tables

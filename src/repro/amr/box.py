"""Boxes and box arrays: the index-space vocabulary of block-structured AMR.

A :class:`Box` is a rectangular region of cell-centred index space
(AMReX's ``Box``); a :class:`BoxArray` is the disjoint union of boxes that
tiles a level's valid region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """A 3-D cell-centred index box, inclusive on both ends."""

    lo: tuple[int, int, int]
    hi: tuple[int, int, int]

    def __post_init__(self) -> None:
        if any(h < l for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"empty box lo={self.lo} hi={self.hi}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def ncells(self) -> int:
        return int(np.prod(self.shape))

    def grow(self, n: int) -> "Box":
        """The box enlarged by *n* ghost cells on every face."""
        return Box(
            lo=tuple(l - n for l in self.lo),
            hi=tuple(h + n for h in self.hi),
        )

    def intersects(self, other: "Box") -> bool:
        return all(
            self.lo[d] <= other.hi[d] and other.lo[d] <= self.hi[d]
            for d in range(3)
        )

    def intersection(self, other: "Box") -> "Box | None":
        if not self.intersects(other):
            return None
        return Box(
            lo=tuple(max(self.lo[d], other.lo[d]) for d in range(3)),
            hi=tuple(min(self.hi[d], other.hi[d]) for d in range(3)),
        )

    def refine(self, ratio: int) -> "Box":
        """The box in the next-finer index space."""
        if ratio < 1:
            raise ValueError("refinement ratio must be >= 1")
        return Box(
            lo=tuple(l * ratio for l in self.lo),
            hi=tuple((h + 1) * ratio - 1 for h in self.hi),
        )

    def coarsen(self, ratio: int) -> "Box":
        if ratio < 1:
            raise ValueError("refinement ratio must be >= 1")
        return Box(
            lo=tuple(l // ratio for l in self.lo),
            hi=tuple(h // ratio for h in self.hi),
        )


def chop_domain(domain: Box, max_grid_size: int) -> list[Box]:
    """Chop *domain* into boxes no larger than ``max_grid_size`` per side —
    AMReX's ``maxGridSize`` decomposition."""
    if max_grid_size < 1:
        raise ValueError("max_grid_size must be positive")
    boxes: list[Box] = []
    los = [
        range(domain.lo[d], domain.hi[d] + 1, max_grid_size)
        for d in range(3)
    ]
    for i in los[0]:
        for j in los[1]:
            for k in los[2]:
                boxes.append(
                    Box(
                        lo=(i, j, k),
                        hi=(
                            min(i + max_grid_size - 1, domain.hi[0]),
                            min(j + max_grid_size - 1, domain.hi[1]),
                            min(k + max_grid_size - 1, domain.hi[2]),
                        ),
                    )
                )
    return boxes


@dataclass(frozen=True)
class BoxArray:
    """A disjoint collection of boxes tiling a level."""

    boxes: tuple[Box, ...]

    def __post_init__(self) -> None:
        for i, a in enumerate(self.boxes):
            for b in self.boxes[i + 1 :]:
                if a.intersects(b):
                    raise ValueError(f"overlapping boxes {a} and {b}")

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self):
        return iter(self.boxes)

    @property
    def ncells(self) -> int:
        return sum(b.ncells for b in self.boxes)

    @classmethod
    def from_domain(cls, domain: Box, max_grid_size: int) -> "BoxArray":
        return cls(boxes=tuple(chop_domain(domain, max_grid_size)))

    def distribute(self, nranks: int) -> list[int]:
        """Round-robin-by-size distribution map: box index → owning rank.

        Greedy largest-first assignment to the least-loaded rank (the
        knapsack heuristic AMReX's ``DistributionMapping`` uses).
        """
        if nranks < 1:
            raise ValueError("nranks must be positive")
        order = sorted(range(len(self.boxes)), key=lambda i: -self.boxes[i].ncells)
        load = [0] * nranks
        owner = [0] * len(self.boxes)
        for i in order:
            r = load.index(min(load))
            owner[i] = r
            load[r] += self.boxes[i].ncells
        return owner

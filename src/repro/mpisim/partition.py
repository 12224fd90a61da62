"""Rank-class partitioning for representative-rank simulation.

At full-machine scale almost every rank is *structurally identical* to
thousands of others: an interior rank of a 3-D block decomposition sees
the same six-neighbour halo, the same collective fan-ins and the same
per-step compute as every other interior rank.  The scaled execution
mode (:mod:`repro.mpisim.scaled`) exploits that symmetry by executing a
few **representative** ranks concretely and modelling the rest through
their group's clock aggregates.

This module supplies the assignment layer, shaped after nengo_mpi's
``Partitioner`` / ``verify_assignments`` pair: a partitioner produces a
:class:`RankPartition` (disjoint :class:`RankGroup`\\ s covering every
rank, each naming its live representatives), and
:func:`verify_assignments` audits any assignment — hand-built or
generated — before a communicator will accept it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Hashable, Sequence

import numpy as np

from repro.mpisim.decomposition import BlockDecomposition


class PartitionError(ValueError):
    """An assignment of ranks to groups is malformed."""


@dataclass(frozen=True)
class RankGroup:
    """One equivalence class of ranks.

    ``representatives`` are the members executed concretely; the
    remaining members are modelled, each mirroring one representative
    (its *proxy*, assigned round-robin in member order).
    """

    name: str
    members: tuple[int, ...]
    representatives: tuple[int, ...]

    @property
    def modeled_count(self) -> int:
        return len(self.members) - len(self.representatives)

    @cached_property
    def modeled_view(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ranks, positions)``: the modelled members sorted by rank,
        and each one's index among the modelled members in member order
        (its round-robin position, so its proxy is
        ``representatives[position % len(representatives)]``).

        Read-only: one partition's groups are shared by every
        communicator built on it.
        """
        members = np.asarray(self.members, dtype=np.int64)
        modeled = members[~np.isin(members, self.representatives)]
        positions = np.argsort(modeled, kind="stable")
        ranks = modeled[positions]
        ranks.flags.writeable = False
        positions.flags.writeable = False
        return ranks, positions

    def proxy_of(self, rank: int) -> int:
        """Proxy representative of member *rank* (a representative is its
        own proxy): one binary search over :attr:`modeled_view`."""
        ranks, positions = self.modeled_view
        j = int(np.searchsorted(ranks, rank))
        reps = self.representatives
        if j < ranks.size and ranks[j] == rank:
            return reps[int(positions[j]) % len(reps)]
        if rank in reps:
            return rank
        raise KeyError(f"rank {rank} is not a member of group {self.name!r}")

    def proxy_assignment(self) -> dict[int, int]:
        """Proxy representative of each modelled member (round-robin)."""
        ranks, positions = self.modeled_view
        reps = np.asarray(self.representatives, dtype=np.int64)
        return dict(zip(ranks.tolist(), reps[positions % reps.size].tolist()))

    def proxy_counts(self) -> dict[int, int]:
        """Modelled members mirrored by each representative.

        Computed arithmetically from the round-robin assignment — the
        first ``modeled_count % len(reps)`` representatives carry one
        extra mirror — so the per-member dict never materializes.
        """
        base, extra = divmod(self.modeled_count, len(self.representatives))
        return {rep: base + (1 if i < extra else 0)
                for i, rep in enumerate(self.representatives)}


@dataclass(frozen=True)
class RankPartition:
    """A verified grouping of ``nranks`` ranks into equivalence classes."""

    nranks: int
    groups: tuple[RankGroup, ...]

    def __post_init__(self) -> None:
        verify_assignments(self)

    @cached_property
    def live_ranks(self) -> tuple[int, ...]:
        """Every representative, in global rank order."""
        return tuple(sorted(r for g in self.groups for r in g.representatives))

    @cached_property
    def nlive(self) -> int:
        return len(self.live_ranks)

    @cached_property
    def live_index(self) -> dict[int, int]:
        """Global rank -> index into the live arrays."""
        return {r: i for i, r in enumerate(self.live_ranks)}

    @cached_property
    def group_of(self) -> np.ndarray:
        """Group index of every global rank (``(nranks,)`` int array,
        read-only)."""
        out = np.empty(self.nranks, dtype=np.int64)
        for gi, g in enumerate(self.groups):
            out[list(g.members)] = gi
        out.flags.writeable = False
        return out

    @cached_property
    def weights(self) -> np.ndarray:
        """Ranks each live rank stands for (itself + proxied modelled),
        read-only."""
        w = np.ones(self.nlive, dtype=np.int64)
        for g in self.groups:
            for rep, n in g.proxy_counts().items():
                w[self.live_index[rep]] += n
        w.flags.writeable = False
        return w

    @property
    def modeled_count(self) -> int:
        return self.nranks - self.nlive

    def describe(self) -> str:
        rows = ", ".join(
            f"{g.name}[{len(g.members)}|{len(g.representatives)} live]"
            for g in self.groups
        )
        return (f"RankPartition(P={self.nranks}, R={self.nlive}, "
                f"groups={len(self.groups)}: {rows})")


def verify_assignments(partition: RankPartition) -> None:
    """Audit a partition: disjoint coverage, live reps inside their group.

    The checks mirror nengo_mpi's ``verify_assignments`` contract: every
    object (rank) is assigned to exactly one component (group), and the
    assignment is usable by the runtime — here, each group must name at
    least one representative drawn from its own members.
    """
    if partition.nranks < 1:
        raise PartitionError("partition needs at least one rank")
    if not partition.groups:
        raise PartitionError("partition has no groups")
    arrays = []
    for g in partition.groups:
        if not g.members:
            raise PartitionError(f"group {g.name!r} has no members")
        if not g.representatives:
            raise PartitionError(f"group {g.name!r} has no representatives")
        members = np.asarray(g.members, dtype=np.int64)
        if members.min() < 0 or members.max() >= partition.nranks:
            raise PartitionError(
                f"group {g.name!r} has out-of-range ranks "
                f"(nranks={partition.nranks})")
        # strictly-increasing members (what the builders emit) are
        # duplicate-free by inspection; only unsorted hand-built groups
        # pay for a full unique pass
        if (not (np.diff(members) > 0).all()
                and np.unique(members).size != members.size):
            raise PartitionError(f"group {g.name!r} repeats a member")
        if not np.isin(np.asarray(g.representatives, dtype=np.int64),
                       members).all():
            raise PartitionError(
                f"group {g.name!r} names representatives outside its members")
        arrays.append(members)
    seen = np.bincount(np.concatenate(arrays), minlength=partition.nranks)
    uncovered = np.flatnonzero(seen == 0)
    if uncovered.size:
        raise PartitionError(
            f"ranks not assigned to any group: {uncovered[:8].tolist()}...")
    doubled = np.flatnonzero(seen > 1)
    if doubled.size:
        raise PartitionError(
            f"ranks assigned to multiple groups: {doubled[:8].tolist()}...")


def all_live_partition(nranks: int) -> RankPartition:
    """The degenerate partition: every rank is its own representative.

    A :class:`~repro.mpisim.scaled.ScaledComm` built on it reproduces
    :class:`~repro.mpisim.comm.SimComm` bit for bit (``R = P``).
    """
    ranks = tuple(range(nranks))
    return RankPartition(nranks=nranks,
                         groups=(RankGroup("all", ranks, ranks),))


def partition_from_labels(labels: Sequence[Hashable], *,
                          live_per_group: int = 1) -> RankPartition:
    """Group ranks by an arbitrary per-rank label.

    The workhorse for workload-derived classes — e.g. GAMESS MBE ranks
    labelled by their task count (``base`` vs ``base+1`` under the
    balanced block distribution).  The lowest ``live_per_group`` ranks
    of each class become its representatives.
    """
    if live_per_group < 1:
        raise PartitionError("live_per_group must be >= 1")
    arr = np.asarray(labels)
    if arr.ndim == 1 and arr.dtype != object:
        # vectorized grouping: sort ranks by class code, slice per class.
        # This path is what keeps partition construction out of the
        # representative-rank sweep's critical cost (P can be ~10^5).
        uniq, codes = np.unique(arr, return_inverse=True)
        counts = np.bincount(codes, minlength=uniq.size)
        by_code = np.argsort(codes, kind="stable")
        starts = np.concatenate(([0], np.cumsum(counts)))
        return _partition_of_classes(
            arr.size, [(str(u), by_code[starts[gi]:starts[gi + 1]])
                       for gi, u in enumerate(uniq)], live_per_group)
    by_label: dict[Hashable, list[int]] = {}
    for rank, lab in enumerate(labels):
        by_label.setdefault(lab, []).append(rank)
    return _partition_of_classes(
        len(labels), [(str(lab), np.asarray(members, dtype=np.int64))
                      for lab, members in by_label.items()], live_per_group)


def _partition_of_classes(nranks: int,
                          classes: Sequence[tuple[str, np.ndarray]],
                          live_per_group: int) -> RankPartition:
    """One group per ``(name, ranks)`` class, ordered by name (stable),
    members in rank order, the lowest ``live_per_group`` of them its
    representatives."""
    groups = []
    for name, ranks in sorted(classes, key=lambda kv: kv[0]):
        members = tuple(ranks.tolist())
        groups.append(RankGroup(name, members, members[:live_per_group]))
    return RankPartition(nranks=nranks, groups=tuple(groups))


@dataclass(frozen=True)
class RankGroupPartitioner:
    """Classify ranks into structural equivalence classes.

    Strategies:

    * ``"block3d"`` — requires a :class:`BlockDecomposition`; classes are
      the boundary classes of the process grid (corner / edge / face /
      interior per axis), the Pele/HACC halo symmetry;
    * ``"node-role"`` — classes from node position (first / interior /
      last node) x on-node role (leader / follower), the right shape for
      collective-dominated apps;
    * ``"endpoints"`` — just {rank 0} / {last rank} / {interior}, the
      minimal 1-D ring classification;
    * ``"auto"`` — ``block3d`` when a decomposition is supplied, else
      ``node-role`` when ``ranks_per_node > 1``, else ``endpoints``.
    """

    strategy: str = "auto"
    live_per_group: int = 1

    def __post_init__(self) -> None:
        known = ("auto", "block3d", "node-role", "endpoints")
        if self.strategy not in known:
            raise PartitionError(
                f"unknown strategy {self.strategy!r}; known: {known}")
        if self.live_per_group < 1:
            raise PartitionError("live_per_group must be >= 1")

    def partition(self, nranks: int, *,
                  decomposition: BlockDecomposition | None = None,
                  ranks_per_node: int = 1) -> RankPartition:
        """The verified partition of *nranks* ranks.

        Built once per machine shape and shared: every communicator of a
        sweep over one machine reads the same (immutable) partition.
        """
        return _partition_for_shape(self, int(nranks), decomposition,
                                    int(ranks_per_node))

    def _build(self, nranks: int, decomposition: BlockDecomposition | None,
               ranks_per_node: int) -> RankPartition:
        if nranks < 1:
            raise PartitionError("need at least one rank")
        strategy = self.strategy
        if strategy == "auto":
            if decomposition is not None:
                strategy = "block3d"
            elif ranks_per_node > 1:
                strategy = "node-role"
            else:
                strategy = "endpoints"
        if strategy == "block3d":
            if decomposition is None:
                raise PartitionError("block3d strategy needs a decomposition")
            if decomposition.nranks != nranks:
                raise PartitionError(
                    f"decomposition covers {decomposition.nranks} ranks, "
                    f"communicator has {nranks}")
            return partition_from_labels(decomposition.boundary_classes(),
                                         live_per_group=self.live_per_group)
        if strategy == "node-role":
            # class code = node position (first / mid / last) x 2 + follower
            ranks = np.arange(nranks, dtype=np.int64)
            node = ranks // ranks_per_node
            last_node = (nranks - 1) // ranks_per_node
            pos = np.where(node == 0, 0, np.where(node == last_node, 2, 1))
            codes = pos * 2 + (ranks % ranks_per_node != 0)
            names = [f"{p}-{r}" for p in ("first", "mid", "last")
                     for r in ("leader", "follower")]
        else:
            codes = np.ones(nranks, dtype=np.int64)
            codes[-1] = 2
            codes[0] = 0  # "first" wins over "last" when nranks == 1
            names = ["first", "interior", "last"]
        classes = [(name, members) for c, name in enumerate(names)
                   if (members := np.flatnonzero(codes == c)).size]
        return _partition_of_classes(nranks, classes, self.live_per_group)


@lru_cache(maxsize=32)
def _partition_for_shape(partitioner: RankGroupPartitioner, nranks: int,
                         decomposition: BlockDecomposition | None,
                         ranks_per_node: int) -> RankPartition:
    """Memoized :meth:`RankGroupPartitioner._build`: a partition is an
    immutable function of the machine shape, so the campaigns of a sweep
    share one and the O(P) construction (and its verification) runs once
    per shape."""
    return partitioner._build(nranks, decomposition, ranks_per_node)

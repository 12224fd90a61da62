"""Representative-rank execution: full-machine costs at O(R) state.

:class:`ScaledComm` is drop-in API-compatible with
:class:`~repro.mpisim.comm.SimComm` but holds data and clocks for only the
``R`` representative ranks a :class:`~repro.mpisim.partition.RankPartition`
names, while the remaining ``P − R`` ranks are *modelled*: each mirrors
its proxy representative (the round-robin assignment the partition
records), so their clocks are exactly derivable from the live clocks and
are reported as per-group ``(count, min, max, sum)`` aggregates
(:meth:`ScaledComm.group_clocks`).  Every collective advances the whole
machine in O(groups): the cost models in :mod:`repro.mpisim.costmodel`
are evaluated at the **full** ``p`` (an allreduce over 9,074 × 8 ranks
costs ``allreduce_time(p=72592, …)``) while compute executes on the
exemplars only.

Index conventions:

* data-plane arguments (``values`` sequences, ``advance(rank, …)``,
  ``sendrecv`` endpoints, collective roots) use **live indices**
  ``0 … R−1``, exactly as a plain SimComm of size R would — drivers
  written against ``comm.representatives`` / ``comm.rank_weights`` run
  unchanged on either communicator;
* topology-facing callables (``ineighbor_exchange``'s ``partners_of``)
  speak **global** machine ranks, which coincide with indices on a plain
  SimComm.

With the degenerate all-live partition (``R = P``) every operation
delegates to the parent class, so ScaledComm reproduces SimComm bit for
bit — the identity the differential tests pin down.  With ``R < P`` the
documented approximations are: accounting for collectives and neighbor
exchanges is extrapolated through rank weights; index-addressed p2p is
counted once (not weighted); ``alltoallv`` uses the conservative
pairwise bound gated by the largest exemplar pair; and subgroup
collectives (``participants=``) still require all-live mode.

Fault semantics run at full machine scale.  ``fail_rank`` /
``restore_rank`` / ``failed_ranks`` speak **global machine ranks** in
modeled mode: killing a representative marks it dead exactly as SimComm
would, killing a modelled rank fires a *group-level* failure — the
group's effective weight drops by one (``rank_weights``), its proxy
bookkeeping is decremented, and the next collective raises
:class:`~repro.mpisim.comm.RankFailedError` carrying global ranks (ULFM
detection).  ``agree`` prices the consensus allreduce at the *machine*
survivor count; ``shrink`` and ``split`` rebuild the survivor/color
partition (renumbered densely, order preserved, matching SimComm), carry
exemplar clocks over, promote the first surviving member of a group
whose representatives all died, and record the global survivor ranks in
``parent_machine_ranks``.  The one documented approximation: mirrors of
a *dead* representative still count as alive machine ranks, but their
data is unreachable for ``agree``'s folded value (their proxy died with
their data path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.hardware.interconnect import InterconnectSpec
from repro.mpisim import costmodel as cm
from repro.mpisim.comm import (
    COMM_BYTES_EDGES,
    COMM_TIME_EDGES,
    CommError,
    PendingOp,
    RankFailedError,
    SimComm,
)
from repro.mpisim.partition import RankGroup, RankPartition, all_live_partition
from repro.mpisim.topology import Topology


@dataclass(frozen=True)
class GroupClock:
    """Clock aggregate over one group's modelled (non-representative) ranks."""

    name: str
    count: int
    min: float
    max: float
    sum: float

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class ScaledComm(SimComm):
    """Simulated communicator over ``nranks`` machine ranks, executing
    only the partition's representatives concretely."""

    def __init__(
        self,
        nranks: int,
        fabric: InterconnectSpec,
        *,
        ranks_per_node: int = 1,
        device_buffers: bool = False,
        tracer: Any = None,
        partition: RankPartition | None = None,
    ) -> None:
        if partition is None:
            partition = all_live_partition(nranks)
        if partition.nranks != nranks:
            raise CommError(
                f"partition covers {partition.nranks} ranks, machine has {nranks}")
        self.partition = partition
        super().__init__(partition.nlive, fabric, ranks_per_node=ranks_per_node,
                         device_buffers=device_buffers, tracer=tracer)
        # the data plane is R ranks; the cost plane sees the full machine
        self.topology = Topology(nranks=nranks, ranks_per_node=ranks_per_node,
                                 fabric=fabric)
        self._live = np.asarray(partition.live_ranks, dtype=np.int64)
        self._modeled = partition.modeled_count > 0
        self._group_rep_idx: list[np.ndarray] = []
        self._group_rep_proxy: list[np.ndarray] = []
        for g in partition.groups:
            counts = g.proxy_counts()
            self._group_rep_idx.append(np.asarray(
                [partition.live_index[r] for r in g.representatives],
                dtype=np.int64))
            self._group_rep_proxy.append(np.asarray(
                [counts[r] for r in g.representatives], dtype=np.int64))
        # per-collective hot path: the internode link and the integer
        # weights are invariants of the communicator, not of the call
        # (degradation windows route through _collective_link, so the
        # cache never serves stale bandwidth during a fault window)
        self._internode_link = self.topology.internode_link(
            device_buffers=device_buffers)
        self._weights_int = [int(w) for w in partition.weights]
        #: dead *modelled* ranks, by global machine rank
        self._machine_failed: set[int] = set()
        #: per-exemplar count of its mirrors that are currently dead
        self._dead_mirrors = np.zeros(self.nranks, dtype=np.int64)

    # -- representative-rank surface --------------------------------------------

    @property
    def machine_ranks(self) -> int:
        return self.partition.nranks

    @property
    def representatives(self) -> tuple[int, ...]:
        return self.partition.live_ranks

    @property
    def rank_weights(self) -> np.ndarray:
        """Ranks each exemplar currently stands for: the partition's
        structural weights minus its dead mirrors (group-level failures
        decrement the group's effective weight)."""
        if not self._machine_failed:
            return self.partition.weights
        return self.partition.weights - self._dead_mirrors

    def group_clocks(self) -> tuple[GroupClock, ...]:
        """Per-group aggregates over the modelled ranks' clocks.

        Modelled ranks mirror their proxy representatives, so the
        aggregates derive from the live clocks in O(R).
        """
        out = []
        for g, idx, proxies in zip(self.partition.groups,
                                   self._group_rep_idx, self._group_rep_proxy):
            mask = proxies > 0
            if not mask.any():
                out.append(GroupClock(g.name, 0, 0.0, 0.0, 0.0))
                continue
            mirrored = self.clocks[idx[mask]]
            out.append(GroupClock(
                g.name, int(proxies.sum()),
                float(mirrored.min()), float(mirrored.max()),
                float(self.clocks[idx] @ proxies)))
        return tuple(out)

    def describe(self) -> str:
        return (f"ScaledComm(P={self.machine_ranks}, R={self.nranks}, "
                f"groups={len(self.partition.groups)})")

    # -- full-machine cost plane --------------------------------------------------

    def _collective_link(self) -> cm.LinkParameters:
        """The cached internode link — unless a ``degrade_link`` window
        is active, in which case the degraded parameters are rebuilt so
        the cache never serves stale bandwidth mid-fault."""
        if not self._degradation_windows:
            return self._internode_link
        return self._apply_degradation(self._internode_link)

    def _link(self, a: int, b: int) -> cm.LinkParameters:
        return self.topology.link(int(self._live[a]), int(self._live[b]),
                                  device_buffers=self.device_buffers)

    def _sync_collective(self, nbytes: float, time_fn: Callable[..., float],
                         *, participants: Sequence[int] | None = None,
                         name: str = "collective") -> None:
        if not self._modeled:
            super()._sync_collective(nbytes, time_fn, participants=participants,
                                     name=name)
            return
        if participants is not None:
            raise CommError("subgroup collectives need all-live mode (R = P)")
        self._check_alive()
        p = self.machine_ranks
        link = self._collective_link()
        t = time_fn(p, nbytes, link) if time_fn is not cm.barrier_time else time_fn(p, link)
        start = float(self.clocks.max())
        self.clocks[:] = start + t
        self.stats.collectives += 1
        self.stats.collective_bytes += nbytes * p
        self.stats.total_comm_time += t * p
        self._trace_collective(name, start, t, nbytes, p)

    def load_imbalance(self) -> float:
        if not self._modeled:
            return super().load_imbalance()
        mean = float(self.clocks @ self.partition.weights) / self.machine_ranks
        return float(self.clocks.max()) / mean if mean > 0 else 1.0

    # -- data semantics: weighted folds -------------------------------------------

    def _fold(self, values: Sequence[Any], op: Callable) -> Any:
        """Reduce exemplar contributions to the full-machine value.

        ``np.add`` (the default) weights each exemplar by the ranks it
        stands for, since its mirrors contribute identical terms;
        idempotent ops (max / min / logical) fold the exemplars directly.
        """
        if op is np.add:
            acc = None
            for v, w in zip(values, self._weights_int):
                term = v * w if w != 1 else v
                acc = term if acc is None else np.add(acc, term)
            return acc
        acc = values[0]
        for v in values[1:]:
            acc = op(acc, v)
        return acc

    def reduce(self, values: Sequence[Any], nbytes: float, op: Callable = np.add,
               root: int = 0) -> Any:
        if not self._modeled:
            return super().reduce(values, nbytes, op=op, root=root)
        self._check_inputs(values)
        self._check_root(root)
        self._sync_collective(nbytes, cm.reduce_time, name="reduce")
        return self._fold(values, op)

    def allreduce(self, values: Sequence[Any], nbytes: float,
                  op: Callable = np.add) -> list[Any]:
        if not self._modeled:
            return super().allreduce(values, nbytes, op=op)
        self._check_inputs(values)
        self._sync_collective(nbytes, cm.allreduce_time, name="allreduce")
        acc = self._fold(values, op)
        return [np.copy(acc) if isinstance(acc, np.ndarray) else acc
                for _ in range(self.nranks)]

    def reduce_scatter(self, blocks: Sequence[Sequence[Any]], nbytes: float,
                       op: Callable = np.add) -> list[Any]:
        if not self._modeled:
            return super().reduce_scatter(blocks, nbytes, op=op)
        if len(blocks) != self.nranks or any(len(row) != self.nranks for row in blocks):
            raise CommError(
                f"reduce_scatter needs an {self.nranks}x{self.nranks} block matrix")
        self._sync_collective(nbytes, cm.reduce_scatter_time, name="reduce_scatter")
        return [self._fold([blocks[src][dst] for src in range(self.nranks)], op)
                for dst in range(self.nranks)]

    # -- alltoall family -----------------------------------------------------------

    def alltoall(self, matrix: Sequence[Sequence[Any]],
                 nbytes_per_pair: float) -> list[list[Any]]:
        if not self._modeled:
            return super().alltoall(matrix, nbytes_per_pair)
        if len(matrix) != self.nranks or any(len(row) != self.nranks for row in matrix):
            raise CommError(
                f"alltoall needs an {self.nranks}x{self.nranks} payload matrix")
        self._sync_collective(nbytes_per_pair * self.machine_ranks,
                              lambda p, n, link:
                              cm.alltoall_time(p, nbytes_per_pair, link),
                              name="alltoall")
        return [[matrix[src][dst] for src in range(self.nranks)]
                for dst in range(self.nranks)]

    def ialltoall(self, matrix: Sequence[Sequence[Any]],
                  nbytes_per_pair: float) -> tuple[list[list[Any]], PendingOp]:
        if not self._modeled:
            return super().ialltoall(matrix, nbytes_per_pair)
        if len(matrix) != self.nranks or any(len(row) != self.nranks for row in matrix):
            raise CommError(
                f"alltoall needs an {self.nranks}x{self.nranks} payload matrix")
        self._check_alive()
        p = self.machine_ranks
        link = self._collective_link()
        t = cm.alltoall_time(p, nbytes_per_pair, link)
        start = float(self.clocks.max())
        done = {i: start + t for i in range(self.nranks)}
        self.stats.collectives += 1
        self.stats.collective_bytes += nbytes_per_pair * p * p
        self.stats.total_comm_time += t * p
        self._trace_collective("ialltoall", start, t, nbytes_per_pair * p, p)
        out = [[matrix[src][dst] for src in range(self.nranks)]
               for dst in range(self.nranks)]
        return out, PendingOp(complete_at=done, comm=self)

    def alltoallv(self, matrix: Sequence[Sequence[Any]],
                  nbytes: Sequence[Sequence[float]]) -> list[list[Any]]:
        if not self._modeled:
            return super().alltoallv(matrix, nbytes)
        if len(matrix) != self.nranks or any(len(r) != self.nranks for r in matrix):
            raise CommError(
                f"alltoallv needs an {self.nranks}x{self.nranks} payload matrix")
        if len(nbytes) != self.nranks or any(len(r) != self.nranks for r in nbytes):
            raise CommError("nbytes must match the payload matrix shape")
        self._check_alive()
        p = self.machine_ranks
        link = self._collective_link()
        # conservative pairwise bound: the full P x P matrix is never
        # materialized, so every round is gated by the largest exemplar pair
        worst = max(max(float(b) for b in row) for row in nbytes)
        t = (p - 1) * link.p2p_time(worst)
        start = float(self.clocks.max())
        self.clocks[:] = start + t
        mean_pair = float(sum(sum(float(b) for b in row) for row in nbytes))
        mean_pair /= self.nranks * self.nranks
        total_bytes = mean_pair * p * p
        self.stats.collectives += 1
        self.stats.collective_bytes += total_bytes
        self.stats.total_comm_time += t * p
        self._trace_collective("alltoallv", start, t, total_bytes / p, p)
        return [[matrix[src][dst] for src in range(self.nranks)]
                for dst in range(self.nranks)]

    # -- neighbor exchange (global-rank callable) ----------------------------------

    def _proxy_index(self, global_rank: int) -> int:
        """Live index of a modelled machine rank's proxy representative."""
        part = self.partition
        group = part.groups[int(part.group_of[global_rank])]
        return part.live_index[group.proxy_of(global_rank)]

    def _clock_estimate(self, global_rank: int, clocks: np.ndarray) -> float:
        """Current clock of any machine rank: live ranks read directly,
        modelled ranks mirror their proxy representative."""
        idx = self.partition.live_index.get(global_rank)
        if idx is None:
            idx = self._proxy_index(global_rank)
        return float(clocks[idx])

    def proxy_live_indices(self) -> np.ndarray:
        """Live index every machine rank reads its clock from —
        representatives map to themselves, modelled ranks to their
        round-robin proxy.  ``(machine_ranks,)`` int64, built vectorized
        per group (the elastic layer folds machine-pair traffic onto
        exemplar pairs through this map)."""
        out = np.empty(self.machine_ranks, dtype=np.int64)
        for g, rep_idx in zip(self.partition.groups, self._group_rep_idx):
            out[list(g.representatives)] = rep_idx
            ranks, positions = g.modeled_view
            out[ranks] = rep_idx[positions % rep_idx.size]
        return out

    def ineighbor_exchange(self, partners_of: Callable[[int], Sequence[int]],
                           nbytes: float, *,
                           name: str = "neighbor_exchange") -> PendingOp:
        if not self._modeled:
            return super().ineighbor_exchange(partners_of, nbytes, name=name)
        self._check_alive()
        start_clocks = self.clocks.copy()
        weights = self.partition.weights
        complete: dict[int, float] = {}
        nmessages = 0
        time_sum = 0.0
        for i in range(self.nranks):
            r = int(self._live[i])
            partners = [int(q) for q in partners_of(r) if int(q) != r]
            if not partners:
                continue
            t_r = sum(
                self.topology.link(r, q, device_buffers=self.device_buffers)
                .p2p_time(nbytes) for q in partners)
            ready = max(float(start_clocks[i]),
                        max(self._clock_estimate(q, start_clocks)
                            for q in partners))
            complete[i] = ready + t_r
            nmessages += int(weights[i]) * len(partners)
            time_sum += int(weights[i]) * t_r
        self.stats.p2p_messages += nmessages
        self.stats.p2p_bytes += nmessages * nbytes
        self.stats.total_comm_time += time_sum
        if complete:
            start = min(float(start_clocks[i]) for i in complete)
            span = max(complete.values()) - start
            self._trace_collective(name, start, span, nbytes * nmessages,
                                   self.machine_ranks)
        return PendingOp(complete_at=complete, comm=self)

    # -- O(groups) tracing ---------------------------------------------------------

    def _trace_p2p(self, name: str, src: int, dst: int, start: float,
                   t: float, nbytes: float) -> None:
        if not self._modeled:
            super()._trace_p2p(name, src, dst, start, t, nbytes)
            return
        tr = self.tracer
        if tr is None:
            return
        group_of = self.partition.group_of
        gsrc = self.partition.groups[int(group_of[self._live[src]])].name
        gdst = self.partition.groups[int(group_of[self._live[dst]])].name
        tr.record(name, start, t, cat="mpisim", pid="mpisim",
                  tid=f"group:{gdst}", src=int(self._live[src]),
                  dst=int(self._live[dst]), nbytes=float(nbytes))
        m = tr.metrics
        m.counter(f"mpisim.group_edge[{gsrc}->{gdst}].messages").inc()
        m.counter(f"mpisim.group_edge[{gsrc}->{gdst}].bytes").inc(float(nbytes))
        m.histogram("mpisim.p2p_time", COMM_TIME_EDGES).observe(t)
        m.histogram("mpisim.p2p_bytes", COMM_BYTES_EDGES).observe(float(nbytes))

    # -- fault semantics over the modelled machine ----------------------------------

    def fail_rank(self, rank: int) -> None:
        """Kill a **global machine rank**.

        A representative dies exactly as on SimComm; a modelled rank
        fires a group-level failure — the group's effective weight drops
        by one and its proxy's dead-mirror count rises.  Detection is
        ULFM-style either way: the next machine-wide collective raises
        :class:`RankFailedError` with global ranks.
        """
        if not self._modeled:
            super().fail_rank(rank)
            return
        rank = int(rank)
        if not 0 <= rank < self.machine_ranks:
            raise CommError(f"rank {rank} out of range")
        idx = self.partition.live_index.get(rank)
        if idx is not None:
            self.failed[idx] = True
            return
        if rank in self._machine_failed:
            return
        self._machine_failed.add(rank)
        self._dead_mirrors[self._proxy_index(rank)] += 1

    def restore_rank(self, rank: int) -> None:
        """Replace a failed machine rank (global numbering); a revived
        representative rejoins at the current global time, a revived
        modelled rank simply mirrors its proxy again."""
        if not self._modeled:
            super().restore_rank(rank)
            return
        rank = int(rank)
        if not 0 <= rank < self.machine_ranks:
            raise CommError(f"rank {rank} out of range")
        idx = self.partition.live_index.get(rank)
        if idx is not None:
            self.failed[idx] = False
            self.clocks[idx] = float(self.clocks.max())
            return
        if rank not in self._machine_failed:
            return
        self._machine_failed.discard(rank)
        self._dead_mirrors[self._proxy_index(rank)] -= 1

    def failed_ranks(self) -> list[int]:
        if not self._modeled:
            return super().failed_ranks()
        dead = [int(self._live[i]) for i in np.flatnonzero(self.failed)]
        return sorted(dead + list(self._machine_failed))

    @property
    def machine_alive_count(self) -> int:
        if not self._modeled:
            return super().machine_alive_count
        return (self.machine_ranks - len(self._machine_failed)
                - int(self.failed.sum()))

    def _check_alive(self, participants: Sequence[int] | None = None) -> None:
        if not self._modeled or participants is not None:
            # p2p between named exemplars only needs those endpoints
            # alive, exactly as on SimComm
            super()._check_alive(participants)
            return
        if self._machine_failed or self.failed.any():
            raise RankFailedError(self.failed_ranks())

    def agree(self, values: Sequence[Any] | None = None, nbytes: float = 8.0,
              op: Callable = np.logical_and) -> tuple[Any, tuple[int, ...]]:
        """ULFM consensus priced at the *machine* survivor count.

        The allreduce cost uses ``machine_alive_count`` participants
        (the Hockney model at full machine ``p`` minus the dead), while
        the fold runs over the surviving exemplars — weighted by their
        effective weights for ``np.add``, direct for idempotent ops.
        Returns the failed ranks in global machine numbering.
        """
        if not self._modeled:
            return super().agree(values, nbytes, op)
        alive_idx = [int(i) for i in np.flatnonzero(~self.failed)]
        if not alive_idx:
            raise CommError("agree on a communicator with no alive ranks")
        alive_machine = self.machine_alive_count
        if values is None:
            values = [True] * self.nranks
        if len(values) != self.nranks:
            raise CommError(f"expected {self.nranks} per-rank values, "
                            f"got {len(values)}")
        link = self._collective_link()
        t = cm.allreduce_time(alive_machine, nbytes, link)
        start = float(np.max(self.clocks[alive_idx]))
        self.clocks[alive_idx] = start + t
        self.stats.collectives += 1
        self.stats.collective_bytes += nbytes * alive_machine
        self.stats.total_comm_time += t * alive_machine
        self._trace_collective("agree", start, t, nbytes, alive_machine)
        if op is np.add:
            acc = None
            for i in alive_idx:
                w = self._weights_int[i] - int(self._dead_mirrors[i])
                term = values[i] * w if w != 1 else values[i]
                acc = term if acc is None else np.add(acc, term)
        else:
            acc = values[alive_idx[0]]
            for i in alive_idx[1:]:
                acc = op(acc, values[i])
        return acc, tuple(self.failed_ranks())

    def shrink(self) -> SimComm:
        """ULFM shrink over the modelled machine: pay one ``agree``,
        then rebuild the partition over the global survivors (dense
        renumbering preserving order — the same contract as SimComm and
        :func:`~repro.mpisim.decomposition.block_owners`).  Groups whose
        representatives all died promote their first surviving member;
        ``parent_machine_ranks`` maps new machine ranks back to this
        communicator's global numbering."""
        if not self._modeled:
            return super().shrink()
        self.agree()  # the consensus that makes the survivor set common
        mask = np.ones(self.machine_ranks, dtype=bool)
        mask[self.failed_ranks()] = False
        return self._induced_subcomm(np.flatnonzero(mask))

    def split(self, color_of: Callable[[int], int], *,
              shared_stats: bool = False) -> dict[int, SimComm]:
        """MPI_Comm_split over **global machine ranks** (``color_of`` is
        called for every rank ``0..P-1``, consistent with SimComm where
        indices and machine ranks coincide).  Each color keeps the
        induced partition: old groups intersected with the color's
        members, representatives promoted where a color captured only
        modelled ranks."""
        if not self._modeled:
            return super().split(color_of, shared_stats=shared_stats)
        groups: dict[int, list[int]] = {}
        for r in range(self.machine_ranks):
            groups.setdefault(color_of(r), []).append(r)
        return {color: self._induced_subcomm(
                    np.asarray(members, dtype=np.int64),
                    shared_stats=shared_stats)
                for color, members in groups.items()}

    def _induced_subcomm(self, members: np.ndarray, *,
                         shared_stats: bool = False) -> "ScaledComm":
        """A ScaledComm over a subset of machine ranks, renumbered
        densely in rank order, with the partition induced by
        intersecting each group with *members*.  Representative clocks
        carry over; a group left without representatives promotes its
        first surviving member at its proxy's clock."""
        members = np.asarray(members, dtype=np.int64)
        if members.size == 0:
            raise CommError("sub-communicator needs at least one rank")
        remap = np.full(self.machine_ranks, -1, dtype=np.int64)
        remap[members] = np.arange(members.size, dtype=np.int64)
        live_index = self.partition.live_index
        new_groups: list[RankGroup] = []
        rep_clocks: dict[int, float] = {}
        for g in self.partition.groups:
            mem = np.asarray(g.members, dtype=np.int64)
            keep = mem[remap[mem] >= 0]
            if keep.size == 0:
                continue
            new_members = tuple(int(r) for r in remap[keep])
            surviving_reps = [r for r in g.representatives if remap[r] >= 0]
            if surviving_reps:
                new_reps = []
                for old in surviving_reps:
                    new = int(remap[old])
                    new_reps.append(new)
                    rep_clocks[new] = float(self.clocks[live_index[old]])
            else:
                promoted = int(keep[0])
                new_reps = [int(remap[promoted])]
                rep_clocks[new_reps[0]] = self._clock_estimate(
                    promoted, self.clocks)
            new_groups.append(RankGroup(g.name, new_members,
                                        tuple(new_reps)))
        partition = RankPartition(nranks=int(members.size),
                                  groups=tuple(new_groups))
        sub = ScaledComm(int(members.size), self.topology.fabric,
                         ranks_per_node=self.topology.ranks_per_node,
                         device_buffers=self.device_buffers,
                         tracer=self.tracer, partition=partition)
        sub.clocks = np.asarray([rep_clocks[r] for r in partition.live_ranks],
                                dtype=float)
        sub.parent_machine_ranks = tuple(int(r) for r in members)
        if shared_stats:
            sub.stats = self.stats
        return sub

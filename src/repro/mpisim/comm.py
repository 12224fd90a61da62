"""A bulk-synchronous simulated communicator with real data semantics.

Applications written against :class:`SimComm` hold *all* ranks' data (SPMD
state as lists indexed by rank) and invoke collectives that both compute
the correct result and advance per-rank simulated clocks using the cost
models in :mod:`repro.mpisim.costmodel`.  This mirrors how mpi4py programs
look (§guide: buffer-based collectives), while staying single-process and
deterministic.

Clock semantics:

* each rank has its own clock (``clocks[r]``);
* a point-to-point transfer completes at
  ``max(clock[src], clock[dst]) + t`` for both ends;
* a collective is synchronizing: all participating clocks advance to
  ``max(clocks) + T_collective``;
* nonblocking ops return a :class:`PendingOp` whose ``wait`` applies the
  completion — overlap is modelled by letting the caller advance clocks
  with compute in between.

Representative-rank execution: a communicator built with a
:class:`~repro.mpisim.partition.RankPartition` of its ``machine_ranks``
ranks (default: the all-live partition) holds data and clocks for the
partition's ``nranks`` representatives only.  Every other rank mirrors
its proxy representative, so its clock derives from the live clocks
(:meth:`SimComm.group_clocks`); collectives are priced at the full
machine ``p`` and ``np.add`` folds weight each exemplar by the ranks it
stands for.  Data-plane arguments (``values``, ``advance``, ``sendrecv``
endpoints, roots) use live indices ``0 … nranks−1``; fault injection,
``split``, ``ineighbor_exchange`` partners and ``parent_ranks`` speak
machine ranks.  The two coincide when every rank is live.  With modelled
ranks, index-addressed p2p is counted once (not weighted), ``alltoallv``
uses a pairwise bound gated by the largest exemplar pair, subgroup
collectives are unavailable, and mirrors of a *dead* representative
count as alive but hold no data for ``agree``'s folded value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.hardware.interconnect import InterconnectSpec
from repro.mpisim import costmodel as cm
from repro.mpisim.partition import RankPartition, _all_live_partition
from repro.mpisim.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.observability.tracer import Tracer

#: Fixed histogram bucket edges for traced communication (seconds/bytes).
#: Fixed at module scope so every traced run bins identically.
COMM_TIME_EDGES = (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
COMM_BYTES_EDGES = (64.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9)


class CommError(RuntimeError):
    pass


class RankFailedError(CommError):
    """An operation touched a failed rank (ULFM-style detection: the
    failure surfaces at the next communication involving the dead rank)."""

    def __init__(self, ranks: Sequence[int]) -> None:
        self.ranks = tuple(int(r) for r in ranks)
        super().__init__(f"rank(s) {list(self.ranks)} have failed")


@dataclass
class CommStats:
    """Aggregate communication accounting across all ranks."""

    p2p_messages: int = 0
    p2p_bytes: float = 0.0
    collectives: int = 0
    collective_bytes: float = 0.0
    total_comm_time: float = 0.0  # sum over ranks of time spent communicating

    def merge(self, other: "CommStats") -> None:
        """Fold *other*'s accounting into this one (child-comm totals)."""
        self.p2p_messages += other.p2p_messages
        self.p2p_bytes += other.p2p_bytes
        self.collectives += other.collectives
        self.collective_bytes += other.collective_bytes
        self.total_comm_time += other.total_comm_time


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


@dataclass
class PendingOp:
    """Handle for a nonblocking operation."""

    complete_at: dict[int, float]  # rank -> completion time
    comm: "SimComm"
    done: bool = False

    def wait(self) -> None:
        """Block each participating rank until its completion time."""
        if self.done:
            return
        for rank, t in self.complete_at.items():
            self.comm.clocks[rank] = max(self.comm.clocks[rank], t)
        self.done = True


class SimComm:
    """Simulated communicator over ``machine_ranks`` ranks, executing the
    representatives of *partition* (every rank, by default)."""

    def __init__(
        self,
        nranks: int,
        fabric: InterconnectSpec,
        *,
        ranks_per_node: int = 1,
        device_buffers: bool = False,
        tracer: "Tracer | None" = None,
        partition: RankPartition | None = None,
    ) -> None:
        if nranks < 1:
            raise CommError("communicator needs at least one rank")
        if partition is None:
            partition = _all_live_partition(nranks)  # memoized: no O(P) work
        elif partition.nranks != nranks:
            raise CommError(
                f"partition covers {partition.nranks} ranks, machine has {nranks}")
        self.partition = partition
        #: live (data-plane) ranks; the cost plane sees ``machine_ranks``
        self.nranks = partition.nlive
        self.topology = Topology(nranks=nranks, ranks_per_node=ranks_per_node, fabric=fabric)
        self.device_buffers = device_buffers
        #: observation-only span/metric sink; ``None`` keeps every
        #: instrumented site a single pointer test (tracing off is free)
        self.tracer = tracer
        self.clocks = np.zeros(self.nranks, dtype=float)
        self.failed = np.zeros(self.nranks, dtype=bool)
        self.stats = CommStats()
        #: set by :meth:`shrink` / :meth:`split`: new machine rank ->
        #: machine rank in the parent communicator
        self.parent_ranks: tuple[int, ...] | None = None
        #: active :meth:`degrade_link` windows as ``(slowdown, until)``
        #: pairs on the simulated clock; expired windows are pruned lazily
        self._degradation_windows: list[tuple[float, float]] = []
        self._internode_link: cm.LinkParameters | None = None
        #: dead *modelled* ranks, by machine rank
        self._machine_failed: set[int] = set()

    # -- representative-rank surface --------------------------------------------

    @property
    def machine_ranks(self) -> int:
        """Total ranks the communicator models (``nranks`` when all-live)."""
        return self.partition.nranks

    @property
    def representatives(self) -> tuple[int, ...]:
        """Machine ranks executed concretely, in live-index order."""
        return self.partition.live_ranks

    @property
    def rank_weights(self) -> np.ndarray:
        """Ranks each live rank currently stands for: the partition's
        structural weights minus its dead mirrors (group-level failures
        decrement the group's effective weight)."""
        weights = self.partition.weights
        if self._machine_failed:
            proxies = self.partition.proxy_live_index[list(self._machine_failed)]
            weights = weights - np.bincount(proxies, minlength=self.nranks)
        return weights

    def group_clocks(self) -> tuple[GroupClock, ...]:
        """Per-group aggregates over the modelled ranks' clocks, derived
        in O(R) from the representatives they mirror."""
        out = []
        for g, (idx, proxies) in zip(self.partition.groups,
                                     self.partition.group_tables):
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
        return (f"SimComm(P={self.machine_ranks}, R={self.nranks}, "
                f"groups={len(self.partition.groups)})")

    def proxy_live_indices(self) -> np.ndarray:
        """Live index every machine rank reads its clock from (its proxy
        representative's; the elastic layer folds machine-pair traffic
        onto exemplar pairs through it)."""
        return self.partition.proxy_live_index

    # -- rank failure (fault injection) -----------------------------------------

    def _live_index_of(self, rank: int) -> int | None:
        """Live index of machine rank *rank*, ``None`` if it is modelled."""
        if not 0 <= rank < self.machine_ranks:
            raise CommError(f"rank {rank} out of range")
        return self.partition.live_index.get(rank)

    def fail_rank(self, rank: int) -> None:
        """Kill machine rank *rank*; detection happens at the next
        operation that involves it (the way MPI jobs actually learn
        about node loss).

        A representative dies outright; a modelled rank fires a
        group-level failure — its proxy's :attr:`rank_weights` entry
        drops by one.  The next machine-wide collective raises
        :class:`RankFailedError` with machine ranks.
        """
        rank = int(rank)
        idx = self._live_index_of(rank)
        if idx is None:
            self._machine_failed.add(rank)
        else:
            self.failed[idx] = True

    def restore_rank(self, rank: int) -> None:
        """Replace failed machine rank *rank*: a representative rejoins
        at the current global time, a modelled rank mirrors its proxy
        again."""
        rank = int(rank)
        idx = self._live_index_of(rank)
        if idx is None:
            self._machine_failed.discard(rank)
        else:
            self.failed[idx] = False
            self.clocks[idx] = float(self.clocks.max())

    def alive_ranks(self) -> list[int]:
        """Live indices that have not failed, in rank order."""
        return (~self.failed).nonzero()[0].tolist()

    def failed_ranks(self) -> list[int]:
        """Dead ranks in *machine* numbering, sorted: dead exemplars and
        dead modelled ranks alike, so fault-injection drivers
        (``FaultInjector.clear``) speak one numbering."""
        live = self.partition.live_ranks
        dead = [live[i] for i in self.failed.nonzero()[0].tolist()]
        return sorted(dead + list(self._machine_failed))

    @property
    def machine_alive_count(self) -> int:
        """Machine ranks still alive (``machine_ranks`` minus the dead)."""
        return (self.machine_ranks - len(self._machine_failed)
                - int(self.failed.sum()))

    # -- link degradation (fault injection) --------------------------------------

    def degrade_link(self, slowdown: float, duration: float) -> None:
        """Degrade the internode fabric by *slowdown* for *duration*
        simulated seconds, starting now (the current slowest clock).

        Collectives priced while a window is active see the link's beta
        multiplied by the product of all active slowdowns — bandwidth
        collapses, latency stays (a flapping link, not a dead one).
        Windows expire on the simulated clock; nothing needs clearing.
        """
        if slowdown < 1.0:
            raise CommError("link slowdown must be >= 1")
        if duration <= 0 or slowdown == 1.0:
            return
        start = float(self.clocks.max())
        self._degradation_windows.append((float(slowdown), start + duration))

    def _collective_link(self) -> cm.LinkParameters:
        """The internode link every collective prices against, degraded
        by any active :meth:`degrade_link` window."""
        link = self._internode_link
        if link is None:
            link = self._internode_link = self.topology.internode_link(
                device_buffers=self.device_buffers)
        if not self._degradation_windows:
            return link
        now = float(self.clocks.max())
        self._degradation_windows = [
            w for w in self._degradation_windows if w[1] > now]
        factor = 1.0
        for slowdown, _until in self._degradation_windows:
            factor *= slowdown
        if factor == 1.0:
            return link
        return cm.LinkParameters(alpha=link.alpha, beta=link.beta * factor)

    # -- fault-tolerant consensus (ULFM) -----------------------------------------

    def agree(self, values: Sequence[Any] | None = None, nbytes: float = 8.0,
              op: Callable = np.logical_and) -> tuple[Any, tuple[int, ...]]:
        """ULFM ``MPIX_Comm_agree``: fault-tolerant consensus among survivors.

        Unlike the ordinary collectives, ``agree`` *never* raises
        :class:`RankFailedError` — it runs over the alive ranks only,
        reduces their contributions with *op* (logical AND by default,
        matching the MPI semantics of agreeing on a bitmask), and returns
        ``(agreed_value, failed_ranks)`` so the survivors share a
        consistent view of who died (machine numbering).  ``values`` is
        indexed by live rank; dead ranks' entries are ignored, and the
        value is ``None`` when only modelled ranks survive.  Costs an
        allreduce over the ``machine_alive_count`` survivors.
        """
        alive_machine = self.machine_alive_count
        if alive_machine == 0:
            raise CommError("agree on a communicator with no alive ranks")
        if values is None:
            values = [True] * self.nranks
        if len(values) != self.nranks:
            raise CommError(f"expected {self.nranks} per-rank values, "
                            f"got {len(values)}")
        alive = self.alive_ranks()
        t = cm.allreduce_time(alive_machine, nbytes, self._collective_link())
        # with every exemplar dead the consensus starts at the latest clock
        start = self._collective("agree", t, alive_machine, nbytes,
                                 alive or slice(None))
        self.clocks[alive] = start + t
        weights = self.rank_weights[alive].tolist() if op is np.add else None
        acc = self._fold([values[i] for i in alive], op, weights)
        return acc, tuple(self.failed_ranks())

    def shrink(self) -> "SimComm":
        """ULFM ``MPIX_Comm_shrink``: a new communicator over the survivors.

        The surviving machine ranks are renumbered densely (order is
        preserved: if rank 0 died, old rank 1 becomes new rank 0) and
        carry their clocks over, synchronized to the shrink consensus
        (one ``agree``).  A group whose representatives all died
        promotes its first surviving member at its dead proxy's clock.
        ``parent_ranks[new_rank]`` maps back to this communicator's
        machine numbering.
        """
        _, dead = self.agree()  # the consensus on the survivor set
        mask = np.ones(self.machine_ranks, dtype=bool)
        mask[list(dead)] = False
        return self._induced_subcomm(mask.nonzero()[0])

    def split(self, color_of: Callable[[int], int], *,
              shared_stats: bool = False) -> dict[int, "SimComm"]:
        """MPI_Comm_split over machine ranks: one sub-communicator per
        color, ``color_of`` called for every rank ``0..machine_ranks-1``.

        Each sub-communicator keeps the induced partition (see
        :meth:`shrink`) and starts with its members' current clocks; the
        parent keeps its own.  Used for pencil row/column communicators.

        With ``shared_stats=True`` the children record into the parent's
        :class:`CommStats` object directly, so multi-comm campaigns
        report true totals without a merge step; otherwise call
        :meth:`merge_child_stats` when the children retire.
        """
        groups: dict[int, list[int]] = {}
        for r in range(self.machine_ranks):
            groups.setdefault(color_of(r), []).append(r)
        return {color: self._induced_subcomm(
                    np.asarray(members, dtype=np.int64),
                    shared_stats=shared_stats)
                for color, members in groups.items()}

    def _induced_subcomm(self, members: np.ndarray, *,
                         shared_stats: bool = False) -> "SimComm":
        """A communicator over the machine ranks *members* (sorted),
        on the partition they induce."""
        if members.size == 0:
            raise CommError("sub-communicator needs at least one rank")
        partition, sources = self.partition.induced(members)
        sub = SimComm(int(members.size), self.topology.fabric,
                      ranks_per_node=self.topology.ranks_per_node,
                      device_buffers=self.device_buffers,
                      tracer=self.tracer, partition=partition)
        sub.clocks = self.clocks[sources]
        sub.parent_ranks = tuple(members.tolist())
        if shared_stats:
            sub.stats = self.stats
        return sub

    def merge_child_stats(self, children: "Sequence[SimComm] | dict[Any, SimComm]") -> None:
        """Fold child communicators' accounting into this comm's stats.

        Children created with ``shared_stats=True`` already write here and
        are skipped, so mixing the two modes never double-counts.
        """
        comms = children.values() if isinstance(children, dict) else children
        for child in comms:
            if child.stats is self.stats:
                continue
            self.stats.merge(child.stats)

    def _check_alive(self, participants: Sequence[int] | None = None) -> None:
        if participants is not None:
            dead = [r for r in participants if self.failed[r]]
            if dead:
                raise RankFailedError(dead)
        elif self._machine_failed or self.failed.any():
            raise RankFailedError(self.failed_ranks())

    # -- tracing (observation only: reads clocks, never moves them) -------------

    def _trace_collective(self, name: str, start: float, t: float,
                          nbytes: float, participants: int) -> None:
        tr = self.tracer
        if tr is None:
            return
        tr.record(name, start, t, cat="mpisim", pid="mpisim",
                  tid="collectives", nbytes=float(nbytes),
                  participants=int(participants))
        m = tr.metrics
        m.counter("mpisim.collectives").inc()
        m.counter("mpisim.collective_bytes").inc(float(nbytes) * participants)
        m.histogram("mpisim.collective_time", COMM_TIME_EDGES).observe(t)

    def _trace_p2p(self, name: str, src: int, dst: int, start: float,
                   t: float, nbytes: float) -> None:
        """One span and edge counters per message: per rank pair on an
        all-live communicator, per group pair (O(groups) metrics) when
        ranks are modelled."""
        tr = self.tracer
        if tr is None:
            return
        live = self.partition.live_ranks
        msrc, mdst = live[src], live[dst]
        if self.nranks == self.machine_ranks:
            tid, edge = f"rank{dst}", f"edge[{src}->{dst}]"
        else:
            names = [self.partition.groups[int(self.partition.group_of[r])].name
                     for r in (msrc, mdst)]
            tid, edge = f"group:{names[1]}", f"group_edge[{names[0]}->{names[1]}]"
        tr.record(name, start, t, cat="mpisim", pid="mpisim", tid=tid,
                  src=int(msrc), dst=int(mdst), nbytes=float(nbytes))
        m = tr.metrics
        m.counter(f"mpisim.{edge}.messages").inc()
        m.counter(f"mpisim.{edge}.bytes").inc(float(nbytes))
        m.histogram("mpisim.p2p_time", COMM_TIME_EDGES).observe(t)
        m.histogram("mpisim.p2p_bytes", COMM_BYTES_EDGES).observe(float(nbytes))

    # -- clock helpers ---------------------------------------------------------

    def advance(self, rank: int, dt: float) -> None:
        """Rank-local compute time."""
        if dt < 0:
            raise CommError("time must advance forward")
        self.clocks[rank] += dt

    def advance_all(self, dt: float | np.ndarray) -> None:
        """Compute time on every rank (scalar or per-rank array)."""
        dt_arr = np.asarray(dt, dtype=float)
        if np.any(dt_arr < 0):
            raise CommError("time must advance forward")
        self.clocks += dt_arr

    @property
    def elapsed(self) -> float:
        """Simulated wall time: the slowest rank's clock."""
        return float(self.clocks.max())

    def load_imbalance(self) -> float:
        """max/mean clock ratio over the machine — 1.0 is perfectly
        balanced (modelled ranks count through the rank weights)."""
        if self.nranks == self.machine_ranks:
            mean = float(self.clocks.mean())
        else:
            mean = float(self.clocks @ self.partition.weights) / self.machine_ranks
        return float(self.clocks.max()) / mean if mean > 0 else 1.0

    # -- internal ------------------------------------------------------------------

    def _sync_collective(self, nbytes: float, time_fn: Callable[..., float],
                         *, participants: Sequence[int] | None = None,
                         name: str = "collective") -> None:
        """Synchronize *participants* (default: the whole machine) at
        ``max(clocks) + time_fn(p, …)``."""
        if participants is None:
            self._check_alive()
            p = self.machine_ranks
            idx: Any = slice(None)
        else:
            if self.nranks != self.machine_ranks:
                raise CommError("subgroup collectives need all-live mode (R = P)")
            self._check_alive(participants)
            idx = list(participants)
            p = len(idx)
        link = self._collective_link()
        t = time_fn(p, nbytes, link) if time_fn is not cm.barrier_time else time_fn(p, link)
        self.clocks[idx] = self._collective(name, t, p, nbytes, idx) + t

    def _collective(self, name: str, t: float, p: int, nbytes: float,
                    idx: Any = slice(None), total_bytes: float | None = None
                    ) -> float:
        """Account a *p*-rank collective of *nbytes* per rank lasting *t*
        that starts at the latest clock of live ranks *idx*; returns the
        start (callers move the clocks)."""
        start = float(self.clocks[idx].max())
        self.stats.collectives += 1
        self.stats.collective_bytes += (nbytes * p if total_bytes is None
                                        else total_bytes)
        self.stats.total_comm_time += t * p
        self._trace_collective(name, start, t, nbytes, p)
        return start

    def _fold(self, values: Sequence[Any], op: Callable,
              weights: Sequence[int] | None = None) -> Any:
        """Reduce live contributions to the full-machine value: ``np.add``
        weights each by the ranks it stands for (*weights*, default the
        partition's), idempotent ops (max / min / logical) fold directly.
        """
        if op is np.add:
            acc = None
            if weights is None:
                weights = self.partition.weights_int
            for v, w in zip(values, weights):
                term = v * w if w != 1 else v
                acc = term if acc is None else np.add(acc, term)
            return acc
        if not values:
            return None
        acc = values[0]
        for v in values[1:]:
            acc = op(acc, v)
        return acc

    # -- point-to-point ---------------------------------------------------------------

    def _link(self, a: int, b: int) -> cm.LinkParameters:
        """α-β path between two live indices, placed at their machine ranks."""
        live = self.partition.live_ranks
        return self.topology.link(live[a], live[b],
                                  device_buffers=self.device_buffers)

    def _p2p(self, name: str, src: int, dst: int, nbytes: float) -> float:
        """Account one message; returns its completion time at both ends."""
        if src == dst:
            raise CommError(f"{name} with src == dst")
        self._check_alive([src, dst])
        t = self._link(src, dst).p2p_time(nbytes)
        done = max(self.clocks[src], self.clocks[dst]) + t
        self.stats.p2p_messages += 1
        self.stats.p2p_bytes += nbytes
        self.stats.total_comm_time += 2 * t
        self._trace_p2p(name, src, dst, done - t, t, nbytes)
        return done

    def sendrecv(self, src: int, dst: int, payload: Any, nbytes: float) -> Any:
        """Blocking matched send/recv; returns the payload at the receiver."""
        self.clocks[src] = self.clocks[dst] = self._p2p("sendrecv", src, dst, nbytes)
        return payload

    def isendrecv(self, src: int, dst: int, nbytes: float) -> PendingOp:
        """Nonblocking transfer: completion time computed now, applied at wait."""
        done = self._p2p("isendrecv", src, dst, nbytes)
        return PendingOp(complete_at={src: done, dst: done}, comm=self)

    def ineighbor_exchange(self, partners_of: Callable[[int], Sequence[int]],
                           nbytes: float, *,
                           name: str = "neighbor_exchange") -> PendingOp:
        """Nonblocking halo exchange: every rank swaps *nbytes* with each of
        its ``partners_of(rank)`` concurrently (MPI_Ineighbor_alltoall).

        ``partners_of`` speaks machine ranks and is called for each live
        rank; modelled partners are read through their proxies, and each
        live rank's traffic counts once per rank it stands for.  Each
        rank completes at ``max(own clock, partner clocks) + sum of its
        per-partner p2p times`` — the serialization a single NIC imposes
        on one rank's messages, while distinct ranks overlap.
        Self-partners are ignored (degenerate axes of periodic grids).
        """
        self._check_alive()
        start_clocks = self.clocks.copy()
        live = self.partition.live_ranks
        weights = self.partition.weights_int
        proxy = self.partition.proxy_live_index
        complete: dict[int, float] = {}
        nmessages = 0
        time_sum = 0.0
        for i in range(self.nranks):
            r = live[i]
            partners = [int(q) for q in partners_of(r) if int(q) != r]
            if not partners:
                continue
            t_r = sum(self.topology.link(r, q, device_buffers=self.device_buffers)
                      .p2p_time(nbytes) for q in partners)
            ready = max(float(start_clocks[i]),
                        max(float(start_clocks[proxy[q]]) for q in partners))
            complete[i] = ready + t_r
            nmessages += weights[i] * len(partners)
            time_sum += weights[i] * t_r
        self.stats.p2p_messages += nmessages
        self.stats.p2p_bytes += nmessages * nbytes
        self.stats.total_comm_time += time_sum
        if complete:
            start = min(float(start_clocks[i]) for i in complete)
            span = max(complete.values()) - start
            participants = (len(complete) if self.nranks == self.machine_ranks
                            else self.machine_ranks)
            self._trace_collective(name, start, span, nbytes * nmessages,
                                   participants)
        return PendingOp(complete_at=complete, comm=self)

    def neighbor_exchange(self, partners_of: Callable[[int], Sequence[int]],
                          nbytes: float) -> None:
        """Blocking halo exchange (``ineighbor_exchange`` + ``wait``)."""
        self.ineighbor_exchange(partners_of, nbytes).wait()

    # -- collectives with data semantics ----------------------------------------------

    def bcast(self, value: Any, nbytes: float, root: int = 0) -> list[Any]:
        """Broadcast: every rank receives *value* (deep-shared, numpy-copied)."""
        self._check_root(root)
        self._sync_collective(nbytes, cm.bcast_time, name="bcast")
        return [np.copy(value) if isinstance(value, np.ndarray) else value
                for _ in range(self.nranks)]

    def reduce(self, values: Sequence[Any], nbytes: float, op: Callable = np.add,
               root: int = 0) -> Any:
        self._check_inputs(values)
        self._check_root(root)
        self._sync_collective(nbytes, cm.reduce_time, name="reduce")
        return self._fold(values, op)

    def allreduce(self, values: Sequence[Any], nbytes: float, op: Callable = np.add) -> list[Any]:
        self._check_inputs(values)
        self._sync_collective(nbytes, cm.allreduce_time, name="allreduce")
        acc = self._fold(values, op)
        return [np.copy(acc) if isinstance(acc, np.ndarray) else acc
                for _ in range(self.nranks)]

    def reduce_scatter(self, blocks: Sequence[Sequence[Any]], nbytes: float,
                       op: Callable = np.add) -> list[Any]:
        """Reduce-scatter: ``blocks[src][dst]`` contributions; rank *dst*
        receives the reduction over *src* of its block.

        *nbytes* is the full input vector size (each rank ends holding
        ``nbytes / p``), matching :func:`costmodel.reduce_scatter_time` —
        the first half of Rabenseifner's allreduce decomposition.
        """
        self._check_matrix(blocks, "reduce_scatter needs an {n}x{n} block matrix")
        self._sync_collective(nbytes, cm.reduce_scatter_time, name="reduce_scatter")
        return [self._fold([blocks[src][dst] for src in range(self.nranks)], op)
                for dst in range(self.nranks)]

    def allgather(self, values: Sequence[Any], nbytes: float) -> list[list[Any]]:
        self._check_inputs(values)
        self._sync_collective(nbytes, cm.allgather_time, name="allgather")
        gathered = list(values)
        return [list(gathered) for _ in range(self.nranks)]

    def gather(self, values: Sequence[Any], nbytes: float, root: int = 0) -> list[Any]:
        self._check_inputs(values)
        self._check_root(root)
        self._sync_collective(nbytes, cm.reduce_time, name="gather")
        return list(values)

    def scatter(self, values: Sequence[Any], nbytes: float, root: int = 0) -> list[Any]:
        self._check_inputs(values)
        self._check_root(root)
        self._sync_collective(nbytes, cm.bcast_time, name="scatter")
        return list(values)

    def _transpose(self, matrix: Sequence[Sequence[Any]]) -> list[list[Any]]:
        return [[matrix[src][dst] for src in range(self.nranks)]
                for dst in range(self.nranks)]

    def alltoall(self, matrix: Sequence[Sequence[Any]], nbytes_per_pair: float) -> list[list[Any]]:
        """``matrix[src][dst]`` payloads → returns ``out[dst][src]``."""
        out, op = self._alltoall("alltoall", matrix, nbytes_per_pair)
        op.wait()
        return out

    def ialltoall(self, matrix: Sequence[Sequence[Any]],
                  nbytes_per_pair: float) -> tuple[list[list[Any]], PendingOp]:
        """Nonblocking alltoall: data available immediately for staging,
        clocks advance at ``wait`` — the overlap GESTS uses to hide the
        transpose behind local FFT passes."""
        return self._alltoall("ialltoall", matrix, nbytes_per_pair)

    def _alltoall(self, name: str, matrix: Sequence[Sequence[Any]],
                  nbytes_per_pair: float) -> tuple[list[list[Any]], PendingOp]:
        self._check_matrix(matrix, "alltoall needs an {n}x{n} payload matrix")
        self._check_alive()
        p = self.machine_ranks
        t = cm.alltoall_time(p, nbytes_per_pair, self._collective_link())
        start = self._collective(name, t, p, nbytes_per_pair * p)
        done = {r: start + t for r in range(self.nranks)}
        return self._transpose(matrix), PendingOp(complete_at=done, comm=self)

    def alltoallv(self, matrix: Sequence[Sequence[Any]],
                  nbytes: Sequence[Sequence[float]]) -> list[list[Any]]:
        """Variable-size alltoall: ``nbytes[src][dst]`` per payload.

        Priced from the exact matrix when every rank is live; with
        modelled ranks the full matrix is never materialized, so the
        conservative pairwise bound gates every round by the largest
        exemplar pair.
        """
        self._check_matrix(matrix, "alltoallv needs an {n}x{n} payload matrix")
        self._check_matrix(nbytes, "nbytes must match the payload matrix shape")
        self._check_alive()
        p = self.machine_ranks
        link = self._collective_link()
        if self.nranks == p:
            t = cm.alltoallv_time([list(map(float, row)) for row in nbytes], link)
            total_bytes = float(sum(sum(r) for r in nbytes))
        else:
            worst = max(max(float(b) for b in row) for row in nbytes)
            t = (p - 1) * link.p2p_time(worst)
            mean_pair = float(sum(sum(float(b) for b in row) for row in nbytes))
            mean_pair /= self.nranks * self.nranks
            total_bytes = mean_pair * p * p
        self.clocks[:] = self._collective("alltoallv", t, p, total_bytes / p,
                                          total_bytes=total_bytes) + t
        return self._transpose(matrix)

    def barrier(self) -> None:
        self._sync_collective(0.0, cm.barrier_time, name="barrier")

    # -- validation --------------------------------------------------------------

    def _check_inputs(self, values: Sequence[Any]) -> None:
        if len(values) != self.nranks:
            raise CommError(f"expected {self.nranks} per-rank values, got {len(values)}")

    def _check_matrix(self, matrix: Sequence[Sequence[Any]], message: str) -> None:
        n = self.nranks
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise CommError(message.format(n=n))

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.nranks:
            raise CommError(f"root {root} out of range")

"""ULFM-style elastic recovery: survivors absorb the dead ranks' domain.

Checkpoint/restart treats a node failure as the end of the job step: tear
everything down, wait for the scheduler, relaunch at full width.  The
fault-tolerance track of the exascale readiness work argues for the
cheaper alternative the ULFM MPI extensions enable — ``MPIX_Comm_shrink``
the communicator to the survivors, ``MPIX_Comm_agree`` on the failure
set, *redistribute the domain*, and keep going at reduced width.  No
scheduler round-trip, no node-replacement wait; the price is a
redistribution all-to-all and a throughput haircut of
``old_nranks / new_nranks`` for the rest of the campaign (or until the
next allocation grows back).

This module is the redistribution arithmetic and its cost accounting:

* :class:`DomainSpec` — what an application exposes for elastic
  recovery: how many distributable items it owns (particles, cells,
  boxes) and their per-item payload.  Apps advertise it through a
  duck-typed ``elastic_domain()`` method (:func:`domain_of`), so this
  module never imports application code — no import cycles.
* :func:`plan_shrink` — diff the balanced block partition
  (:func:`~repro.mpisim.decomposition.block_owners`) over the old and
  new rank counts: items stranded on dead ranks are *reloaded* from the
  last checkpoint (their in-memory copy died with the node), items whose
  balanced owner merely changed *migrate* survivor-to-survivor.
* :func:`redistribute` — charge the survivor-to-survivor migration
  through the shrunk communicator's ``alltoallv``, so the cost follows
  the same Hockney model as every other message in the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.mpisim.comm import SimComm
from repro.mpisim.decomposition import DecompositionError, block_owners


@dataclass(frozen=True)
class DomainSpec:
    """An application's distributable state, as the recovery layer sees it.

    ``nitems`` is the global count of the finest-grained migratable unit
    (HACC particles, Pele cells, AMR boxes); ``bytes_per_item`` its
    payload, ghost/halo data included.
    """

    nitems: int
    bytes_per_item: float
    label: str = "items"

    def __post_init__(self) -> None:
        if self.nitems < 0:
            raise ValueError("nitems must be non-negative")
        if self.bytes_per_item < 0:
            raise ValueError("bytes_per_item must be non-negative")


def domain_of(app: object) -> DomainSpec | None:
    """The app's :class:`DomainSpec` via its ``elastic_domain()`` hook.

    Returns ``None`` for apps that don't participate in elastic recovery
    (they can still be shrink-recovered; redistribution is just free).
    """
    hook = getattr(app, "elastic_domain", None)
    if not callable(hook):
        return None
    spec = hook()
    if spec is None:
        return None
    if not isinstance(spec, DomainSpec):
        raise TypeError(
            f"elastic_domain() must return a DomainSpec or None, "
            f"got {type(spec).__name__}"
        )
    return spec


@dataclass(frozen=True)
class ShrinkPlan:
    """The data motion implied by re-balancing onto the survivors.

    ``send_items[i, j]`` counts items survivor *i* (new numbering) ships
    to survivor *j*; ``reloaded_items`` died with their owners and come
    back from the checkpoint instead (that read is priced by the
    runner's recovery path, not here).
    """

    nitems: int
    old_nranks: int
    new_nranks: int
    migrated_items: int
    reloaded_items: int
    bytes_per_item: float
    send_items: np.ndarray  # (pair_ranks, pair_ranks) int64
    #: side of ``send_items``.  Equals ``new_nranks`` for a dense plan;
    #: a *weighted-group* plan (built with ``pair_of``) folds the
    #: machine-pair traffic onto ``R`` exemplar pairs, each cell holding
    #: the worst per-pair count it stands for — the bound the
    #: representative-rank ``alltoallv`` prices exactly.  ``migrated_items`` /
    #: ``reloaded_items`` stay machine-exact either way.
    pair_ranks: int = 0

    def __post_init__(self) -> None:
        if self.pair_ranks == 0:
            object.__setattr__(self, "pair_ranks",
                               int(self.send_items.shape[0]))

    @property
    def migrated_bytes(self) -> float:
        return self.migrated_items * self.bytes_per_item

    @property
    def reloaded_bytes(self) -> float:
        return self.reloaded_items * self.bytes_per_item


def plan_shrink(nitems: int, survivors: Sequence[int], old_nranks: int,
                bytes_per_item: float = 8.0, *,
                pair_of: Sequence[int] | np.ndarray | None = None
                ) -> ShrinkPlan:
    """Diff the balanced partitions before and after a shrink.

    ``survivors`` are old-numbering ranks, in order; they become new
    ranks ``0..len(survivors)-1`` (dense renumbering preserving order —
    exactly what :meth:`~repro.mpisim.comm.SimComm.shrink` does).

    ``pair_of`` (length ``len(survivors)``) maps each *new* rank to the
    exemplar slot that stands for it on a representative-rank
    communicator (:meth:`~repro.mpisim.comm.SimComm.proxy_live_indices`
    of the shrunk comm).  When given, the dense
    ``new_nranks x new_nranks`` send matrix — 42 GB at 72,592 survivors
    — is never materialized: machine pairs fold onto exemplar pairs,
    each cell keeping the **max** per-pair item count it covers, which
    is exactly the worst-pair bound the scaled ``alltoallv`` prices.
    """
    surv = np.asarray(sorted(int(r) for r in survivors), dtype=np.int64)
    if surv.size == 0:
        raise DecompositionError("cannot redistribute onto zero survivors")
    if surv.size != np.unique(surv).size:
        raise DecompositionError("duplicate survivor ranks")
    if surv[0] < 0 or surv[-1] >= old_nranks:
        raise DecompositionError(
            f"survivors {surv.tolist()} out of range for {old_nranks} ranks"
        )
    new_n = int(surv.size)
    old_owner = block_owners(nitems, old_nranks)
    new_owner = block_owners(nitems, new_n)
    remap = np.full(old_nranks, -1, dtype=np.int64)
    remap[surv] = np.arange(new_n, dtype=np.int64)
    holder = remap[old_owner]  # -1: the item's in-memory copy is gone
    dead = holder < 0
    moving = ~dead & (holder != new_owner)
    if pair_of is not None:
        pairs = np.asarray(pair_of, dtype=np.int64)
        if pairs.shape != (new_n,):
            raise DecompositionError(
                f"pair_of must map all {new_n} survivors, "
                f"got shape {pairs.shape}")
        nlive = int(pairs.max()) + 1 if pairs.size else 0
        send = np.zeros((nlive, nlive), dtype=np.int64)
        if moving.any():
            # count items per machine pair, then keep each exemplar
            # cell's worst machine pair (O(nitems), never O(new_n^2))
            codes = holder[moving] * new_n + new_owner[moving]
            upairs, counts = np.unique(codes, return_counts=True)
            np.maximum.at(send, (pairs[upairs // new_n],
                                 pairs[upairs % new_n]), counts)
    else:
        send = np.zeros((new_n, new_n), dtype=np.int64)
        if moving.any():
            np.add.at(send, (holder[moving], new_owner[moving]), 1)
    return ShrinkPlan(
        nitems=int(nitems), old_nranks=int(old_nranks), new_nranks=new_n,
        migrated_items=int(moving.sum()), reloaded_items=int(dead.sum()),
        bytes_per_item=float(bytes_per_item), send_items=send,
    )


def redistribute(comm: SimComm, plan: ShrinkPlan) -> float:
    """Charge the plan's survivor-to-survivor motion on the shrunk comm.

    Runs a real ``alltoallv`` with the plan's byte matrix so the time
    lands on the communicator clocks (Hockney per-pair costs, slowest
    rank defines the step).  Returns the simulated seconds it took.
    """
    if comm.machine_ranks != plan.new_nranks:
        raise DecompositionError(
            f"plan targets {plan.new_nranks} ranks, comm models "
            f"{comm.machine_ranks}"
        )
    if comm.nranks != plan.pair_ranks:
        raise DecompositionError(
            f"plan's send matrix covers {plan.pair_ranks} executed ranks, "
            f"comm executes {comm.nranks} — build the plan with the "
            f"shrunk comm's proxy_live_indices()"
        )
    t0 = comm.elapsed
    n = comm.nranks
    payload = [[None] * n for _ in range(n)]
    nbytes = (plan.send_items * plan.bytes_per_item).tolist()
    comm.alltoallv(payload, nbytes)
    return comm.elapsed - t0


def shrink_and_redistribute(app: object, comm: SimComm
                            ) -> tuple[SimComm, ShrinkPlan | None, float]:
    """The full elastic-recovery collective sequence, in one call.

    ``agree`` on the failure set, ``shrink`` to the survivors, re-balance
    the app's domain onto them.  Returns
    ``(shrunk_comm, plan_or_None, redistribution_seconds)``; the caller
    swaps the shrunk communicator in and keeps stepping.
    """
    new_comm = comm.shrink()
    spec = domain_of(app)
    if spec is None or spec.nitems == 0:
        return new_comm, None, 0.0
    survivors = new_comm.parent_ranks
    pair_of = None
    if new_comm.machine_ranks != new_comm.nranks:
        # representative-rank survivor comm: fold the machine-pair
        # traffic onto the exemplar pairs the comm actually executes
        pair_of = new_comm.proxy_live_indices()
    plan = plan_shrink(spec.nitems, survivors, comm.machine_ranks,
                       spec.bytes_per_item, pair_of=pair_of)
    dt = redistribute(new_comm, plan)
    return new_comm, plan, dt

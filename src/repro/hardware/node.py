"""Node architecture: CPU sockets + GPU devices + fabric attachment."""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.cpu import CPUSpec
from repro.hardware.gpu import GPUSpec, Precision
from repro.hardware.interconnect import InterconnectSpec


@dataclass(frozen=True)
class NodeSpec:
    """One compute node.

    ``gpus_per_node`` counts *devices as the runtime sees them* — 8 for a
    Frontier node (four MI250X packages, two GCDs each), 6 for Summit.
    ``gpu`` is therefore the per-device spec (MI250X GCD, not the package).
    """

    name: str
    cpu: CPUSpec
    cpu_sockets: int
    gpu: GPUSpec | None = None
    gpus_per_node: int = 0
    interconnect: InterconnectSpec | None = None

    @property
    def has_gpus(self) -> bool:
        return self.gpu is not None and self.gpus_per_node > 0

    def peak_flops(self, precision: Precision = Precision.FP64, *, matrix: bool = False) -> float:
        """Aggregate node peak FLOP/s at *precision* (GPUs if present, else CPUs)."""
        if self.has_gpus:
            assert self.gpu is not None
            return self.gpus_per_node * self.gpu.peak(precision, matrix=matrix)
        return self.cpu_sockets * self.cpu.peak(precision)

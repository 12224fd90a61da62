"""E3SM-MMF (§3.5): latency-dominated CRM throughput and its three levers.

E3SM-MMF is not a Table 2 row; its story is the strong-scaling/latency
one: a 1000-2000× realtime throughput target forces tiny per-GPU
workloads, making kernel-launch latency, allocation latency, and register
spills the first-order terms.  The app wires the CRM kernel ensemble to
the optimization levers (fusion/fission balance, same-stream async
launching, the YAKL pool allocator) and reports realtime throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.crm import (
    CrmStepTime,
    crm_kernel_ensemble,
    crm_step_time,
    optimize_ensemble,
    realtime_throughput,
)
from repro.hardware.catalog import FRONTIER
from repro.hardware.gpu import GPUSpec


@dataclass(frozen=True)
class E3smConfig:
    """Strong-scaled configuration: few CRM columns per GCD."""

    columns_per_gpu: int = 32
    dt_model_seconds: float = 10.0


@dataclass(frozen=True)
class E3smResult:
    step: CrmStepTime
    throughput: float  # simulated seconds per wall second

    @property
    def meets_target(self) -> bool:
        """The ECP throughput target: 1000-2000x realtime."""
        return self.throughput >= 1000.0


def run(device: GPUSpec, cfg: E3smConfig = E3smConfig(), *,
        optimized: bool = True) -> E3smResult:
    kernels = crm_kernel_ensemble(columns=cfg.columns_per_gpu)
    if optimized:
        kernels = optimize_ensemble(kernels, device)
    step = crm_step_time(
        kernels, device,
        same_stream_async=optimized,
        pool_allocator=optimized,
    )
    return E3smResult(
        step=step,
        throughput=realtime_throughput(step.total, dt_model_seconds=cfg.dt_model_seconds),
    )


def optimization_gain(cfg: E3smConfig = E3smConfig()) -> float:
    """All three levers together on Frontier."""
    device = FRONTIER.node.gpu
    base = run(device, cfg, optimized=False).step.total
    tuned = run(device, cfg, optimized=True).step.total
    return base / tuned


def lever_breakdown(cfg: E3smConfig = E3smConfig()) -> dict[str, float]:
    """Individual gain of each §3.5 lever on Frontier (vs. all-off)."""
    device = FRONTIER.node.gpu
    kernels = crm_kernel_ensemble(columns=cfg.columns_per_gpu)
    base = crm_step_time(kernels, device, same_stream_async=False,
                         pool_allocator=False).total
    fused = crm_step_time(optimize_ensemble(kernels, device), device,
                          same_stream_async=False, pool_allocator=False).total
    async_ = crm_step_time(kernels, device, same_stream_async=True,
                           pool_allocator=False).total
    pool = crm_step_time(kernels, device, same_stream_async=False,
                         pool_allocator=True).total
    return {
        "fusion+fission": base / fused,
        "same-stream async": base / async_,
        "pool allocator": base / pool,
    }

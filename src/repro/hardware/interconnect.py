"""Interconnect specifications (Hockney α-β parameters per fabric).

The paper's machines span Cray Aries (Cori/Theta), dual-rail EDR InfiniBand
(Summit), and two generations of HPE Slingshot (100 GbE on Spock/Birch,
200 GbE on Crusher/Frontier).  The MPI cost model in
:mod:`repro.mpisim.costmodel` consumes these parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

_G = 1e9


@dataclass(frozen=True)
class InterconnectSpec:
    """Point-to-point fabric parameters.

    Parameters
    ----------
    name:
        Fabric product name.
    latency:
        Small-message one-way latency α in seconds (MPI level).
    bandwidth:
        Per-NIC injection bandwidth in B/s (1/β).
    nics_per_node:
        Injection ports per node; ranks on a node share them.
    gpu_aware:
        Whether the MPI stack can move device buffers without staging
        through host memory.
    gpu_aware_efficiency:
        Fraction of link bandwidth achieved on device-resident buffers.
    """

    name: str
    latency: float
    bandwidth: float
    nics_per_node: int = 1
    gpu_aware: bool = False
    gpu_aware_efficiency: float = 0.9


#: Cray Aries dragonfly — Cori, Theta.
ARIES = InterconnectSpec(
    name="Cray Aries",
    latency=1.3e-6,
    bandwidth=10.0 * _G,
    nics_per_node=1,
    gpu_aware=False,
)

#: Dual-rail EDR InfiniBand — Summit.
IB_EDR_DUAL = InterconnectSpec(
    name="EDR InfiniBand (dual-rail)",
    latency=1.0e-6,
    bandwidth=12.5 * _G,
    nics_per_node=2,
    gpu_aware=True,
    gpu_aware_efficiency=0.92,
)

#: EDR InfiniBand single rail — NREL Eagle.
IB_EDR = InterconnectSpec(
    name="EDR InfiniBand",
    latency=1.0e-6,
    bandwidth=12.5 * _G,
    nics_per_node=1,
    gpu_aware=False,
)

#: HPE Slingshot with 100 GbE NICs (Slingshot-10) — Spock, Birch.
SLINGSHOT_10 = InterconnectSpec(
    name="Slingshot-10 (100 GbE)",
    latency=1.8e-6,
    bandwidth=12.5 * _G,
    nics_per_node=1,
    gpu_aware=True,
    gpu_aware_efficiency=0.85,
)

#: HPE Slingshot with 200 GbE Cassini NICs (Slingshot-11) — Crusher, Frontier.
SLINGSHOT_11 = InterconnectSpec(
    name="Slingshot-11 (200 GbE)",
    latency=1.7e-6,
    bandwidth=25.0 * _G,
    nics_per_node=4,
    gpu_aware=True,
    gpu_aware_efficiency=0.92,
)

#: First-generation early-access clusters used plain 100 Gb IB-class fabric.
EARLY_ACCESS_FABRIC = InterconnectSpec(
    name="100 Gb fabric (early access)",
    latency=1.5e-6,
    bandwidth=12.5 * _G,
    nics_per_node=1,
    gpu_aware=False,
)

ALL_INTERCONNECTS: tuple[InterconnectSpec, ...] = (
    ARIES,
    IB_EDR_DUAL,
    IB_EDR,
    SLINGSHOT_10,
    SLINGSHOT_11,
    EARLY_ACCESS_FABRIC,
)

"""Young/Daly optimal checkpoint intervals, tied to the machine models.

Young (1974): with checkpoint cost δ and machine MTBF M, the optimal
compute time between checkpoints is ``W* = sqrt(2 δ M)``.  Daly (2006)
refined the estimate and gave the expected-runtime model; both are
first-order in δ/M.  This module computes

* the optimal interval from a checkpoint size and the same α-β machine
  parameters :mod:`repro.mpisim.costmodel` uses for every other transfer
  (checkpoints ride the node's NIC to the parallel filesystem);
* the system MTBF of an N-node machine from a per-node MTBF (failures
  compose: ``M_sys = M_node / N`` — the reason 4 096-node campaigns
  checkpoint hourly while a workstation never bothers);
* the predicted overhead-vs-interval curve the
  :class:`~repro.resilience.runner.ResilientRunner` measures, so tests
  can check the measured minimum lands where the theory says.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.hardware.machine import MachineSpec
from repro.mpisim.costmodel import link_parameters, ranks_per_nic
from repro.resilience.faults import FaultInjector, FaultKind
from repro.resilience.runner import CheckpointCostModel

#: Node-level MTBF assumed for paper-era leadership machines, seconds.
#: Frontier acceptance targeted O(10 h) full-system MTBF at 9 408 nodes,
#: which backs out to a few years per node.
NODE_MTBF_SECONDS = 8.0e7


def young_daly_interval(checkpoint_cost: float, mtbf: float) -> float:
    """``W* = sqrt(2 δ M)`` — compute seconds between checkpoints."""
    if checkpoint_cost <= 0:
        raise ValueError("checkpoint cost must be positive")
    if mtbf <= 0:
        raise ValueError("MTBF must be positive")
    return math.sqrt(2.0 * checkpoint_cost * mtbf)


def system_mtbf(machine: MachineSpec, *,
                node_mtbf: float = NODE_MTBF_SECONDS) -> float:
    """Independent node failures compose: ``M_sys = M_node / nodes``."""
    if node_mtbf <= 0:
        raise ValueError("node MTBF must be positive")
    return node_mtbf / machine.nodes


def machine_checkpoint_cost(machine: MachineSpec, nbytes_per_node: int, *,
                            restart_cost: float = 60.0) -> CheckpointCostModel:
    """A :class:`CheckpointCostModel` from the machine's own fabric.

    Per-node checkpoint traffic leaves through the node's NICs with every
    rank writing at once — the same ``ranks_per_nic`` sharing model the
    application's halo exchanges pay.  Reads come back at full fabric
    rate (restart is one node pulling, not all nodes pushing).
    """
    fabric = machine.node.interconnect
    if fabric is None:
        raise ValueError(f"{machine.name} has no interconnect spec")
    ranks = max(machine.node.gpus_per_node, 1)
    shared = link_parameters(
        fabric,
        ranks_sharing_nic=ranks_per_nic(ranks, fabric),
        device_buffers=machine.node.has_gpus,
    )
    solo = link_parameters(fabric)
    return CheckpointCostModel(
        write_bandwidth=1.0 / shared.beta,
        read_bandwidth=1.0 / solo.beta,
        latency=shared.alpha,
        restart_cost=restart_cost,
    )


def predicted_overhead(interval: float, checkpoint_cost: float, mtbf: float, *,
                       restart_cost: float = 0.0) -> float:
    """First-order expected overhead fraction at compute interval W.

    ``δ/(W+δ) + (failure rate) × (expected rework + restart)``: the
    checkpoint tax plus, once per MTBF, half an interval of lost work,
    the checkpoint writes that period already paid, and the restart.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    period = interval + checkpoint_cost
    rework = 0.5 * period + restart_cost
    return checkpoint_cost / period + rework / mtbf


def daly_expected_runtime(solve_time: float, interval: float,
                          checkpoint_cost: float, mtbf: float, *,
                          restart_cost: float = 0.0) -> float:
    """Daly's (2006) exponential-failure expected wall clock.

    ``T = M e^{R/M} (e^{(W+δ)/M} − 1) T_s / W`` — exact for Poisson
    failures with rework resuming from the last checkpoint.
    """
    if solve_time <= 0 or interval <= 0:
        raise ValueError("solve time and interval must be positive")
    m = mtbf
    return (
        m
        * math.exp(restart_cost / m)
        * (math.exp((interval + checkpoint_cost) / m) - 1.0)
        * solve_time
        / interval
    )


def scaled_fault_injector(rng: np.random.Generator, machine: MachineSpec, *,
                          machine_ranks: int | None = None,
                          node_mtbf: float = NODE_MTBF_SECONDS,
                          time_compression: float = 1.0,
                          kinds: Iterable[FaultKind] = (
                              FaultKind.RANK_FAILURE,),
                          ) -> FaultInjector:
    """A :class:`FaultInjector` sized to the whole modelled machine.

    Targets draw uniformly over every machine rank (``machine_ranks``,
    defaulting to ``nodes x gpus_per_node`` — 72,592 on Frontier), not
    just the exemplars a representative-rank communicator executes, and
    each enabled kind's MTBF is the *system* MTBF from
    :func:`system_mtbf` — node failures compose, so doubling the node
    count halves the time between events.

    ``time_compression`` divides the MTBF for compressed-timescale
    campaigns (a seconds-long simulated campaign standing in for a
    weeks-long one); it scales every node count identically, so the
    1/N shape of the resilience-overhead curve survives compression.
    """
    if time_compression <= 0:
        raise ValueError("time_compression must be positive")
    if machine_ranks is None:
        machine_ranks = machine.nodes * max(machine.node.gpus_per_node, 1)
    m_sys = system_mtbf(machine, node_mtbf=node_mtbf) / time_compression
    return FaultInjector(
        rng=rng,
        mtbf={FaultKind(kind): m_sys for kind in kinds},
        max_target=int(machine_ranks),
    )


def optimal_interval_for_machine(machine: MachineSpec, nbytes_per_node: int, *,
                                 node_mtbf: float = NODE_MTBF_SECONDS) -> float:
    """End-to-end: Young/Daly interval for a checkpoint of
    *nbytes_per_node* on *machine*, with δ from the fabric cost model and
    M from the node count."""
    cost = machine_checkpoint_cost(machine, nbytes_per_node)
    delta = cost.write_time(nbytes_per_node)
    return young_daly_interval(delta, system_mtbf(machine, node_mtbf=node_mtbf))

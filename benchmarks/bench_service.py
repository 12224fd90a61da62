"""Soak benchmark for the campaign service: throughput + queue latency.

PR 7's tentpole added :mod:`repro.service`; this bench soaks it the way
a facility would qualify a scheduler: a seeded open-loop arrival stream
(three tenants, the four-size HACC job mix, fault injection ON) against
Summit-like and Frontier-like pools, recording

* **sustained jobs/sec** and **p50/p99 queue-wait** on the *simulated*
  clock (the service's SLOs — machine-independent, bit-reproducible);
* **wall-clock runtime** of each soak, printed for reference; the
  ``service_soak`` perfbench workload measures it with repeats.

Every soak also asserts the acceptance contract: each completed
campaign's final state is bit-identical to stepping the same app with no
service, no faults and no runner at all (the PR 4 recovery invariant
composed with the service's seeding discipline).  Run directly or
through pytest::

    PYTHONPATH=src python benchmarks/bench_service.py
"""

from __future__ import annotations

import time

from repro.resilience.faults import FaultKind
from repro.resilience.runner import CheckpointCostModel
from repro.service import (
    CampaignService,
    EasyBackfillScheduler,
    OpenLoopArrivals,
    build_pool,
    failure_free_checksum,
)

#: fault environment scaled to the job mix (sub-second campaigns):
#: every soak sees real recoveries, spare draws and requeues.
MTBF = {
    FaultKind.RANK_FAILURE: 1.5,
    FaultKind.DEVICE_OOM: 6.0,
    FaultKind.LINK_DEGRADATION: 3.0,
}
TENANTS = {"astro": 2.0, "chem": 1.0, "climate": 1.0}
COST = CheckpointCostModel(restart_cost=0.05)
NJOBS = 500
SEED = 2023

#: the two qualification pools; arrival rate tuned to ~0.7-0.8 offered
#: utilization so queues form without the open loop diverging.
POOLS = {
    "summit-like": dict(machine="summit", nodes=32, spares=2, rate=80.0),
    "frontier-like": dict(machine="frontier", nodes=64, spares=4, rate=160.0),
}


def run_soak(machine: str, *, nodes: int, spares: int, rate: float) -> dict:
    """One seeded soak of ``NJOBS`` jobs; returns its SLO record."""
    pool = build_pool(machine, nodes=nodes, spares=spares)
    arrivals = OpenLoopArrivals(rate=rate, tenants=TENANTS, seed=SEED)
    jobs = arrivals.draw(NJOBS)
    service = CampaignService(
        pool, seed=SEED, fault_mtbf=MTBF, cost_model=COST,
        backoff_base=0.05,  # scaled to the sub-second job mix
        scheduler=EasyBackfillScheduler(borrow_after=1.0),
    )
    t0 = time.perf_counter()
    res = service.run(jobs)
    t_wall = time.perf_counter() - t0

    for job in res.completed:
        if job.result_checksum != failure_free_checksum(job):
            raise AssertionError(
                f"job {job.job_id} diverged from its failure-free replay "
                f"— the bit-identity contract is broken")

    slo = res.slo
    return {
        "machine": machine,
        "nodes": nodes,
        "spares": spares,
        "rate": rate,
        "njobs": NJOBS,
        "completed": slo.completed,
        "failed": slo.failed,
        "requeues": slo.requeues,
        "recoveries": sum(j.stats.recoveries
                          for j in res.completed if j.stats),
        "spare_denials": pool.spares.denials,
        "makespan_sim": slo.makespan,
        "jobs_per_sec": slo.jobs_per_sec,
        "p50_queue_wait": slo.p50_queue_wait,
        "p99_queue_wait": slo.p99_queue_wait,
        "utilization": slo.utilization,
        "backfill_fraction": slo.backfill_fraction,
        "t_wall": t_wall,
    }


def _print_record(name: str, rec: dict) -> None:
    print(f"{name} ({rec['machine']}, {rec['nodes']}n+{rec['spares']}sp, "
          f"rate {rec['rate']:.0f}/s): "
          f"{rec['completed']}/{rec['njobs']} jobs, "
          f"{rec['jobs_per_sec']:.2f} jobs/s, "
          f"wait p50/p99 {rec['p50_queue_wait']:.2f}/"
          f"{rec['p99_queue_wait']:.2f} s, "
          f"util {rec['utilization']:.1%}, "
          f"{rec['recoveries']} recoveries, "
          f"{rec['requeues']} requeues "
          f"[{rec['t_wall']:.1f} s wall]")


def test_bench_service():
    for name, cfg in POOLS.items():
        _print_record(name, run_soak(**cfg))


if __name__ == "__main__":
    test_bench_service()

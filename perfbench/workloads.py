"""The four benchmark workloads, each driven through public entry points.

Every workload is closed-loop: one *unit* is one call (or a fixed pair of
calls) into ``repro``, and the next unit starts when the previous one
returns.  Unit ``i`` of a run draws fresh inputs from
``SeedSequence([seed, i + 1])``, so a run's median averages over many
inputs and two seeds give comparable runs; the same seed gives the same
inputs.
Each workload names

* ``inputs(seed)``: fixed inputs and the run seed;
* ``warm()``: a small first call that pays lazy set-up (code generation,
  caches) before timing;
* ``prepare(i)`` / ``unit(prepared)``: unit ``i``'s generated inputs
  (untimed) and the timed call;
* ``work(prepared, out)``: units of work one unit did, for the
  workload's named wall-clock rate;
* ``check_unit(prepared, out)`` on every unit and ``check_run()`` once
  after the loop (an independent reference on the first unit, pooled
  statistics): correctness, outside the timed region;
* ``probe``: the host-speed probe of the kind of code that dominates
  the workload (``hostspeed.py``), which normalises its unit times;
* ``checked_outputs()``: ``name -> (value, unit, clock)`` results that
  are checked, not timed: the model's answers on the *simulated* clock
  and reference deviations.  They are printed, never as performance.

Engine arguments stay at their defaults (no ``backend=``, no non-default
``method=``) so the engine can be rebuilt underneath without touching the
benchmark.  Entry points are looked up on their modules at call time so
the traced run's wrappers see every call.
"""

from __future__ import annotations

import dataclasses

import numpy as np


def unit_seeds(seed: int, i: int, n: int = 1) -> tuple[int, ...]:
    """*n* seeds for unit *i* of a run with seed *seed* (``i = -1``: the
    warm-up call)."""
    return tuple(int(s) for s in
                 np.random.SeedSequence([seed, i + 1]).generate_state(n))


class Workload:
    name = ""
    why = ""
    rate_name = ""  # the workload's named end-to-end rate
    rate_unit = ""
    probe = ""  # a ``hostspeed.NOMINAL_S`` key

    def load(self) -> None:
        """Import the ``repro`` modules the workload calls."""

    def inputs(self, seed: int) -> None:
        self.seed = seed

    def warm(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int):
        raise NotImplementedError

    def unit(self, prepared):
        raise NotImplementedError

    def work(self, prepared, out) -> float:
        raise NotImplementedError

    def check_unit(self, prepared, out) -> list[str]:
        return []

    def check_run(self) -> list[str]:
        return []

    def checked_outputs(self) -> dict[str, tuple[float, str, str]]:
        return {}


class Fig2Chem(Workload):
    """Figure 2's chemistry stage: one batched BDF advance of a hot field."""

    name = "fig2_chem"
    why = ("Figure 2 chemistry stage; ode/chem/linalg do the work, no "
           "service, mpisim or resilience code runs")
    rate_name = "chem_cells_per_s"
    rate_unit = "cells/s"
    probe = "numpy_small"
    NCELLS = 48
    DT = 1e-9
    REF_CELLS = 2
    TOL = 1e-9

    def load(self) -> None:
        from repro.apps import pele
        self.pele = pele

    def inputs(self, seed: int) -> None:
        super().inputs(seed)
        self.cfg = self.pele.PeleConfig()
        self.first = None

    def warm(self) -> None:
        # generates and compiles the mechanism's Jacobian kernels
        T, C0 = self.prepare(-1)
        self.pele.integrate_chemistry_batched(self.cfg, T[:2], C0[:2],
                                              self.DT * 1e-3)

    def prepare(self, i: int):
        (s,) = unit_seeds(self.seed, i)
        return self.pele.chemistry_field(self.cfg, self.NCELLS, seed=s)

    def unit(self, prepared):
        T, C0 = prepared
        return self.pele.integrate_chemistry_batched(self.cfg, T, C0, self.DT)

    def work(self, prepared, out) -> float:
        return float(self.NCELLS)

    def check_unit(self, prepared, out) -> list[str]:
        if self.first is None:
            self.first = (prepared, out.y)
        if out.y.shape != prepared[1].shape or not np.isfinite(out.y).all():
            return ["non-finite or misshapen chemistry state"]
        return []

    def check_run(self) -> list[str]:
        (T, C0), y = self.first
        idx = np.sort(np.random.default_rng(self.seed).choice(
            self.NCELLS, self.REF_CELLS, replace=False))
        ref = self.pele.integrate_chemistry_scalar(self.cfg, T[idx], C0[idx],
                                                   self.DT)
        self.ref_dev = float(np.abs(y[idx] - ref).max()
                             / (np.abs(ref).max() + 1e-30))
        if not self.ref_dev <= self.TOL:
            return ["batched vs scalar reference deviation "
                    f"{self.ref_dev:.2e} > {self.TOL:g}"]
        return []

    def checked_outputs(self) -> dict[str, tuple[float, str, str]]:
        return {"scalar_ref_dev": (self.ref_dev, "ratio", "check")}


class ServiceSoak(Workload):
    """The campaign service's 500-job fault-on soak on a Summit-like pool."""

    name = "service_soak"
    why = ("campaign service soak; scheduler, ExaSky campaigns, perf-model "
           "pricing and checkpoint-write-heavy resilience, no chemistry")
    rate_name = "jobs_per_wall_s"
    rate_unit = "jobs/s"
    probe = "python"
    NJOBS = 500
    RATE = 80.0  # jobs per simulated second, ~0.75 offered utilisation
    TENANTS = {"astro": 2.0, "chem": 1.0, "climate": 1.0}
    #: jobs per unit replayed failure-free (all of them on the first unit)
    SAMPLE = 25

    def load(self) -> None:
        from repro import service
        from repro.resilience.faults import FaultKind
        from repro.resilience.runner import CheckpointCostModel
        self.service = service
        #: the fault table scaled to the sub-second job mix
        self.mtbf = {
            FaultKind.RANK_FAILURE: 1.5,
            FaultKind.DEVICE_OOM: 6.0,
            FaultKind.LINK_DEGRADATION: 3.0,
        }
        self.cost = CheckpointCostModel(restart_cost=0.05)

    def inputs(self, seed: int) -> None:
        super().inputs(seed)
        self.first = None
        self.sim = []

    def _build(self, seed: int, njobs: int):
        svc = self.service
        pool = svc.build_pool("summit", nodes=32, spares=2)
        jobs = svc.OpenLoopArrivals(rate=self.RATE, tenants=self.TENANTS,
                                    seed=seed).draw(njobs)
        engine = svc.CampaignService(
            pool, seed=seed, fault_mtbf=self.mtbf, cost_model=self.cost,
            backoff_base=0.05,
            scheduler=svc.EasyBackfillScheduler(borrow_after=1.0))
        return engine, jobs

    def warm(self) -> None:
        engine, jobs = self._build(unit_seeds(self.seed, -1)[0], 20)
        engine.run(jobs)

    def prepare(self, i: int):
        return self._build(unit_seeds(self.seed, i)[0], self.NJOBS)

    def unit(self, prepared):
        engine, jobs = prepared
        return engine.run(jobs)

    def work(self, prepared, out) -> float:
        return float(len(out.completed))

    def _diverged(self, jobs) -> list[str]:
        bad = [j.job_id for j in jobs
               if j.result_checksum != self.service.failure_free_checksum(j)]
        return ([f"{len(bad)} jobs diverged from their failure-free run"]
                if bad else [])

    def check_unit(self, prepared, out) -> list[str]:
        engine, _ = prepared
        if self.first is None:
            self.first = out
        self.sim.append((out.slo.jobs_per_sec, out.slo.p99_queue_wait,
                         len(out.failed)))
        # a job may end FAILED only through the service's requeue-then-fail
        # path: every attempt died and its requeues are used up
        done = self.service.JobState.COMPLETED
        failed = self.service.JobState.FAILED
        errs = [f"job {j.job_id} ended {j.state.value} after "
                f"{j.attempt} attempts" for j in out.jobs
                if not (j.state is done or (j.state is failed
                                            and j.attempt > engine.max_requeues))]
        if len(out.jobs) != self.NJOBS:
            errs.append(f"{len(out.jobs)} of {self.NJOBS} jobs accounted for")
        rng = np.random.default_rng(engine.seed)
        sample = rng.choice(len(out.completed),
                            min(self.SAMPLE, len(out.completed)),
                            replace=False)
        return errs + self._diverged([out.completed[k] for k in sample])

    def check_run(self) -> list[str]:
        return self._diverged(self.first.completed)

    def checked_outputs(self) -> dict[str, tuple[float, str, str]]:
        jps, p99, failed = (float(np.median([r[k] for r in self.sim]))
                            for k in range(3))
        return {
            "jobs_per_sim_s": (jps, "jobs/s", "sim, median of units"),
            "p99_queue_wait_s": (p99, "s", "sim, median of units"),
            "jobs_failed": (failed, "jobs", "check, median of units"),
        }


class MachineResilience(Workload):
    """Full-machine fault campaigns on the representative-rank engine."""

    name = "machine_resilience"
    why = ("4,096-node Daly sweep plus the CoMet weak-scaling curve; mpisim "
           "partitions and collectives, fault- and restore-heavy resilience")
    rate_name = "rank_steps_per_s"
    rate_unit = "rank-steps/s"
    probe = "python"
    SEEDS_PER_UNIT = 4
    CURVE_STEPS = 128
    #: the reproduction's CoMet exaflops at 9,074 nodes, and the paper's
    PRED_EF, PAPER_EF, PAPER_BAND = 6.446, 6.71, 0.25

    def load(self) -> None:
        from repro.experiments import resilience_at_scale, scaling
        self.ras = resilience_at_scale
        self.scaling = scaling

    def inputs(self, seed: int) -> None:
        super().inputs(seed)
        self.sweeps = []
        self.curve = None

    def warm(self) -> None:
        self.ras.run_daly_sweep(nodes=64, seeds=unit_seeds(self.seed, -1),
                                nsteps=16)
        self.scaling.weak_scaling_curve(self.scaling.CometWeakScaling(),
                                        (8, 16), steps=2)

    def prepare(self, i: int):
        return unit_seeds(self.seed, i, self.SEEDS_PER_UNIT)

    def unit(self, prepared):
        sweep = self.ras.run_daly_sweep(seeds=prepared)
        curve = self.scaling.weak_scaling_curve(
            self.scaling.CometWeakScaling(), steps=self.CURVE_STEPS)
        return sweep, curve

    def work(self, prepared, out) -> float:
        sweep, curve = out
        return float(len(sweep.points) * len(sweep.seeds) * sweep.nsteps
                     * sweep.machine_ranks
                     + sum(p.ranks for p in curve.points) * self.CURVE_STEPS)

    def check_unit(self, prepared, out) -> list[str]:
        sweep, curve = out
        self.sweeps.append(sweep)
        self.curve = curve
        errs = []
        if not sum(p.failures for p in sweep.points):
            errs.append("no fault fired in the Daly sweep")
        ef = curve.points[-1].metric
        if abs(ef - self.PRED_EF) > 0.01 * self.PRED_EF:
            errs.append(f"CoMet EF {ef:.4f} left its {self.PRED_EF} band")
        if abs(ef - self.PAPER_EF) > self.PAPER_BAND * self.PAPER_EF:
            errs.append(f"CoMet EF {ef:.4f} outside the paper's band")
        if curve.efficiency_at(9074) < 0.99:
            errs.append("CoMet weak scaling below 0.99 at 9,074 nodes")
        return errs

    def pooled_sweep(self):
        """The run's sweeps as one sweep over all their seeds.

        Where the measured optimum falls is a statistical claim: one
        4-seed sweep misses W* on about 1 seed set in 75 by sampling
        noise, so ``DalySweepResult.checks()`` is applied to the run's
        pooled seeds instead of to each unit.
        """
        first = self.sweeps[0]
        steps = [p.interval_steps for p in first.points]
        if any([p.interval_steps for p in s.points] != steps
               for s in self.sweeps):
            raise ValueError("sweeps disagree on their checkpoint intervals")
        points = tuple(
            dataclasses.replace(
                p, measured_overhead=float(np.mean(
                    [s.points[k].measured_overhead for s in self.sweeps])),
                failures=sum(s.points[k].failures for s in self.sweeps))
            for k, p in enumerate(first.points))
        return dataclasses.replace(
            first, points=points,
            seeds=tuple(x for s in self.sweeps for x in s.seeds))

    def check_run(self) -> list[str]:
        self.pooled = self.pooled_sweep()
        return [f"pooled Daly check failed: {k}"
                for k, ok in self.pooled.checks().items() if not ok]

    def checked_outputs(self) -> dict[str, tuple[float, str, str]]:
        sweep, curve = self.pooled, self.curve
        pooled = f"sim, {len(sweep.seeds)} pooled seeds"
        return {
            "w_star_steps": (sweep.w_star_steps, "steps", "sim"),
            "measured_best_steps": (float(sweep.measured_best_steps),
                                    "steps", pooled),
            "daly_agreement": (sweep.daly_agreement_factor, "x", pooled),
            "comet_ef_9074": (curve.points[-1].metric, "EF", "sim"),
            "comet_eff_9074": (curve.efficiency_at(9074), "ratio", "sim"),
        }


class CometTally(Workload):
    """CoMet CCC tallies on the bit-packed popcount engine."""

    name = "comet_tally"
    why = ("CoMet 2-way and 3-way CCC tallies; the only workload reaching "
           "similarity.gemmtally, it bypasses every other layer")
    rate_name = "ccc_cmp_per_s"
    rate_unit = "cmp/s"
    probe = "numpy_large"
    BLOCK2 = (256, 4096)
    BLOCK3 = (48, 2048)
    XCHECK_VECTORS = 24

    def load(self) -> None:
        from repro import similarity
        self.sim = similarity

    def inputs(self, seed: int) -> None:
        super().inputs(seed)
        n, m = self.BLOCK2
        n3, m3 = self.BLOCK3
        self.cmp = (n * (n - 1) // 2 * m
                    + n3 * (n3 - 1) * (n3 - 2) // 6 * m3)
        self.first = None

    def warm(self) -> None:
        a2, a3 = self.prepare(-1)
        self.sim.tally_2way(a2[:8, :128])
        self.sim.tally_3way(a3[:4, :128])

    def prepare(self, i: int):
        s2, s3 = unit_seeds(self.seed, i, 2)
        return (self.sim.random_allele_data(*self.BLOCK2, seed=s2),
                self.sim.random_allele_data(*self.BLOCK3, seed=s3))

    def unit(self, prepared):
        a2, a3 = prepared
        return self.sim.tally_2way(a2), self.sim.tally_3way(a3)

    def work(self, prepared, out) -> float:
        return float(self.cmp)

    def check_unit(self, prepared, out) -> list[str]:
        from repro.similarity.gemmtally import (tally_marginal_checksums,
                                                verify_tallies)
        (a2, a3), (c2, c3) = prepared, out
        if self.first is None:
            self.first = prepared, out
        errs = []
        row, col = tally_marginal_checksums(a2)
        if verify_tallies(c2, row, col, correct=False,
                          raise_on_detect=False).detected:
            errs.append("2-way tallies fail their marginal checksums")
        # no field is missing, so Σ_u counts3[s,t,u,i,j,k] is the 2-way
        # tally of (i, j) for every k
        pairs = self.sim.einsum_tallies_2way(a3)
        if not (c3.sum(axis=2) == pairs[..., None]).all():
            errs.append("3-way tallies disagree with their 2-way marginals")
        return errs

    def check_run(self) -> list[str]:
        (a2, a3), (c2, c3) = self.first
        k = self.XCHECK_VECTORS
        errs = []
        if not np.array_equal(c2[:, :, :k, :k],
                              self.sim.einsum_tallies_2way(a2[:k])):
            errs.append("2-way popcount tallies differ from einsum")
        if not np.array_equal(c3[:, :, :, :k, :k, :k],
                              self.sim.einsum_tallies_3way(a3[:k])):
            errs.append("3-way popcount tallies differ from einsum")
        return errs


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Fig2Chem, ServiceSoak, MachineResilience, CometTally)
}

"""Tests for the autotuning navigator (repro.tuning).

Covers the knob space, the seeded search strategies, the three tuning
domains, and the PR's cross-cutting contracts:

* **differential** — a tuned launch config changes only the modeled
  device timeline of a Pele campaign, never its numerical state;
* **determinism** — the same (seed, budget) reproduces the tuning report
  byte-for-byte across two fresh interpreter processes;
* **bench CI coverage** — every runnable benchmark script is invoked,
  flagless, by a CI step.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.apps.pele import PeleChemistryCampaign
from repro.gpu import Device, KernelSpec, time_kernel_sequence
from repro.hardware.catalog import FRONTIER, SUMMIT, TUNING_MACHINES
from repro.hardware.gpu import V100
from repro.tuning import (
    CheckpointFidelity,
    KernelConfig,
    TuningBudget,
    build_workload,
    grid_search,
    kernel_config_grid,
    run_navigator,
    seeded_subset,
    select_algorithm,
    sequence_time,
    successive_halving,
    tune_checkpoint_interval,
    tune_collectives,
)

REPO = Path(__file__).resolve().parents[1]


# -- knob space -----------------------------------------------------------------


class TestKernelConfig:
    def test_grid_starts_with_identity(self):
        grid = kernel_config_grid()
        assert grid[0].is_default
        assert len(grid) == len(set(grid))  # no duplicate configs

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelConfig(workgroup_size=16)
        with pytest.raises(ValueError):
            KernelConfig(register_cap=8)
        with pytest.raises(ValueError):
            KernelConfig(fission_parts=0)

    def test_identity_apply_is_noop(self):
        workload = build_workload("pele", SUMMIT)
        kernels = list(workload.kernels)
        assert KernelConfig().apply(kernels, workload.device) == kernels

    def test_describe_round_trips(self):
        for config in kernel_config_grid():
            assert KernelConfig.from_dict(config.describe()) == config

    def test_fission_conserves_work_and_launch_count(self):
        k = KernelSpec(name="hot", flops=1e12, bytes_read=1e9,
                       bytes_written=1e8, launch_count=7,
                       registers_per_thread=128)
        config = KernelConfig(fission_parts=2)
        pieces = config.apply([k], V100)
        assert len(pieces) == 2
        assert all(p.launch_count == 7 for p in pieces)
        assert sum(p.flops for p in pieces) == pytest.approx(k.flops)

    def test_tuned_sequence_time_matches_manual(self):
        workload = build_workload("e3sm", SUMMIT)
        config = KernelConfig(same_stream_async=True)
        manual = time_kernel_sequence(list(workload.kernels),
                                      workload.device,
                                      same_stream_async=True)
        assert sequence_time(config, list(workload.kernels), workload.device,
                             default_async=False) == manual


# -- search strategies ----------------------------------------------------------


class TestSearch:
    def test_seeded_subset_keeps_identity_and_is_deterministic(self):
        seq = np.random.SeedSequence(7)
        a = seeded_subset(100, 10, np.random.SeedSequence(7))
        b = seeded_subset(100, 10, seq)
        assert a == b
        assert a[0] == 0 and len(a) == 10 == len(set(a))
        assert a == sorted(a)

    def test_seeded_subset_full_when_budget_covers(self):
        assert seeded_subset(5, 10, np.random.SeedSequence(0)) == list(range(5))

    def test_grid_search_ties_break_early(self):
        result = grid_search([3, 1, 1, 2], float, budget=10,
                             seed_seq=np.random.SeedSequence(0))
        assert result.best_index == 1
        assert result.evaluated == 4

    def test_successive_halving_eliminates_and_finds_optimum(self):
        calls = []

        def objective(c, rung):
            calls.append((c, rung))
            return abs(c - 6) + (0.1 if rung == "cheap" else 0.0)

        result, finals = successive_halving(
            list(range(10)), objective, ["cheap", "trusted"])
        assert result.best_index == 6
        n_cheap = sum(1 for _, r in calls if r == "cheap")
        n_trusted = sum(1 for _, r in calls if r == "trusted")
        assert n_cheap == 10 and n_trusted == 5  # half survive
        assert set(finals) <= set(range(10)) and len(finals) == 5


# -- collective selection -------------------------------------------------------


class TestCollectives:
    def test_selection_never_worse_than_default(self):
        for machine in TUNING_MACHINES:
            for cell in tune_collectives(machine):
                assert cell.time <= cell.default_time
                assert cell.speedup >= 1.0

    def test_allgather_crossover_on_frontier(self):
        """Ring allgather pays (p-1) latency terms; at scalar sizes on
        75k ranks recursive doubling wins by orders of magnitude."""
        cell = select_algorithm(FRONTIER, "allgather", 8)
        assert cell.default_algorithm == "ring"
        assert cell.algorithm == "recursive-doubling"
        assert cell.speedup > 100.0

    def test_tie_bias_keeps_default(self):
        """Small-message allreduce: recursive doubling (the default) is
        already the latency-optimal choice, so the tuner keeps it."""
        cell = select_algorithm(SUMMIT, "allreduce", 8)
        assert cell.algorithm == cell.default_algorithm == "recursive-doubling"

    def test_unknown_op_rejected(self):
        with pytest.raises(KeyError, match="unknown collective"):
            select_algorithm(SUMMIT, "allscatter", 8)


# -- checkpoint-interval tuning -------------------------------------------------


class TestCheckpointTuning:
    RUNGS = (
        CheckpointFidelity(nsteps=48, seeds=(0,)),
        CheckpointFidelity(nsteps=192, seeds=(0, 1)),
    )

    def test_tuned_beats_checkpoint_every_step(self):
        result = tune_checkpoint_interval(SUMMIT, rungs=self.RUNGS,
                                          nparticles=64)
        assert result.tuned_interval_steps > result.default_interval_steps
        assert result.tuned_overhead < result.default_overhead
        assert result.speedup > 1.0
        assert result.campaigns > 0

    def test_tuned_interval_agrees_with_daly(self):
        """The measured optimum must land within 2x of Young/Daly's W*
        (the same acceptance band experiments.resilience_at_scale uses)."""
        result = tune_checkpoint_interval(SUMMIT, rungs=self.RUNGS,
                                          nparticles=64)
        assert result.daly_agreement_factor <= 2.0

    def test_reproducible(self):
        a = tune_checkpoint_interval(SUMMIT, rungs=self.RUNGS, nparticles=64)
        b = tune_checkpoint_interval(SUMMIT, rungs=self.RUNGS, nparticles=64)
        assert a == b


# -- differential: tuned config never touches numerics --------------------------


class TestTunedCampaignDifferential:
    def test_tuned_pele_campaign_bit_identical_numerics(self):
        """A tuned launch config reshapes the device timeline (launch
        counts, modeled clock) but the campaign state (T, C, steps_done)
        stays bit-identical to the default-config run."""
        default_dev, tuned_dev = Device(V100), Device(V100)
        default = PeleChemistryCampaign(ncells=4, seed=3, device=default_dev)
        tuned = PeleChemistryCampaign(
            ncells=4, seed=3, device=tuned_dev,
            kernel_config=KernelConfig(fission_parts=2))
        for _ in range(3):
            default.step()
            tuned.step()

        assert tuned.steps_done == default.steps_done == 3
        assert np.array_equal(tuned.T, default.T)
        assert np.array_equal(tuned.C, default.C)
        # ... while the modeled execution genuinely changed:
        assert tuned_dev.kernel_launches == 2 * default_dev.kernel_launches
        assert tuned_dev.elapsed != default_dev.elapsed

    def test_step_costs_unchanged(self):
        """The resilience-facing step cost is part of the numerics
        contract too: tuning must not change what the runner charges."""
        tuned = PeleChemistryCampaign(
            ncells=4, seed=3, device=Device(V100),
            kernel_config=KernelConfig(register_cap=64,
                                       same_stream_async=True))
        default = PeleChemistryCampaign(ncells=4, seed=3)
        assert tuned.step() == default.step()


# -- determinism across processes -----------------------------------------------


_DETERMINISM_SCRIPT = textwrap.dedent("""
    import hashlib
    from repro.hardware.catalog import SUMMIT
    from repro.tuning import CheckpointFidelity, TuningBudget, run_navigator

    budget = TuningBudget(
        kernel_evals=12,
        checkpoint_rungs=(CheckpointFidelity(nsteps=24, seeds=(0,)),
                          CheckpointFidelity(nsteps=48, seeds=(0, 1))),
        checkpoint_particles=48,
    )
    report = run_navigator(seed=11, budget=budget, machines=(SUMMIT,),
                           apps=("pele", "gamess", "e3sm"))
    payload = report.to_json().encode()
    print(len(payload), hashlib.sha256(payload).hexdigest())
""")


class TestDeterminism:
    def test_report_byte_identical_across_processes(self):
        """Same seed + budget => byte-identical canonical report, run in
        two fresh interpreters (no shared import-order or hash state)."""
        env = dict(os.environ,
                   PYTHONPATH=str(REPO / "src"),
                   PYTHONHASHSEED="random")
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", _DETERMINISM_SCRIPT],
                capture_output=True, text=True, env=env, check=True,
                cwd=str(REPO))
            outputs.append(proc.stdout.strip())
        assert outputs[0] == outputs[1]
        assert outputs[0]  # non-empty: the script actually printed

    def test_in_process_rerun_identical(self):
        budget = TuningBudget(
            kernel_evals=12,
            checkpoint_rungs=(CheckpointFidelity(nsteps=24, seeds=(0,)),),
            checkpoint_particles=48,
        )
        kwargs = dict(seed=5, budget=budget, machines=(SUMMIT,),
                      apps=("pele", "coast"))
        assert (run_navigator(**kwargs).to_json()
                == run_navigator(**kwargs).to_json())


# -- bench CI drift guard -------------------------------------------------------


class TestBenchCiCoverage:
    def test_every_runnable_bench_runs_in_ci(self):
        """Every benchmark script with a ``__main__`` block is run by a CI
        step as it is (benches have one mode, no flags), and nothing
        names the retired single-shot record file — otherwise a bench
        drifts unexercised until someone reruns it by hand."""
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        # a step counts when its one-line ``run:`` is exactly the bench
        # invocation: a commented-out or chained command does not
        run = re.compile(r"^[ \t]*(?:-[ \t]+)?run:[ \t]*"
                         r"PYTHONPATH=src python benchmarks/(bench_\w+\.py)"
                         r"[ \t]*\r?$", re.MULTILINE)
        in_ci = set(run.findall(ci))
        missing = [
            path.name
            for path in sorted((REPO / "benchmarks").glob("bench_*.py"))
            if '__name__ == "__main__"' in path.read_text()
            and path.name not in in_ci
        ]
        assert not missing, f"benches CI never runs: {missing}"
        # spelled in parts so that this file does not name it itself
        retired = "_".join(("BENCH", "repro", "speed")) + ".json"
        naming = [
            str(path.relative_to(REPO))
            for top in ("src", "tests", "benchmarks", ".github")
            for path in sorted((REPO / top).rglob("*"))
            if path.is_file() and path.suffix != ".pyc"
            and retired in path.read_text(errors="ignore")
        ]
        assert not naming, f"files naming {retired}: {naming}"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestReportShape:
    @pytest.fixture(scope="class")
    def report(self):
        budget = TuningBudget(
            kernel_evals=24,
            checkpoint_rungs=(CheckpointFidelity(nsteps=24, seeds=(0,)),),
            checkpoint_particles=48,
        )
        return run_navigator(seed=0, budget=budget, machines=(SUMMIT,),
                             apps=("pele", "e3sm", "gests"))

    def test_report_covers_all_domains(self, report):
        assert {r.app for r in report.kernel} == {"pele", "e3sm", "gests"}
        assert [c.machine for c in report.checkpoint] == ["Summit"]
        assert len(report.collectives) == 16  # 4 ops x 4 sizes

    def test_json_round_trip_stable(self, report):
        assert _sha(report.to_json()) == _sha(report.to_json())
        parsed = json.loads(report.to_json())
        assert parsed["seed"] == 0
        assert len(parsed["kernel"]) == 3

    def test_render_mentions_every_app(self, report):
        text = report.render()
        for app in ("pele", "e3sm", "gests"):
            assert app in text

    def test_kernel_result_lookup(self, report):
        r = report.kernel_result("pele", "Summit")
        assert r.evaluated <= 24
        with pytest.raises(KeyError):
            report.kernel_result("pele", "Perlmutter")

    def test_speedups_are_finite_and_positive(self, report):
        for r in report.kernel:
            assert np.isfinite(r.speedup) and r.speedup > 0
        for c in report.collectives:
            assert np.isfinite(c.speedup) and c.speedup >= 1.0


class TestWorkloads:
    def test_all_apps_build_on_both_machines(self):
        for machine in TUNING_MACHINES:
            for app in ("pele", "comet", "exasky", "gamess", "lsms",
                        "nuccor", "lammps", "e3sm", "gests", "coast"):
                w = build_workload(app, machine)
                assert w.kernels, f"{app} on {machine.name} has no kernels"
                assert w.machine == machine.name

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError, match="unknown app"):
            build_workload("xgc", SUMMIT)

    def test_workload_construction_deterministic(self):
        a = build_workload("lammps", FRONTIER)
        b = build_workload("lammps", FRONTIER)
        assert a.kernels == b.kernels


class TestMachineNames:
    def test_machine_names_match_catalog(self):
        assert [m.name for m in TUNING_MACHINES] == ["Summit", "Frontier"]

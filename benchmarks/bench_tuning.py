"""Autotuning navigator bench: tuned-vs-default across the fleet.

Runs the quick-budget :func:`repro.tuning.run_navigator` pass — ten apps
x {Summit, Frontier} kernel configs, per-machine checkpoint cadence,
per-machine collective selection — asserts the acceptance floor (at
least 6 of 10 apps improve, tuned checkpoint cadence beats
checkpoint-every-step) and gates the pass's wall time against
``T_QUICK_LIMIT``.  Run directly or through pytest::

    PYTHONPATH=src python benchmarks/bench_tuning.py
"""

from __future__ import annotations

import time

from repro.tuning import TuningBudget, TuningReport, run_navigator

SEED = 0
IMPROVED_APPS_FLOOR = 6  # acceptance: >= 6 of 10 apps improve

#: warm wall time of the quick pass on the 2-vCPU reference box (s).
#: The navigator has no perfbench workload, so this is the one absolute
#: wall bound left among the benches: 8x the recording plus 0.5 s slack.
T_QUICK_RECORDED = 0.750
T_QUICK_LIMIT = 8 * T_QUICK_RECORDED + 0.5


def _assert_acceptance(report: TuningReport) -> None:
    improved = report.improved_apps()
    assert len(improved) >= IMPROVED_APPS_FLOOR, (
        f"tuner improved only {len(improved)} apps ({improved}); "
        f"floor is {IMPROVED_APPS_FLOOR}")
    for ckpt in report.checkpoint:
        assert ckpt.tuned_overhead < ckpt.default_overhead, (
            f"{ckpt.machine}: tuned checkpoint cadence no better than "
            f"checkpoint-every-step")


def test_bench_tuning():
    # warm outside the timed region: first-import costs are not the tuner's
    run_navigator(seed=SEED, budget=TuningBudget.quick(),
                  machines=(), apps=())
    t0 = time.perf_counter()
    report = run_navigator(seed=SEED, budget=TuningBudget.quick())
    t_quick = time.perf_counter() - t0
    _assert_acceptance(report)
    print(f"quick: {len(report.improved_apps())}/10 apps improved, "
          f"{len(report.collectives)} collective cells, "
          f"checkpoint intervals "
          f"{[c.tuned_interval_steps for c in report.checkpoint]}, "
          f"{t_quick:.2f} s wall (limit {T_QUICK_LIMIT:.2f} s)")
    assert t_quick <= T_QUICK_LIMIT, (
        f"quick navigator pass took {t_quick:.2f} s "
        f"(limit {T_QUICK_LIMIT:.2f} s)")


if __name__ == "__main__":
    test_bench_tuning()

"""Wall-clock span benchmark feeding the observability regression gate.

PR 5's tentpole added :mod:`repro.observability`; this bench closes the
loop on its :class:`BenchRegressionGate`.  It re-measures four recorded
stages — the bit-packed GEMM tallies, the vectorized PM pairwise forces,
the batched reacting-flow advance and the Figure 2 batched chemistry
stage — inside *wall-clock* spans
(``Tracer(clock=time.perf_counter)``; the clock is injected here because
the observability package itself never imports ``time``), then gates
each span total against the band recorded in ``BENCH_repro_speed.json``:

    measured <= recorded * slow_factor + slack

A failure means either the reproduction got dramatically slower or the
instrumentation silently disappeared — both are regressions.  Run
directly::

    PYTHONPATH=src python benchmarks/bench_observability.py

Also runs through pytest (``python -m pytest
benchmarks/bench_observability.py``).  CI invokes the ``--quick`` form,
which is the same gate run (this bench *is* the smoke — it re-measures
recorded stages at recorded sizes and never writes the JSON).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.apps.pele import (
    PeleConfig,
    chemistry_field,
    integrate_chemistry_batched,
)
from repro.observability import BenchRegressionGate, Tracer, hot_spans_report
from repro.particles.pm import short_range_forces
from repro.similarity import random_allele_data, tally_2way

from bench_repro_speed import _ignition_flow

_BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_repro_speed.json"

#: span name -> key path into BENCH_repro_speed.json
GATED_SPANS = {
    "bench.comet_ccc": ("comet_ccc", "t_gemm_tally"),
    "bench.pm_pairwise": ("pm_pairwise", "t_vectorized"),
    "bench.reacting_flow": ("reacting_flow", "t_batched"),
    "bench.figure2_chem": ("figure2_chemistry_stage", "t_batched"),
}


def traced_stage_run(tracer: Tracer) -> None:
    """Re-run every gated stage at its recorded size under *tracer*."""
    with tracer.span("bench.comet_ccc", cat="bench", pid="bench",
                     tid="stages", n_vectors=48, n_fields=96):
        tally_2way(random_allele_data(48, 96, seed=0), method="popcount",
                   tracer=tracer)

    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, (400, 3))
    masses = rng.uniform(0.5, 2.0, 400)
    with tracer.span("bench.pm_pairwise", cat="bench", pid="bench",
                     tid="stages", nparticles=400):
        short_range_forces(x, masses, 1.0, rs=0.08)

    flow = _ignition_flow(batched=True, n=128)
    with tracer.span("bench.reacting_flow", cat="bench", pid="bench",
                     tid="stages", ncells=128, steps=5):
        for _ in range(5):
            flow.step()

    cfg = PeleConfig()
    T, C0 = chemistry_field(cfg, 48, seed=0)
    # warm outside the span, as the recorded run does: the generated
    # kernels compile on first call
    integrate_chemistry_batched(cfg, T[:2], C0[:2], 1e-9)
    with tracer.span("bench.figure2_chem", cat="bench", pid="bench",
                     tid="stages", ncells=48):
        integrate_chemistry_batched(cfg, T, C0, 1e-9)


def run_gate(*, slow_factor: float = 8.0, slack: float = 0.25) -> list:
    """Measure the gated stages and compare against the recorded bands.

    The band is deliberately loose (shared CI runners are noisy); the
    gate exists to catch order-of-magnitude regressions and vanished
    instrumentation, not 10% jitter.
    """
    tracer = Tracer(clock=time.perf_counter)
    traced_stage_run(tracer)
    gate = BenchRegressionGate(_BENCH_PATH, slow_factor=slow_factor,
                               slack=slack)
    checks = gate.check_span_totals(tracer, GATED_SPANS)
    for check in checks:
        print(check.describe())
    print()
    print(hot_spans_report(tracer, top=6))
    BenchRegressionGate.assert_ok(checks)
    return checks


def test_bench_observability_gate():
    checks = run_gate()
    assert len(checks) == len(GATED_SPANS)
    assert all(c.ok for c in checks)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: identical to the default gate run "
                             "(reads bands, never writes)")
    parser.parse_args()
    run_gate()

"""Smoke benchmark of the reproduction's *own* runtime (not the models).

PR 1's tentpole moved per-cell stiff chemistry onto a batched BDF
integrator (vectorized RHS sweeps, one-shot FD or generated analytic
Jacobians, batched LU with Jacobian reuse — §3.8's CVODE+MAGMA motif).
PR 3 recast the CoMet CCC tallies as bit-packed popcount/GEMM
contractions and vectorized the ExaSky pairwise force loops.  This bench
measures those changes where users feel them:

* the reacting-flow coupled-physics advance (hydro + batched chemistry),
  scalar loop vs batched path on the same ignition field;
* the Figure 2 chemistry stage: a drm19-scale hot field advanced by both
  paths;
* the CoMet 2-way CCC tallies: naive O(n²·m) Python pair loop vs the
  bit-packed GEMM-tally engine (integer exact);
* the ExaSky/PM pairwise short-range forces: per-pair Python loop vs the
  triangular-index broadcast sweep.

Results land in ``BENCH_repro_speed.json`` at the repo root (existing
keys from other benches are preserved) so the speedups are recorded
alongside the code.  Run directly::

    PYTHONPATH=src python benchmarks/bench_repro_speed.py

``--quick`` runs only the new CoMet/PM benches at tiny sizes and fails
if the vectorized paths are not faster — the CI smoke mode.  Also runs
through pytest (``python -m pytest benchmarks/bench_repro_speed.py``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.hydro.euler1d import Euler1D
from repro.hydro.reacting import ReactingFlow1D
from repro.particles.pm import short_range_forces
from repro.similarity import (
    ccc_from_counts,
    cooccurrence_counts_bruteforce,
    random_allele_data,
    tally_2way,
)

_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_repro_speed.json"

#: PR 1's recorded figure2 batched wall time (48 cells, dt=1e-9, seed 0)
#: on this reference box — the baseline the fused kernels are held to.
PR1_FIG2_T_BATCHED = 7.4809


def _ignition_flow(*, batched: bool, n: int = 128) -> ReactingFlow1D:
    hydro = Euler1D.sod(n)
    hydro.rho[:] = 1.0
    hydro.mom[:] = 0.0
    hydro.ener[:] = 2.0
    hot = slice(n // 2 - n // 4, n // 2 + n // 4)
    hydro.ener[hot] = 6.0
    flow = ReactingFlow1D(hydro=hydro, use_batched_chemistry=batched)
    flow.concentrations[0, :] = 1.0  # H2
    flow.concentrations[1, :] = 0.5  # O2
    return flow


def reacting_flow_speedup(*, n: int = 128, steps: int = 5) -> dict:
    """Scalar vs batched chemistry inside the coupled-physics advance."""
    timings = {}
    states = {}
    for batched in (False, True):
        flow = _ignition_flow(batched=batched, n=n)
        t0 = time.perf_counter()
        for _ in range(steps):
            flow.step()
        timings[batched] = time.perf_counter() - t0
        states[batched] = flow.concentrations.copy()
    dev = float(np.abs(states[False] - states[True]).max())
    return {
        "ncells": n,
        "steps": steps,
        "t_scalar": timings[False],
        "t_batched": timings[True],
        "speedup": timings[False] / timings[True],
        "max_abs_deviation": dev,
    }


def comet_ccc_speedup(*, n: int = 48, m: int = 96) -> dict:
    """Naive O(n²·m) tally loop vs the bit-packed GEMM-tally engine.

    Both paths produce *integer* tallies; the deviation is exact zero by
    construction, and recorded to prove it.
    """
    data = random_allele_data(n, m, seed=0)
    t0 = time.perf_counter()
    naive = cooccurrence_counts_bruteforce(data)
    t_naive = time.perf_counter() - t0
    t0 = time.perf_counter()
    gemm = tally_2way(data, method="popcount")
    t_gemm = time.perf_counter() - t0
    dev = float(np.abs(naive - gemm).max())
    sim_dev = float(np.abs(
        ccc_from_counts(naive, m) - ccc_from_counts(gemm, m)
    ).max())
    return {
        "n_vectors": n,
        "n_fields": m,
        "t_naive": t_naive,
        "t_gemm_tally": t_gemm,
        "speedup": t_naive / t_gemm,
        "max_abs_deviation": dev,  # integer tallies: exactly 0
        "max_similarity_deviation": sim_dev,
    }


def figure2_chemistry_stage(*, ncells: int = 48, dt: float = 1e-9,
                            seed: int = 0) -> dict:
    """The Figure 2 chemistry stage: scalar per-cell loop vs batched path.

    The batched path runs a tiny warm-up field first so the generated
    kernels compile outside the timed region, and the record holds its
    speedup over the scalar loop *and* over ``PR1_FIG2_T_BATCHED``, the
    recorded wall time of the first batched path (the fused-kernel win
    alone).
    """
    from repro.apps.pele import (
        PeleConfig,
        chemistry_field,
        integrate_chemistry_batched,
        integrate_chemistry_scalar,
    )

    cfg = PeleConfig()
    T, C0 = chemistry_field(cfg, ncells, seed=seed)
    t0 = time.perf_counter()
    y_scalar = integrate_chemistry_scalar(cfg, T, C0, dt)
    t_scalar = time.perf_counter() - t0
    scale = np.abs(y_scalar).max() + 1e-30

    integrate_chemistry_batched(cfg, T[:2], C0[:2], dt)
    t0 = time.perf_counter()
    res = integrate_chemistry_batched(cfg, T, C0, dt)
    t_batched = time.perf_counter() - t0
    return {
        "ncells": ncells,
        "dt": dt,
        "t_scalar": t_scalar,
        "t_batched": t_batched,
        "speedup": t_scalar / t_batched,
        "speedup_vs_pr1_batched": PR1_FIG2_T_BATCHED / t_batched,
        "max_rel_deviation": float(np.abs(res.y - y_scalar).max() / scale),
    }


def pm_pairwise_speedup(*, n: int = 400) -> dict:
    """Per-pair Python force loop vs the triangular broadcast sweep."""
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, (n, 3))
    masses = rng.uniform(0.5, 2.0, n)
    rs = 0.08
    t0 = time.perf_counter()
    naive = short_range_forces(x, masses, 1.0, rs=rs, vectorized=False)
    t_naive = time.perf_counter() - t0
    t0 = time.perf_counter()
    vec = short_range_forces(x, masses, 1.0, rs=rs)
    t_vec = time.perf_counter() - t0
    return {
        "nparticles": n,
        "t_naive": t_naive,
        "t_vectorized": t_vec,
        "speedup": t_naive / t_vec,
        "max_abs_deviation": float(np.abs(naive - vec).max()),
    }


def run_all(*, write: bool = True) -> dict:
    report = {
        "reacting_flow": reacting_flow_speedup(),
        "figure2_chemistry_stage": figure2_chemistry_stage(),
        "comet_ccc": comet_ccc_speedup(),
        "pm_pairwise": pm_pairwise_speedup(),
    }
    if write:
        merged = {}
        if _RESULT_PATH.exists():
            merged = json.loads(_RESULT_PATH.read_text())
        merged.update(report)
        _RESULT_PATH.write_text(json.dumps(merged, indent=2) + "\n")
    return report


def test_bench_repro_speed():
    report = run_all()
    rf = report["reacting_flow"]
    fig2 = report["figure2_chemistry_stage"]
    ccc = report["comet_ccc"]
    pm = report["pm_pairwise"]
    print(f"\nreacting flow ({rf['ncells']} cells x {rf['steps']} steps): "
          f"scalar {rf['t_scalar']:.2f} s, batched {rf['t_batched']:.2f} s "
          f"({rf['speedup']:.1f}x)")
    print(f"figure2 chemistry stage ({fig2['ncells']} cells): "
          f"scalar {fig2['t_scalar']:.2f} s, batched {fig2['t_batched']:.2f} s "
          f"({fig2['speedup']:.1f}x scalar, "
          f"{fig2['speedup_vs_pr1_batched']:.2f}x first batched path)")
    print(f"comet ccc tallies ({ccc['n_vectors']}x{ccc['n_fields']}): "
          f"naive {ccc['t_naive']:.3f} s, gemm-tally {ccc['t_gemm_tally']:.4f} s "
          f"({ccc['speedup']:.0f}x)")
    print(f"pm pairwise forces ({pm['nparticles']} particles): "
          f"naive {pm['t_naive']:.3f} s, vectorized {pm['t_vectorized']:.4f} s "
          f"({pm['speedup']:.0f}x)")
    assert rf["max_abs_deviation"] < 1e-6
    assert fig2["max_rel_deviation"] < 1e-6
    assert rf["speedup"] >= 3.0
    assert fig2["speedup"] >= 3.0
    # the fused kernels must beat the first batched path's wall time by 5x
    assert fig2["speedup_vs_pr1_batched"] >= 5.0
    assert ccc["max_abs_deviation"] == 0.0  # integer tallies, exact
    assert ccc["speedup"] >= 10.0
    assert pm["max_abs_deviation"] < 1e-9
    assert pm["speedup"] >= 10.0


def quick_smoke() -> dict:
    """Tiny-size CI smoke: the vectorized paths must beat the naive loops,
    and the batched chemistry must agree with the scalar loop on a
    small field (relative bands only — no absolute wall-clock references,
    so the smoke is robust to slow CI boxes)."""
    report = {
        "comet_ccc": comet_ccc_speedup(n=24, m=48),
        "pm_pairwise": pm_pairwise_speedup(n=150),
    }
    for name, entry in report.items():
        dev = entry["max_abs_deviation"]
        print(f"{name}: {entry['speedup']:.1f}x, max deviation {dev:g}")
        assert entry["speedup"] >= 1.0, f"{name} slower than the naive loop"
        assert dev < 1e-9, f"{name} deviates from the naive loop"
    fig2 = report["figure2_chemistry_stage"] = figure2_chemistry_stage(
        ncells=6, dt=1e-9, seed=0)
    print(f"figure2 chemistry: {fig2['speedup']:.1f}x scalar, "
          f"max rel deviation {fig2['max_rel_deviation']:g}")
    assert fig2["max_rel_deviation"] < 1e-6
    assert fig2["speedup"] >= 1.0, "batched slower than the scalar loop"
    return report


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="tiny-size CoMet/PM smoke run; no JSON write")
    if parser.parse_args().quick:
        quick_smoke()
    else:
        out = run_all()
        print(json.dumps(out, indent=2))

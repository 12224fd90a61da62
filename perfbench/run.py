"""The repo benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload fig2_chem --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.
Each workload runs in this fresh process with the BLAS thread count
pinned before numpy loads.  Set-up (imports, input generation and a small
warm-up call) is timed here and in ``SETUP_PROBES`` further fresh
processes, each divided by the slowdown the ``python`` host probe reads
around it; ``setup_s`` is their median.  The closed loop then runs units
for ``--seconds`` of unit wall time, checking every unit outside the
timed region, and the first unit once more against an independent
reference.  The workload's host-speed probe (``hostspeed.py``) runs
before the first unit and after each one; the ``norm_*`` metrics are
unit wall times divided by the slowdown of the probes that bracket them,
and the report prints the raw wall-clock figures beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
first half of the units untraced and the second half under the span
wrappers of ``layers.py``, and prints the per-layer metrics, including
the tracing overhead between the two halves; it also writes the
per-layer table to ``.perfbench_out/``.  The last line of standard
output is always one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import time

T_START = time.perf_counter()

#: BLAS threads, fixed before numpy is imported (at most nproc)
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: the seed baseline numbers are recorded on, and the one kept unseen
#: while a change is developed, to re-check its claim on
BASELINE_SEED = 1
HELD_OUT_SEED = 7
#: fresh processes that time set-up, besides the measuring process
SETUP_PROBES = 2
#: the host probe that normalises set-up (imports are interpreter work)
SETUP_HOST_PROBE = "python"
PROBE_TIMEOUT_S = 120

#: --trace 0 metrics: (name, unit, clock); ``norm_work_per_s`` is each
#: workload's named rate (``Workload.rate_name``)
NORM_CLOCK = "wall at nominal host speed"
END_TO_END = (
    ("setup_s", "s", NORM_CLOCK),
    ("peak_rss_mb", "MB", "memory"),
    ("norm_unit_p50_ms", "ms", NORM_CLOCK),
    ("norm_unit_tail_ms", "ms", NORM_CLOCK),
    ("norm_work_per_s", "work/s", NORM_CLOCK),
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=BASELINE_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def host_fingerprint() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
    except (TypeError, KeyError):  # numpy without the dicts mode
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


def set_up(name: str, seed: int):
    """Import, generate inputs and warm one workload; returns it with its
    ``(import_s, warm_s)`` measured from the start of this process."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    wl.load()
    t_imported = time.perf_counter()
    wl.inputs(seed)
    wl.warm()
    return wl, (t_imported - T_START, time.perf_counter() - t_imported)


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """Time set-up in a fresh process (this script, ``--setup-probe``)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        check=True)
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    return rec["import_s"], rec["warm_s"]


def run_units(wl, seconds: float, probe, rec=None, start: int = 0):
    """The closed loop: units ``start, start + 1, ...`` until their wall
    time reaches *seconds*, each checked after it returns.

    With a span recorder *rec*, each unit runs inside a root span (the
    wrappers must already be installed).  *probe* returns the host's
    slowdown; it runs before the first unit and after every unit, outside
    the timed region.  Returns unit times, total work, the failure
    messages of each unit and the ``len(times) + 1`` probe slowdowns.
    """
    from layers import UNIT_SPAN

    times, errors, work = [], [], 0.0
    slowdowns = [probe()]
    while sum(times) < seconds:
        prepared = wl.prepare(start + len(times))
        t0 = time.perf_counter()
        if rec is None:
            out = wl.unit(prepared)
        else:
            out = rec.call(UNIT_SPAN, wl.unit, (prepared,), {})
        times.append(time.perf_counter() - t0)
        slowdowns.append(probe())
        work += wl.work(prepared, out)
        errors.append(wl.check_unit(prepared, out))
    return times, work, errors, slowdowns


def measure(args) -> dict:
    from hostspeed import HostProbe
    from stats import count_failed, fail_frac, normalised, summarize

    wl, own_setup = set_up(args.workload, args.seed)
    if args.setup_probe:
        return {"import_s": own_setup[0], "warm_s": own_setup[1]}
    setup_speed = HostProbe(SETUP_HOST_PROBE)
    slow = setup_speed()  # read right after this process's own set-up
    setups = [tuple(x / slow for x in own_setup)]
    probe = HostProbe(wl.probe)
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    times, work, errors, slowdowns = run_units(wl, seconds, probe)
    res = {}
    if args.trace:
        from layers import Instrumentation, SpanRecorder

        rec = SpanRecorder()
        with Instrumentation(rec) as inst:
            t_traced, _, e_traced, s_traced = run_units(
                wl, seconds, probe, rec, len(times))
        errors += e_traced
        res.update(rec=rec, missing=inst.missing,
                   traced=summarize(normalised(t_traced, s_traced)),
                   traced_wall=sum(t_traced) / len(t_traced),
                   traced_slowdown=statistics.median(s_traced))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # run-level checks (the first unit's reference, pooled statistics)
    # count against the first unit
    errors[0] = errors[0] + wl.check_run()
    for _ in range(SETUP_PROBES):
        before = setup_speed()
        setup = probe_setup(args.workload, args.seed)
        slow = 0.5 * (before + setup_speed())
        setups.append(tuple(x / slow for x in setup))
    raw = summarize(times)
    timing = summarize(normalised(times, slowdowns))
    failed = count_failed(errors)
    res.update(
        workload=wl, timing=timing, errors=errors, failed=failed,
        fail_frac=fail_frac(len(errors), failed), setups=setups,
        checked=wl.checked_outputs(),
        metrics={
            "setup_s": statistics.median(i + w for i, w in setups),
            "peak_rss_mb": peak_rss_mb,
            "norm_unit_p50_ms": timing.p50 * 1e3,
            "norm_unit_tail_ms": timing.tail * 1e3,
            "norm_work_per_s": work / timing.total,
        },
        wall={
            "unit_p50_ms": raw.p50 * 1e3,
            "unit_tail_ms": raw.tail * 1e3,
            "work_per_s": work / raw.total,
            "host_slowdown": statistics.median(slowdowns),
        })
    return res


def report(args, res: dict, host: dict) -> dict:
    """Print the human-readable report; return the result line."""
    wl = res["workload"]
    timing = res["timing"]
    print(f"host: nproc={host['nproc']} (affinity {host['affinity']}) "
          f"python={host['python']} numpy={host['numpy']} "
          f"blas={host['blas']} blas_threads={host['blas_threads']}")
    print(f"workload {wl.name} seed={args.seed} (baseline seed "
          f"{BASELINE_SEED}, held-out seed {HELD_OUT_SEED}); closed loop, "
          f"1 client, {args.seconds:g} s of units; host probe {wl.probe}")
    print(f"  why: {wl.why}")
    m, w = res["metrics"], res["wall"]
    print(f"{'metric':<22}{'value':>16}  {'unit':<14}clock")
    rows = [(name, m[name], unit, clock) for name, unit, clock in END_TO_END]
    rows.insert(4, (f"norm_{wl.rate_name}", m["norm_work_per_s"],
                    wl.rate_unit, NORM_CLOCK))
    rows += [
        ("fail_frac", res["fail_frac"], "ratio", "count"),
        ("unit_p50_ms", w["unit_p50_ms"], "ms", "wall"),
        ("unit_tail_ms", w["unit_tail_ms"], "ms", "wall"),
        (wl.rate_name, w["work_per_s"], wl.rate_unit, "wall"),
        ("host_slowdown", w["host_slowdown"], "x", "probe, median"),
    ]
    for name, value, unit, clock in rows:
        print(f"{name:<22}{value:>16.6g}  {unit:<14}{clock}")
    print(f"  the tail is p{timing.tail_q:.1f} of {timing.n} units"
          + ("" if timing.tail_resolved else
             " (fewer than 21 units: the median stands in for the tail)"))
    print(f"  norm_work_per_s is norm_{wl.rate_name} on this workload")
    for name, (value, unit, clock) in res["checked"].items():
        print(f"{name:<22}{value:>16.6g}  {unit:<14}{clock} (checked output)")
    for i, errs in enumerate(res["errors"]):
        for e in errs:
            print(f"  FAILED unit {i}: {e}")
    if args.trace:
        metrics = trace_report(args, res)
    else:
        metrics = {name: {"value": m[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
    return {"correct": res["failed"] == 0, "attempted": len(res["errors"]),
            "failed": res["failed"], "metrics": metrics}


def trace_report(args, res: dict) -> dict:
    from layers import LAYER_NAMES, UNIT_SPAN, layer_values, per_layer_metrics

    traced = res["traced"]
    setups = res["setups"]
    layer = layer_values(res["rec"], traced.n)
    layer["setup.import_s"] = statistics.median(i for i, _ in setups)
    layer["setup.warm_s"] = statistics.median(w for _, w in setups)
    layer["trace.overhead_frac"] = traced.p50 / res["timing"].p50 - 1.0
    layer["host.slowdown"] = res["traced_slowdown"]
    layer["trace.missing_targets"] = float(len(res["missing"]))
    per_unit_wall = res["traced_wall"]
    lines = [f"per-layer wall time, {res['workload'].name} seed={args.seed}, "
             f"{traced.n} traced units, {per_unit_wall * 1e3:.1f} ms per unit",
             f"{'layer':<28}{'calls/unit':>12}{'self ms/unit':>14}"
             f"{'share':>8}"]
    for name in LAYER_NAMES:
        calls = layer[f"{name}.calls"]
        if calls:
            self_s = layer[f"{name}.self_s"]
            lines.append(f"{name:<28}{calls:>12.6g}{self_s * 1e3:>14.3f}"
                         f"{self_s / per_unit_wall:>8.1%}")
    outside = (1.0 - layer["trace.coverage"]) * per_unit_wall
    lines.append(f"{UNIT_SPAN + ' (unattributed)':<28}{'':>12}"
                 f"{outside * 1e3:>14.3f}{outside / per_unit_wall:>8.1%}")
    lines.append(f"trace.coverage {layer['trace.coverage']:.4f}  "
                 f"trace.overhead_frac {layer['trace.overhead_frac']:+.4f}  "
                 f"trace.missing_targets "
                 f"{int(layer['trace.missing_targets'])}  "
                 f"host.slowdown {layer['host.slowdown']:.3f}")
    lines += [f"  missing target: {p}" for p in res["missing"]]
    table = "\n".join(lines)
    print(table)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"layers_{res['workload'].name}_seed{args.seed}.txt"
     ).write_text(table + "\n")
    return {name: {"value": layer[name], "unit": unit}
            for name, unit in per_layer_metrics()}


def run_all(args) -> int:
    """Every workload in its own fresh process, each report passed
    through; the last line holds every workload's result line."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print()
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    res = measure(args)
    if args.setup_probe:
        print(json.dumps(res))
        return 0
    line = report(args, res, host_fingerprint())
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Reach audit: which functions in ``src/repro`` anything but a test enters.

Usage, from the repository root::

    python tools/reach.py

Each run (the experiment runners, every example with its CI flags,
every bench, the generated tuning checks and one checked unit of each
perfbench workload) runs in its own interpreter under a
``sys.setprofile``/``threading.setprofile`` hook that records the
``(file, co_firstlineno)`` of every code object entered under
``src/repro``.  An AST pass maps those entries to module-level functions
and methods (decorator lines included; nested functions count as part of
the function that defines them) and prints, per package, the function
lines entered, kept and not kept, then every unreached function.  An
unreached function is kept when a :data:`KEEP` rule gives a reason; the
script exits 1 if a run failed or an unreached function is not kept.

Dataclass-generated methods have no source file, so classes, enums and
constants are outside the count.  Standard library only; it takes a few
minutes on two cores and is not a CI step.
"""

from __future__ import annotations

import ast
import fnmatch
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PKG = SRC / "repro"


def _runs(tmp: str) -> list[tuple[str, str, list[str]]]:
    """``(kind, target, argv)`` for every run; trace files go to *tmp*."""
    out = [("module", "repro.experiments.runner", []),
           ("module", "repro.experiments.figure2", ["--ncells", "4"])]
    for ex in sorted((ROOT / "examples").glob("*.py")):
        if ex.stem == "resilient_campaign":
            out += [("script", str(ex), ["--fast"])]
            out += [("script", str(ex), ["--fast", "--policy", p])
                    for p in ("restart", "shrink", "spare")]
            out += [("script", str(ex),
                     ["--fast", "--trace", f"{tmp}/campaign_trace.json"])]
        elif ex.stem == "campaign_service":
            out += [("script", str(ex), ["--trace", f"{tmp}/service_trace.json",
                                         "--trace-campaigns"])]
        else:
            out += [("script", str(ex), [])]
    # benches with a __main__ block run flagless, as CI runs them
    for b in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        if '__name__ == "__main__"' in b.read_text():
            out += [("script", str(b), [])]
        else:
            out += [("pytest", str(b), ["-q", "-p", "no:cacheprovider",
                                        "--benchmark-disable"])]
    out += [("pytest", str(ROOT / "tests" / "test_tuning_checks.py"),
             ["-q", "-p", "no:cacheprovider"])]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out += [("perfbench", w["name"], []) for w in bench["workloads"]]
    return out


#: the child interpreter: ``python -c _CHILD out.json pkgdir kind target *argv``
_CHILD = r'''
import json, runpy, sys, threading
out, pkg, kind, target, *argv = sys.argv[1:]
codes = {}
def hook(frame, event, arg):
    if event == "call":
        codes[id(frame.f_code)] = frame.f_code
sys.setprofile(hook)
threading.setprofile(hook)
rc = 0
try:
    if kind == "module":
        sys.argv = [target, *argv]
        runpy.run_module(target, run_name="__main__", alter_sys=True)
    elif kind == "script":
        sys.argv = [target, *argv]
        sys.path.insert(0, target.rsplit("/", 1)[0])
        runpy.run_path(target, run_name="__main__")
    elif kind == "pytest":
        import pytest
        rc = int(pytest.main([target, *argv]))
    else:  # one checked perfbench unit
        sys.path.insert(0, "perfbench")
        from workloads import WORKLOADS
        wl = WORKLOADS[target]()
        wl.load()
        wl.inputs(1)
        wl.warm()
        p = wl.prepare(0)
        res = wl.unit(p)
        errs = wl.check_unit(p, res) + wl.check_run()
        wl.checked_outputs()
        rc = 1 if errs else 0
except SystemExit as e:
    rc = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
finally:
    sys.setprofile(None)
    threading.setprofile(None)
    hits = sorted({(c.co_filename, c.co_firstlineno) for c in codes.values()
                   if c.co_filename.startswith(pkg)})
    with open(out, "w") as f:
        json.dump(hits, f)
sys.exit(rc)
'''

_REF = "reference a claim or test checks against"
_SAFE = "fault detection or recovery"
_TARGET = "perfbench layer target, or called only by one"
_IFACE = "interface declaration or null object"

#: unreached functions kept anyway: ``module:qualname`` glob -> reason
KEEP: dict[str, str] = {
    "repro.chem.kinetics:numerical_jacobian": _REF,
    "repro.chem.kinetics:production_rates_batch": _REF,
    "repro.chem.kinetics:analytic_jacobian_batch": _REF,
    "repro.chem.rimp2:rimp2_energy_reference": _REF,
    "repro.graph.apsp:floyd_warshall": _REF,
    "repro.hydro.euler1d:sod_plateau_states": _REF,
    "repro.md.neighbor:brute_force_neighbors": _REF,
    "repro.md.reaxff:torsion_forces_naive": _REF,
    "repro.md.reaxff:_unit": _REF,
    "repro.md.reaxff:_pair_alignment_force": _REF,
    "repro.particles.pm:direct_forces": _REF,
    "repro.similarity.threeway:threeway_counts_bruteforce": _REF,
    "repro.similarity.threeway:threeway_counts_gemm": _REF,
    "repro.similarity.gemmtally:_popcount_words_lut":
        "the popcount on numpy < 2.0",
    "repro.resilience.abft:*": _SAFE,
    "repro.linalg.batched:*": _SAFE,
    "repro.ode.batched:BatchedBdfState.*": _SAFE,
    "repro.apps.pele:PeleChemistryCampaign.*": _SAFE,
    "repro.amr.hierarchy:AmrHierarchy.*": _SAFE,
    "repro.resilience.faults:FaultInjector.*": _SAFE,
    "repro.resilience.snapshot:snapshot_equal": _SAFE,
    "repro.gpu.memory:DeviceAllocator.check_invariants": _SAFE,
    "repro.backend.numpy_backend:NumpyBackend.lu_*": _TARGET,
    "repro.mpisim.partition:RankGroup.proxy_[ac]*": _TARGET,
    "repro.mpisim.partition:all_live_partition": _TARGET,
    **{f"repro.mpisim.comm:SimComm.{op}": _TARGET for op in (
        "split", "proxy_live_indices", "isendrecv", "neighbor_exchange",
        "reduce_scatter", "allgather", "gather", "scatter", "alltoall",
        "ialltoall", "_alltoall")},
    **{f"repro.mpisim.costmodel:{op}_time": _TARGET
       for op in ("allgather", "barrier", "reduce_scatter")},
    "repro.resilience.runner:SteppedApp.*": _IFACE,
    "repro.resilience.runner:RecoveryPolicy.recover": _IFACE,
    "repro.resilience.runner:SpareNodeSource.try_acquire": _IFACE,
    "repro.resilience.snapshot:Checkpointable.*": _IFACE,
    "repro.experiments.scaling:ScalingWorkload.*": _IFACE,
    "repro.observability.tracer:NullTracer.*": _IFACE,
}


def functions(path: Path):
    """``(qualname, first_line, last_line)`` for each module-level function
    and method in *path*; ``first_line`` is the first decorator's."""
    tree = ast.parse(path.read_text(), str(path))

    def walk(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in node.decorator_list]
                            + [node.lineno])
                yield f"{prefix}{node.name}", first, node.end_lineno
    yield from walk(tree.body, "")


def collect_hits() -> tuple[set[tuple[str, int]], list[str]]:
    """Every ``(file, first line)`` the runs entered, and the runs that
    exited non-zero."""
    hits: set[tuple[str, int]] = set()
    failed = []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        for k, (kind, target, argv) in enumerate(_runs(tmp)):
            out = f"{tmp}/hits{k}.json"
            label = " ".join([kind, os.path.relpath(target, ROOT)
                              if "/" in target else target, *argv])
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", _CHILD, out, str(PKG) + os.sep, kind,
                 target, *argv],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True)
            status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
            print(f"  {time.perf_counter() - t0:6.1f} s  {status:7s} {label}",
                  file=sys.stderr)
            if proc.returncode != 0:
                failed.append(label)
                print(proc.stderr[-2000:], file=sys.stderr)
            if os.path.exists(out):
                with open(out) as f:
                    hits |= {(fn, line) for fn, line in json.load(f)}
    return hits, failed


def report(hits: set[tuple[str, int]]) -> list[str]:
    """Print the per-package table, then the unreached functions (kept
    ones with their reason); returns the ones no :data:`KEEP` rule covers."""
    # package -> functions, lines, entered, kept, not kept
    table = defaultdict(lambda: [0, 0, 0, 0, 0])
    kept, loose = [], []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(SRC)
        mod = ".".join(rel.with_suffix("").parts)
        for qual, first, last in functions(path):
            n = last - first + 1
            row = table[rel.parts[1]]
            row[0] += 1
            row[1] += n
            if (str(path), first) in hits:
                row[2] += n
                continue
            name = f"{mod}:{qual}"
            reason = next((r for pat, r in KEEP.items()
                           if fnmatch.fnmatchcase(name, pat)), None)
            row[3 if reason else 4] += n
            (kept if reason else loose).append((f"{rel}:{first}", n, qual,
                                                reason))
    head = ("package", "funcs", "lines", "entered", "kept", "not kept")
    print(f"{head[0]:14s}" + "".join(f"{h:>9s}" for h in head[1:]))
    for pkg, row in sorted(table.items()) + [
            ("total", [sum(c) for c in zip(*table.values())])]:
        print(f"{pkg:14s}" + "".join(f"{v:9d}" for v in row))
    for title, rows in (("kept although unreached", kept),
                        ("unreached, not kept", loose)):
        print(f"\n{title}: {len(rows)} functions, "
              f"{sum(r[1] for r in rows)} lines")
        for where, n, qual, reason in rows:
            print(f"  {where:40s} {n:4d}  {qual}"
                  + (f"  [{reason}]" if reason else ""))
    return [r[2] for r in loose]


def main() -> int:
    hits, failed = collect_hits()
    loose = report(hits)
    for label in failed:
        print(f"run failed: {label}")
    return 1 if failed or loose else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload fig2_chem --runs 10 --first-seed 1

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints
each metric's median and quartile spread ((Q3 - Q1) / median, quartiles
as ``statistics.quantiles(n=4)``) next to the bound in
``BENCHMARK.json``.  A benchmark is steady when every spread except
``setup_s`` stays well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, check=True)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={line['correct']} "
              f"attempted={line['attempted']} failed={line['failed']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in line["metrics"].items()), flush=True)
        for k, v in line["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':<16}{'median':>14}{'spread':>10}{'bound':>8}")
    for k, vals in values.items():
        print(f"{k:<16}{statistics.median(vals):>14.6g}"
              f"{quartile_spread(vals):>10.4f}{bounds.get(k, float('nan')):>8g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

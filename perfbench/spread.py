"""Run the benchmark over several seeds, twice, and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload rare-split --seeds 1-10 --sets 2

For every end-to-end metric it prints, per set of runs, the median and the
spread (interquartile distance over median), then the shift of the second
set's median against the first, next to the metric's bound from
``BENCHMARK.json``.  The host-speed probe, timed around every measured
section, gets the same treatment: a metric whose spread follows the
probe's is host drift, not a program change.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from stats import median, spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LOG = os.path.join(ROOT, ".perfbench", "runs.jsonl")


def parse_seeds(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run; returns its metrics plus the logged probe."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} incorrect:\n{proc.stderr}")
    with open(LOG, encoding="utf-8") as handle:
        record = json.loads(handle.read().strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["host_probe_s"] = median(record["probe_s"])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    worst = 0.0
    for workload in args.workload:
        sets = [[run_once(workload, seed, bench["run_seconds"])
                 for seed in seeds] for _ in range(args.sets)]
        print(f"\n{workload}: {len(seeds)} seeds x {args.sets} sets")
        for name in list(bounds) + ["host_probe_s"]:
            columns = [[run[name] for run in runs] for runs in sets]
            medians = [median(col) for col in columns]
            spreads = [spread(col) for col in columns]
            shift = medians[-1] / medians[0] - 1.0 if medians[0] else 0.0
            bound = bounds.get(name)
            print(f"  {name:24s} medians "
                  + " ".join(f"{m:10.5g}" for m in medians)
                  + "  spreads " + " ".join(f"{s:6.3f}" for s in spreads)
                  + f"  shift {shift:+.3f}"
                  + (f"  bound {bound}" if bound is not None else ""))
            if bound is not None and name != "setup_s":
                worst = max(worst, max(spreads) / bound)
    print(f"\nlargest spread as a share of its bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

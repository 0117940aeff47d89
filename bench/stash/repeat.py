#!/usr/bin/env python3
"""Run-to-run spread of the STASH benchmark's end-to-end metrics.

Usage:
    python3 bench/stash/repeat.py [--workload NAME ...] [--runs N]
                                  [--seed-base N] [--seconds S]

For each workload, runs two sets (A and B) of N runs of run.py, A and B
alternating, every run with its own seed.  Prints, for every end-to-end
metric, each set's median and quartiles, the spread (interquartile
distance over the median, across all 2N runs) and the gap between the
set medians, both as a share of the median, beside the metric's bound
from BENCHMARK.json.  A gap worse than the bound is flagged GAP; a spread
above a third of the bound is flagged SPREAD (setup_s is exempt from
the spread rule).  Exits 1 when anything is flagged.  These records are
how the bounds in BENCHMARK.json were set: widen a bound only beside a
record of the spread that needs it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# Run i uses seed SEED_BASE + i: none is the pinned seed, every run its own.
SEED_BASE = 100


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"repeat.py: {workload} seed {seed} failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", dest="workloads")
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    flagged = False
    for workload in workloads:
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for i in range(2 * args.runs):
            sets["AB"[i % 2]].append(run_once(workload, SEED_BASE + i, seconds))
        print(f"\n{workload}: {args.runs} runs per set, seeds "
              f"{SEED_BASE}..{SEED_BASE + 2 * args.runs - 1}, {seconds:g} s")
        print(f"  {'metric':<12} {'A q1 / med / q3':>34} {'B q1 / med / q3':>34} "
              f"{'spread':>8} {'gap':>8} {'bound':>6}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r[name]["value"] for r in sets["A"]]
            b = [r[name]["value"] for r in sets["B"]]
            qa, qb, qall = quartiles(a), quartiles(b), quartiles(a + b)
            spread = (qall[2] - qall[0]) / qall[1]
            gap = (qb[1] - qa[1]) / qa[1]
            if metric["better"] == "higher":
                gap = -gap
            marks = []
            if abs(gap) > bound:
                marks.append("GAP")
            if name != "setup_s" and spread > bound / 3:
                marks.append("SPREAD")
            flagged = flagged or bool(marks)
            fmt = lambda q: " / ".join(f"{v:.4g}" for v in q)  # noqa: E731
            print(f"  {name:<12} {fmt(qa):>34} {fmt(qb):>34} {spread:>8.2%} "
                  f"{gap:>+8.2%} {bound:>6.0%} {' '.join(marks)}")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the STASH benchmark (bench/stash/README.md).

Usage:
    python3 bench/stash/run.py [--workload NAME] [--seed N] [--seconds S]
                               [--trace 0|1] [--build DIR]

Builds bench_stash from this checkout's sources (Release, into
.bench_build/stash unless --build names another directory), runs each
workload in its own process, and prints every metric as
`workload metric value unit`.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics of a
traced run.  Without --workload every workload runs, one after another.

Refuses to report numbers (exit 1) when the host has fewer cores than the
engine's threads + 1, when the build is not Release, or when any
correctness check failed: an answer digest differing from the sequential
oracle or, at the pinned seed, from pinned_digests.json; a failed query;
or a traced pass answering differently from its untraced twin.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("explore", "revisit", "churn", "cluster")
ENGINE_THREADS = 2
# A run must end within 180 s of its start, build excluded.
RUN_TIMEOUT_S = 170


def fail(message: str) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def host_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(build_dir: Path) -> Path:
    """Configures (once) and builds bench_stash; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: no STASH sources under {ROOT / 'src'}; cannot build",
              file=sys.stderr)
        sys.exit(2)
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "bench_stash",
                    "-j", str(host_cores())], check=True, stdout=sys.stderr)
    return build_dir / "bench_stash"


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(traced: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def run_workload(binary: Path, workload: str, args, trace_dir: Path,
                 deadline: float) -> dict:
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_dir / f"{workload}.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{workload}: bench_stash did not finish in time")
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 3):
        fail(f"{workload}: bench_stash exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result: dict, pinned: dict, seed: int) -> list[str]:
    """Every reason this result may not be reported."""
    problems = []
    workload = result["workload"]
    if not result["oracle_ok"]:
        problems.append("answers differ from the sequential oracle")
    if result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} queries failed")
    if not result["trace_digest_ok"]:
        problems.append("traced passes answered differently from untraced ones")
    want = pinned["digests"][workload]
    if seed == pinned["seed"] and result["digest"] != want:
        problems.append(f"digest {result['digest']} != pinned {want}")
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build", type=Path, default=ROOT / ".bench_build" / "stash")
    args = parser.parse_args()

    cores = host_cores()
    if cores < ENGINE_THREADS + 1:
        fail(f"{cores} cores < {ENGINE_THREADS} engine threads + 1 submitter; "
             "numbers from an oversubscribed host are not evidence")
    binary = build(args.build.resolve())

    pinned = json.loads((HERE / "pinned_digests.json").read_text())
    expected = expected_metrics(bool(args.trace))
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    sha = git_sha()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        deadline = time.monotonic() + RUN_TIMEOUT_S
        r = run_workload(binary, workload, args, ROOT / ".bench_build" / "traces",
                         deadline)
        if r["build_type"] != "Release":
            fail(f"build type is {r['build_type']}, not Release")
        problems = check(r, pinned, args.seed)
        print(f"{workload} provenance nproc={cores} threads={r['threads']} "
              f"build={r['build_type']} compiler={r['compiler']!r} git={sha} "
              f"seed={args.seed} digest={r['digest']}")
        if problems:
            for p in problems:
                print(f"{workload} FAILED {p}", file=sys.stderr)
            summary["correct"] = False
        summary["attempted"] += r["attempted"]
        summary["failed"] += r["failed"]
        metrics = {m["name"]: {"value": m["value"], "unit": m["unit"]}
                   for m in r["metrics"]}
        missing = [name for name in expected if name not in metrics]
        if missing:
            fail(f"{workload}: bench_stash did not report {', '.join(missing)}")
        if problems:
            continue
        print(f"{workload} error_rate {r['failed'] / r['attempted']:.6g} ratio "
              f"({r['failed']}/{r['attempted']})")
        if not args.trace:
            print(f"{workload} samples {r['samples']} count")
        for name, m in metrics.items():
            print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
            summary["metrics"][name if args.workload else f"{workload}.{name}"] = m
    if not summary["correct"]:
        fail("correctness check failed; not reporting numbers")
    print(json.dumps(summary))


if __name__ == "__main__":
    main()

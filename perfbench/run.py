#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see WORKLOADS.md).

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload chain_readonly --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (Release) into
.bench_build/perfbench; later calls only rebuild what changed. The last line
of standard output is the result JSON: {"correct", "attempted", "failed",
"metrics"}. The full result, host facts included, is also written to
.bench_build/results/.

Compare two full results (refused unless both come from optimised builds
with identical host facts):

    python3 perfbench/run.py --compare OLD.json NEW.json
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "results"
BINARY = BUILD_DIR / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
HOST_FACTS = ("cpus", "build_type", "optimized", "compiler", "shards")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; stdout is for results."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no src/ tree in {ROOT}: nothing to build")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR, *generator,
                        "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs], BUILD_TIMEOUT_S)


def run(args):
    build()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", RESULTS_DIR]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"{args.workload} exited with {done.returncode}", done.returncode or 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(done.stdout)
        fail("the last output line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    print("\n".join(lines))


def compare(old_path, new_path):
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    for name, res in (("old", old), ("new", new)):
        if not res["host"].get("optimized"):
            fail(f"refusing to compare: the {name} result is from an unoptimised build")
    differing = [k for k in HOST_FACTS if old["host"].get(k) != new["host"].get(k)]
    if differing:
        fail("refusing to compare: host facts differ: " +
             ", ".join(f"{k} {old['host'].get(k)!r} vs {new['host'].get(k)!r}"
                       for k in differing))
    if (old["workload"], old["trace"]) != (new["workload"], new["trace"]):
        fail("refusing to compare different workloads or trace modes")
    print(f"{old['workload']} (trace {int(old['trace'])}): old -> new")
    new_metrics = new["result"]["metrics"]
    for name, m in old["result"]["metrics"].items():
        if name not in new_metrics:
            print(f"  {name:36s} {m['value']:>14.6g} -> (missing)")
            continue
        a, b = m["value"], new_metrics[name]["value"]
        change = f"{(b / a - 1) * 100:+.1f}%" if a else "n/a"
        print(f"  {name:36s} {a:>14.6g} -> {b:<14.6g} {m['unit']:10s} {change}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.workload:
        run(args)
    else:
        parser.error("--workload or --compare is required")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Pipeline benchmark: builds perfbench_pipeline from source and runs it.

    python3 perfbench/run.py --workload plaza_dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The benchmark binary (perfbench/pipeline/) links the repository's libraries from
src/ and drives seeded, generated workloads through the real reader ->
uplink -> backend objects. It prints a table and, as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The build lands in $CARGO_TARGET_DIR (default
.bench_build) under the checkout root; build output goes to stderr.
--smoke runs every workload for about a second in both modes and checks
the outputs and the metric names against BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("plaza_dense", "corridor_pass", "fleet_ingest")
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 1.0


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ next to perfbench/; run from a full checkout")
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.isfile(cache):
        subprocess.run(
            ["cmake", "-S", PACKAGE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", out, "--target", "perfbench_pipeline", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench_pipeline")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def run(binary, workload, seed, seconds, trace, echo=True):
    """Runs the benchmark binary once; returns (exit code, parsed result)."""
    state = os.path.join(build_dir(), "state")
    shutil.rmtree(state, ignore_errors=True)
    os.makedirs(state)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--state-dir", state]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    finally:
        shutil.rmtree(state, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def check_result(result, trace):
    """Problems with a result line, as a list of strings."""
    if result is None:
        return ["no JSON result line"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("outputs failed their checks")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a positive integer")
    names = expected_metrics(trace)
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(names):
        problems.append(f"metrics {sorted(metrics)} != BENCHMARK.json {sorted(names)}")
    return problems


def smoke(binary):
    failures = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            code, result = run(binary, workload, 1, SMOKE_SECONDS, trace, echo=False)
            problems = check_result(result, trace)
            if code != 0:
                problems.append(f"exit code {code}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {workload} trace={int(trace)}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short run of every workload in both modes")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or pass --smoke)")

    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build failed ({e})")
    if args.smoke:
        return smoke(binary)
    code, result = run(binary, args.workload, args.seed, args.seconds,
                       bool(args.trace))
    problems = check_result(result, bool(args.trace))
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    if code != 0:
        return code
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

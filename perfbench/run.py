#!/usr/bin/env python3
"""Builds and runs the flattree benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload mcf-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench; later calls only re-check the build. Each
workload then runs in its own process with one exec worker
(FLATTREE_THREADS=1). The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; --trace 0 reports the end-to-end
metrics and --trace 1 the per-layer ones, as BENCHMARK.json lists them.
The exit code is 0 only when the build succeeded and every check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("mcf-sweep", "convert-apl", "packet-des", "svc-session")
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 150


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        fail("build step failed: %s" % e)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("flattree sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-G", "Unix Makefiles",
                   "-DCMAKE_BUILD_TYPE=Release"],
                  BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
               "perfbench_selftest", "--", "--no-print-directory", "-s"], BUILD_TIMEOUT_S)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(args):
    env = dict(os.environ, FLATTREE_THREADS="1")
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, universal_newlines=True,
                              timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out" % args.workload)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("workload %s exited %d without a result" % (args.workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    expected = declared_metrics(args.trace)
    if expected is not None and sorted(result["metrics"]) != sorted(expected):
        fail("metrics differ from BENCHMARK.json: got %s" % sorted(result["metrics"]))
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              env=dict(os.environ, FLATTREE_THREADS="1")).returncode
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

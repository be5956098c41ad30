#!/usr/bin/env python3
"""End-to-end benchmark of the EALGAP serving system.

Usage (from the root of a checkout):

    python3 e2ebench/run.py --workload metro_stream|fleet_daemon \
        --seed N --seconds S --trace 0|1

Builds e2ebench/ (a standalone CMake project over ../src) in Release into
.bench_build/e2ebench, runs one workload in its own process, prints a
readable report (stamps, output checks, every metric the run produced)
and, as the last line, one JSON object with the metrics BENCHMARK.json
declares: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Exits non-zero without a result when the build fails,
the build is not Release, or a declared metric is missing.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver binary; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "e2ebench", "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("error: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD_DIR, "e2ebench")


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none (not a git checkout)"


def source_digest():
    """SHA-256 over the sources the benchmark builds: names the code under
    test when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None. Steal is
    time the host ran something else while this VM had work: the share of
    a run that was stolen explains a slow run without rerunning it."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        log("error: unknown workload %r (have %s)" % (args.workload, workloads))
        return 2
    if args.seed < 0 or args.seconds <= 0:
        log("error: --seed must be >= 0 and --seconds > 0")
        return 2

    binary = build()
    if binary is None:
        return 1

    run_dir = os.path.join(ROOT, ".bench_build", "runs",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--state-dir", run_dir]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    ticks_before = cpu_ticks()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("error: workload timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("error: workload exited with %d" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    info = result["info"]
    if info.get("build_type") != "release":
        # Same rule as scripts/bench_to_json.sh: non-release numbers are
        # never reported.
        log("error: build_type=%r, refusing to report" % info.get("build_type"))
        return 3

    print("e2ebench %s seed=%d seconds=%s trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("stamp git_commit=%s source_digest=%s" % (git_commit(), source_digest()))
    ticks_after = cpu_ticks()
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        info["host_steal_pct"] = "%.3f" % (
            100.0 * (ticks_after[0] - ticks_before[0]) /
            (ticks_after[1] - ticks_before[1]))
    for key, value in info.items():
        print("info %s = %s" % (key, value))
    for name, outcome in result["checks"].items():
        print("check %s: %s" % (name, outcome))
    for name, m in result["metrics"].items():
        print("metric %s = %s %s" % (name, m["value"], m["unit"]))
    if args.trace:
        print("trace spans: %s" % os.path.relpath(trace_out, ROOT))

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            log("error: metric %s missing or not finite" % m["name"])
            return 1
        if got["unit"] != m["unit"]:
            log("error: metric %s unit %s, declared %s" %
                (m["name"], got["unit"], m["unit"]))
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

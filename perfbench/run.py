#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-functional|paper-timing|serve-mixed \
        --seed N --seconds S --trace 0|1

The script configures and builds perfbench/ (a standalone CMake package
that compiles ../src) into $CARGO_TARGET_DIR, or .bench_build when unset,
stamps the machine and build fingerprint, runs the benchmark binary and
relays its output.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Any build or run
failure exits non-zero without printing that line.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-functional", "paper-timing", "serve-mixed")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, **kw):
    """Run a build step; its output goes to stderr, stdout stays clean."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kw).returncode


def build(build_dir, jobs):
    cmake_dir = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return None
    if run_quiet(["cmake", "--build", cmake_dir, "-j", str(jobs)]) != 0:
        return None
    binary = os.path.join(cmake_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.splitlines()[0].strip() if out.returncode == 0 and out.stdout else None


def source_digest():
    """SHA-256 over every file the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(build_dir, jobs):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    cache = os.path.join(build_dir, "perfbench", "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = first_line([line.split("=", 1)[1].strip(),
                                           "--version"]) or compiler
                    break
    except OSError:
        pass
    return {
        "nproc": jobs,
        "cpu_model": cpu,
        "compiler": compiler,
        "build_type": "Release",
        "git_commit": (first_line(["git", "rev-parse", "HEAD"])
                       if os.path.isdir(os.path.join(ROOT, ".git")) else None) or "none",
        "source_digest": source_digest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    jobs = len(os.sched_getaffinity(0))
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir, jobs)
    if binary is None:
        log("build failed")
        return 1

    fp = fingerprint(build_dir, jobs)
    print("fingerprint: " + json.dumps(fp, sort_keys=True), flush=True)
    work_dir = os.path.join(build_dir, "perfbench-work")
    trace_dir = os.path.join(build_dir, "perfbench-traces")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(jobs), "--work-dir", work_dir,
           "--fingerprint", json.dumps(fp, sort_keys=True),
           "--trace-out", os.path.join(
               trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited with code {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("benchmark printed no result line")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

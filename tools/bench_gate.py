#!/usr/bin/env python3
"""Bench-regression gate for CI.

Compares a freshly produced BENCH_throughput.json against the baseline
checked into the repository and fails (exit 1) when the geometric mean
of the per-policy throughput drops more than TOLERANCE below the
baseline geomean.  Both simulator modes are gated independently:

  - functional_krefs_per_s — the trace-replay hot loop;
  - timing_krefs_per_s     — the event-engine + memory-hierarchy path
    (the cost every sweep cell pays, overhauled by the bucketed-wheel
    event queue; a regression here silently multiplies sweep time).

Each geomean is taken over the policies present in both files, so the
two sides always average the same set. A policy only the fresh file
lists (added to the bench after the baseline was recorded) is printed
and marked ungated; a policy only the baseline lists is reported as
missing and fails the gate.

Tolerance rationale: CI runners are shared and noisy; single-policy
numbers swing +/-10% run to run, but the geomean across the policies
is much more stable. 20% headroom keeps the gate quiet on runner
jitter while still catching real regressions (an accidental O(n) scan
in the hot path costs 2-10x, far beyond 20%).

Usage: bench_gate.py BASELINE.json FRESH.json [--tolerance 0.20]

Only the Python standard library is used.
"""

import argparse
import json
import math
import sys

EXPECTED_TOOL_VERSION = "hpe-bench-throughput/1"


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def check_stamp(doc, path):
    stamp = doc.get("tool_version")
    if stamp is None:
        sys.exit(f"error: {path} has no tool_version stamp; regenerate it "
                 "with tools/regen_bench.sh")
    if stamp != EXPECTED_TOOL_VERSION:
        sys.exit(f"error: {path} was produced by '{stamp}' but this gate "
                 f"expects '{EXPECTED_TOOL_VERSION}'; re-baseline with "
                 "tools/regen_bench.sh")


def geomean(data, key, names, path):
    rates = [float(data["policies"][name][key]) for name in names]
    if not rates or any(r <= 0 for r in rates):
        sys.exit(f"error: {path} has missing or non-positive {key}")
    return math.exp(sum(math.log(r) for r in rates) / len(rates))


def shared_policies(base, fresh, base_path):
    """Policies both files list, in the fresh file's order.

    Exits with an error when the fresh file lacks a baseline policy: a
    dropped row must not silently leave the gate.
    """
    missing = [name for name in base["policies"]
               if name not in fresh["policies"]]
    if missing:
        sys.exit(f"error: fresh results lack {', '.join(missing)}, "
                 f"which {base_path} gates")
    return [name for name in fresh["policies"] if name in base["policies"]]


def gate(mode, key, base, fresh, names, fresh_path, base_path, tolerance):
    """Print one mode's comparison; return True when within tolerance."""
    base_gm = geomean(base, key, names, base_path)
    fresh_gm = geomean(fresh, key, names, fresh_path)
    floor = base_gm * (1.0 - tolerance)
    ratio = fresh_gm / base_gm

    print(f"[{mode}] geomean over {len(names)} shared policies")
    print(f"  baseline geomean: {base_gm:10.1f} krefs/s")
    print(f"  fresh geomean:    {fresh_gm:10.1f} krefs/s  ({ratio:.2%})")
    print(f"  floor ({1 - tolerance:.0%} of baseline): {floor:10.1f}")
    for name, entry in fresh["policies"].items():
        note = "" if name in names else "  (ungated: not in baseline)"
        print(f"    {name:10s} {entry[key]:>10} krefs/s{note}")

    if fresh_gm < floor:
        print(f"FAIL: {mode} geomean dropped more than "
              f"{tolerance:.0%} below baseline", file=sys.stderr)
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed fractional drop below baseline geomean")
    args = ap.parse_args()

    base = load(args.baseline)
    fresh = load(args.fresh)
    check_stamp(base, args.baseline)
    check_stamp(fresh, args.fresh)
    names = shared_policies(base, fresh, args.baseline)
    ok = True
    for mode, key in (("functional", "functional_krefs_per_s"),
                      ("timing", "timing_krefs_per_s")):
        ok &= gate(mode, key, base, fresh, names, args.fresh, args.baseline,
                   args.tolerance)
    if not ok:
        return 1
    print("OK: both modes within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Gates a fresh bench JSON against a committed baseline.

CI's bench-smoke job runs the benchmark suites with --quick into a temp
dir, then feeds the results through this script next to the committed
BENCH_*.json files: any benchmark whose per-iteration real_time regressed
by more than the allowed factor (default 2x) fails the job. The wide
factor absorbs shared-runner noise and the --quick timings; what it
catches is the order-of-magnitude class of regression — an accidentally
quadratic loop, a lost fast path, a round-trip-per-op protocol slip.

Rows absent from the committed baseline are listed as "new" and never
fail the gate (they land before their baseline exists — e.g. a fresh
benchmark series). Rows present in the baseline but absent from the
current run are FAILURES: a benchmark that silently stops running
(renamed, deregistered, or crashing out before registration) would
otherwise retire its own perf coverage unnoticed. Retiring a benchmark
deliberately means refreshing the committed baseline in the same change.

Usage: compare_bench_json.py BASELINE CURRENT [--max-ratio N]
Exits non-zero listing every regressed or missing row.
"""

import argparse
import json
import sys

# google-benchmark reports real_time in the row's time_unit.
_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_rows(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{path}: unreadable or invalid JSON: {e}", file=sys.stderr)
        sys.exit(2)
    rows = {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("name")
        real_time = bench.get("real_time")
        unit = bench.get("time_unit", "ns")
        if not isinstance(name, str) or not isinstance(real_time, (int, float)):
            continue
        if bench.get("error_occurred"):
            continue
        rows[name] = float(real_time) * _UNIT_NS.get(unit, 1.0)
    return rows


def main():
    parser = argparse.ArgumentParser(
        description="Fail on >max-ratio real_time regressions vs a baseline")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="largest tolerated current/baseline real_time "
                             "ratio (default: 2.0)")
    args = parser.parse_args()

    baseline = load_rows(args.baseline)
    current = load_rows(args.current)
    if not baseline:
        print(f"{args.baseline}: no baseline rows — nothing to gate on",
              file=sys.stderr)
        return 2
    if not current:
        print(f"{args.current}: no benchmark rows ran", file=sys.stderr)
        return 2

    regressions = []
    missing = []
    compared = 0
    for name, base_ns in sorted(baseline.items()):
        if name not in current:
            print(f"{'MISSING':>10}  {'':>8}  {name}  "
                  "(in baseline, absent from current run)")
            missing.append(name)
            continue
        cur_ns = current[name]
        compared += 1
        if base_ns <= 0:
            continue
        ratio = cur_ns / base_ns
        marker = "REGRESSION" if ratio > args.max_ratio else "ok"
        print(f"{marker:>10}  {ratio:6.2f}x  {name}")
        if ratio > args.max_ratio:
            regressions.append((name, ratio))
    new_rows = sorted(set(current) - set(baseline))
    for name in new_rows:
        print(f"{'new':>10}  {'':>8}  {name}  (no baseline yet)")

    if missing:
        print(f"\n{len(missing)} baseline benchmark(s) did not run — "
              "either restore them or refresh the committed baseline:",
              file=sys.stderr)
        for name in missing:
            print(f"  {name}", file=sys.stderr)
    if compared == 0 and not missing:
        if new_rows:
            print(f"\nall {len(new_rows)} current benchmark(s) are new — "
                  "no baseline rows to gate on; refresh the committed "
                  "baseline to start gating them")
            return 0
        print("no benchmark names overlap between baseline and current",
              file=sys.stderr)
        return 2
    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed beyond "
              f"{args.max_ratio}x:", file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x", file=sys.stderr)
    if regressions or missing:
        return 1
    print(f"\nall {compared} compared benchmarks within "
          f"{args.max_ratio}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())

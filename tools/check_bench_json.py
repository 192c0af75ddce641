#!/usr/bin/env python3
"""Sanity-checks Google Benchmark JSON output.

CI's bench-smoke job runs the benchmark binaries with --quick and feeds the
resulting JSONs through this script. The numbers themselves are noise at
smoke timings; what this guards is the *shape* of the output — that every
benchmark actually ran, reported a real_time, that the scaling rows carry
the hw_threads counter the analysis scripts key on, and that the striped
server-saturation rows carry the stripe count, proving it flowed end to
end from the server's STATS reply.

Usage: check_bench_json.py BENCH_micro.json BENCH_scaling.json ...
Exits non-zero with a per-file message on the first malformed file.
"""

import json
import sys


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    sys.exit(1)


def check_context(path, context):
    """Rejects bench JSON measured on a debug or sanitized build.

    Timings from an unoptimized or sanitizer-instrumented libfpdm are not
    comparable to release numbers, so they must never land in the committed
    BENCH_*.json files. tools/run_benches.sh stamps fpdm_build_type /
    fpdm_sanitize / git_sha into the context; files without the stamp
    (hand-run binaries, pre-stamp files) are rejected too. Google
    Benchmark's own library_build_type is NOT consulted: it describes the
    prebuilt libbenchmark package, not this tree's code generation.
    """
    if not isinstance(context, dict):
        fail(path, "missing benchmark 'context'")
    build_type = context.get("fpdm_build_type")
    if not isinstance(build_type, str) or not build_type:
        fail(path, "context lacks fpdm_build_type — regenerate with "
                   "tools/run_benches.sh on a release build")
    # Allowlist, not denylist: 'unknown' (a build dir configured without
    # CMAKE_BUILD_TYPE, i.e. -O0) slipped through a debug-only check once
    # and landed debug timings in the committed baselines. Only the
    # optimized build types pass.
    if build_type.lower() not in ("release", "relwithdebinfo", "minsizerel"):
        fail(path, f"fpdm_build_type is '{build_type}' — benchmark numbers "
                   "need an optimized (Release-class) build")
    sanitize = context.get("fpdm_sanitize")
    if sanitize != "none":
        fail(path, f"fpdm_sanitize is '{sanitize}' — benchmark numbers are "
                   "only meaningful from an unsanitized build (expected "
                   "the explicit stamp 'none')")
    git_sha = context.get("git_sha")
    if not isinstance(git_sha, str) or not git_sha or git_sha == "unknown":
        fail(path, "context lacks git_sha — regenerate with "
                   "tools/run_benches.sh inside the git checkout")


def check_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"unreadable or invalid JSON: {e}")

    if not isinstance(doc, dict) or "benchmarks" not in doc:
        fail(path, "missing top-level 'benchmarks' key")
    check_context(path, doc.get("context"))
    benchmarks = doc["benchmarks"]
    if not isinstance(benchmarks, list) or not benchmarks:
        fail(path, "'benchmarks' is empty — no benchmark ran")

    for i, bench in enumerate(benchmarks):
        if not isinstance(bench, dict):
            fail(path, f"benchmarks[{i}] is not an object")
        name = bench.get("name")
        if not isinstance(name, str) or not name:
            fail(path, f"benchmarks[{i}] has no 'name'")
        # Error rows (SkipWithError) have no timings; surface them loudly
        # instead of letting a failed benchmark pass the smoke check.
        if bench.get("error_occurred"):
            fail(path, f"{name}: error_occurred: {bench.get('error_message')}")
        real_time = bench.get("real_time")
        if not isinstance(real_time, (int, float)) or real_time < 0:
            fail(path, f"{name}: missing or non-numeric 'real_time'")
        # Scaling rows must carry the hw_threads counter: the speedup curve
        # is only interpretable relative to the cores the host exposes.
        if name.startswith("BM_Scaling"):
            hw_threads = bench.get("hw_threads")
            if not isinstance(hw_threads, (int, float)) or hw_threads <= 0:
                fail(path, f"{name}: missing 'hw_threads' counter")
        # Striped saturation rows must carry the stripe count pulled over
        # the wire from the server's STATS reply — its absence means the
        # striped layout (or its observability) fell out of the bench
        # without anyone noticing.
        if name.startswith("BM_ServerSaturationStriped"):
            stripes = bench.get("stripes")
            if not isinstance(stripes, (int, float)) or stripes < 2:
                fail(path, f"{name}: missing or non-striped 'stripes' "
                           "counter")

    print(f"{path}: ok ({len(benchmarks)} benchmark rows)")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in argv[1:]:
        check_file(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

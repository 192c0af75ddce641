#!/usr/bin/env python3
"""End-to-end benchmark of the fpdm mining runtime: one workload per call.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (optimized, from the ../src tree) into .bench_build/ on
first use, records host facts, runs the named workload for --seconds and
prints two JSON lines: the run's context (host facts, settings), then the
result {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones (and
writes a Chrome trace-event file under .bench_build/traces/). Exits non-zero
without a result when the sources, the build or the run fail.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
OPTIMIZED = {"release", "relwithdebinfo", "minsizerel"}
# The measured run alone; a first call also builds, which may take longer.
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def check_call(cmd):
    # Build chatter goes to stderr: stdout carries only the two JSON lines.
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail(f"command failed: {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no fpdm source tree at {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        check_call(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"])
    check_call(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    cache = (BUILD / "CMakeCache.txt").read_text()
    match = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    build_type = match.group(1).strip() if match else ""
    if build_type.lower() not in OPTIMIZED or "-fsanitize" in cache:
        fail(f"refusing to measure build type '{build_type}' or a sanitized "
             f"build in {BUILD}")
    return BUILD / "perfbench"


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(cmd, timeout):
    # A session of its own, so a timeout takes down the forked servers and
    # workers too, not just the perfbench process.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout:.0f} s: {' '.join(map(str, cmd))}")
    if proc.returncode != 0:
        fail(f"exit code {proc.returncode}: {' '.join(map(str, cmd))}")
    lines = out.strip().splitlines()
    if not lines:
        fail("no output")
    return json.loads(lines[-1])


def check_result(result, spec, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics {got} do not match BENCHMARK.json {expected}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (perfbench/selftest.py): tiny inputs, and a reference
    # that every output must disagree with.
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--wrong-reference", action="store_true")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    binary = build()
    # Relative to ROOT (the binary's cwd) so unix socket paths stay short.
    state = Path(".bench_build") / f"state-{os.getpid()}"
    try:
        facts = run_binary([binary, "--host-facts", "--state-dir", state], 60)
        facts["git_sha"] = git_sha()
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--state-dir", state]
        trace_file = None
        if args.trace:
            traces = BUILD_ROOT / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            trace_file = traces / f"{args.workload}-seed{args.seed}.json"
            cmd += ["--trace-out", trace_file]
        if args.tiny:
            cmd.append("--tiny")
        if args.wrong_reference:
            cmd.append("--wrong-reference")
        result = run_binary(cmd, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(ROOT / state, ignore_errors=True)
    check_result(result, spec, args.trace)
    context = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "host": facts, "trace_file": str(trace_file or "")}
    print(json.dumps({"context": context}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, on tiny inputs (about a minute).

    python3 perfbench/selftest.py

For every workload of BENCHMARK.json it checks that run.py prints the
context line and a result whose metrics are exactly the end-to-end ones
(--trace 0) or the per-layer ones (--trace 1), each with its unit and a
finite value, that a correct run reports no failures, and that a
deliberately wrong reference turns into failures: failed > 0,
success_share < 1 and failed_share > 0. Exits non-zero on the first
mismatch.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_FACTS = {"cores", "fdatasync_us", "socketpair_rtt_us", "build_type",
              "git_sha"}


def run(workload, trace, wrong=False):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    if wrong:
        cmd.append("--wrong-reference")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd[2:])}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    context = json.loads(lines[-2])["context"]
    missing = HOST_FACTS - set(context["host"])
    if missing:
        sys.exit(f"FAIL {workload}: host facts missing {sorted(missing)}")
    return json.loads(lines[-1])


def check(condition, message):
    if not condition:
        sys.exit(f"FAIL {message}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            where = f"{workload} --trace {trace}"
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{where}: {result}")
            expected = {m["name"]: m["unit"] for m in spec[group]}
            metrics = result["metrics"]
            check(set(metrics) == set(expected),
                  f"{where}: metrics {sorted(metrics)}")
            for name, unit in expected.items():
                check(metrics[name]["unit"] == unit, f"{where}: unit of {name}")
                check(math.isfinite(metrics[name]["value"]),
                      f"{where}: value of {name}")
            if trace == 0:
                for name in ("job_s", "ops_per_s", "setup_s", "rss_peak_mb"):
                    check(metrics[name]["value"] > 0, f"{where}: {name} is 0")
        wrong = run(workload, 0, wrong=True)
        check(not wrong["correct"] and wrong["failed"] > 0
              and wrong["metrics"]["success_share"]["value"] < 1,
              f"{workload}: a wrong reference went unnoticed: {wrong}")
        wrong = run(workload, 1, wrong=True)
        check(wrong["metrics"]["failed_share"]["value"] > 0,
              f"{workload}: failed_share stayed 0 with a wrong reference")
        print(f"ok {workload}")


if __name__ == "__main__":
    main()

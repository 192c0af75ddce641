#!/usr/bin/env bash
# A/B of perfbench's end-to-end metrics between <base-rev> and this checkout.
# Extracts <base-rev> with `git archive` into a temporary directory, then
# runs `perfbench/run.py --trace 0` on one workload in both trees, pair
# after pair, swapping which tree runs first in every other pair so host
# drift falls on both. Each tree builds its own perfbench on its first run.
# For every end-to-end metric of BENCHMARK.json it prints the base and head
# medians, the change, both interquartile ranges and in how many pairs the
# head was better (ties count for neither), then every pair's value of the
# first one.
# Usage: tools/ab_perfbench.sh <base-rev> <workload> [pairs] [seconds] [seed]
#   base-rev  any git revision, e.g. HEAD~1
#   workload  a workload name from BENCHMARK.json
#   pairs     alternating base/head run pairs (default 10)
#   seconds   length of each run (default 10)
#   seed      the workload seed (default 1)
set -euo pipefail

if [[ $# -lt 2 ]]; then
  sed -n '2,16p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
base_rev="$1"
workload="$2"
pairs="${3:-10}"
seconds="${4:-10}"
seed="${5:-1}"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$repo_root" archive "$base_rev" | tar -x -C "$work/base"
results="$work/results"

# run <tree> <label>: appends "<label> <result JSON>" to the results file.
run() {
  local line
  line="$(python3 "$1/perfbench/run.py" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 | tail -n 1)"
  echo "$2 $line" >> "$results"
  echo "pair $((i + 1))/$pairs: $2 done" >&2
}

for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then
    run "$work/base" base
    run "$repo_root" head
  else
    run "$repo_root" head
    run "$work/base" base
  fi
done

python3 - "$repo_root/BENCHMARK.json" "$results" "$base_rev" "$workload" \
  "$seed" <<'EOF'
import json
import statistics
import sys

spec_path, results_path, base_rev, workload, seed = sys.argv[1:6]
spec = json.load(open(spec_path))
runs = {"base": [], "head": []}
for line in open(results_path):
    label, payload = line.split(" ", 1)
    runs[label].append(json.loads(payload)["metrics"])


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


pairs = len(runs["base"])
print(f"{workload} at seed {seed}: {base_rev} (base) against this checkout "
      f"(head), {pairs} alternating pairs")
print(f"{'metric':<15} {'base median':>12} {'head median':>12} {'change':>8} "
      f"{'base IQR':>10} {'head IQR':>10} {'head won':>9}")
for metric in spec["end_to_end"]:
    name = metric["name"]
    base = [r[name]["value"] for r in runs["base"]]
    head = [r[name]["value"] for r in runs["head"]]
    lower = metric["better"] == "lower"
    won = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
    base_median = statistics.median(base)
    head_median = statistics.median(head)
    change = (head_median / base_median - 1) if base_median else 0.0
    print(f"{name:<15} {base_median:>12.6g} {head_median:>12.6g} "
          f"{change:>+8.1%} {iqr(base):>10.4g} {iqr(head):>10.4g} "
          f"{won:>5}/{pairs}")
first = spec["end_to_end"][0]["name"]
print(f"{first} per pair (base head): " + ", ".join(
    f"{b[first]['value']:.4g} {h[first]['value']:.4g}"
    for b, h in zip(runs["base"], runs["head"])))
EOF

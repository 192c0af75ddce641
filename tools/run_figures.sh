#!/usr/bin/env bash
# Builds the binaries that regenerate the paper's tables and figures (the
# foreach list in bench/CMakeLists.txt), runs them nproc at a time, and
# prints each one's stdout after a "== <name>" line, in that list's order.
# They run in the simulator's virtual time, so the output is byte-identical
# from run to run: bench_output.txt at the repo root is a captured run, and
# CI diffs a fresh one against it.
# Usage: tools/run_figures.sh [build-dir] > bench_output.txt
#   build-dir  CMake build directory (default: <repo>/build-release; a new
#              directory is configured as Release)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-release}"

mapfile -t figures < <(
  sed -n '/^foreach(b /,/)/p' "$repo_root/bench/CMakeLists.txt" |
    tr -s ' ()' '\n' | grep '^bench_')
if [[ ${#figures[@]} -eq 0 ]]; then
  echo "error: no figure binaries found in bench/CMakeLists.txt" >&2
  exit 1
fi

# Build chatter goes to stderr: stdout carries only the figures.
if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build_dir" -j --target "${figures[@]}" >&2

out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT
printf '%s\n' "${figures[@]}" |
  xargs -P "$(nproc)" -I{} sh -c '"$1/bench/$2" > "$3/$2.out"' \
    sh "$build_dir" {} "$out_dir"

for b in "${figures[@]}"; do
  echo "== $b"
  cat "$out_dir/$b.out"
done

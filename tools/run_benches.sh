#!/usr/bin/env bash
# Builds the benchmark binaries and refreshes the benchmark JSONs:
#   BENCH_micro.json   — primitive micro-benchmarks (bench_micro)
#   BENCH_scaling.json — kRealParallel / kDistributed wall-clock scaling vs
#                        worker count (BM_ScalingDistributedApriori/<workers>
#                        runs the fleet against one tuple-space server)
#                        and the server-saturation series
#                        (BM_ServerSaturation/<clients>, items/s + p99 +
#                        WAL group-commit counters; the speedup curves are
#                        only visible on a multicore host — check the
#                        hw_threads counter)
# Usage: tools/run_benches.sh [--quick] [build-dir] [out-dir]
#   --quick    shrink per-benchmark min time for a CI smoke run; the numbers
#              are noisy and only prove the binaries run end to end
#   build-dir  CMake build directory (default: <repo>/build-release; kept
#              separate from the tier-1 <repo>/build so bench numbers never
#              come from an unoptimized tree)
#   out-dir    where the JSONs are written (default: the repo root, i.e. the
#              committed files; CI points this at a temp dir)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

quick=0
if [[ "${1:-}" == "--quick" ]]; then
  quick=1
  shift
fi
build_dir="${1:-$repo_root/build-release}"
out_dir="${2:-$repo_root}"

# A build dir configured without CMAKE_BUILD_TYPE compiles at -O0 and used
# to stamp fpdm_build_type=unknown into the JSONs — numbers that looked
# committed-worthy but were debug timings. Default the build type to
# Release when the cache doesn't pin one; an explicitly configured Debug
# dir is rejected below rather than silently reconfigured.
cached_type=""
if [[ -f "$build_dir/CMakeCache.txt" ]]; then
  cached_type="$(grep -E '^CMAKE_BUILD_TYPE:' "$build_dir/CMakeCache.txt" \
    | head -n1 | cut -d= -f2- || true)"
fi
if [[ -z "$cached_type" ]]; then
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
else
  cmake -B "$build_dir" -S "$repo_root"
fi

# Benchmark numbers from a sanitized build are meaningless (TSan/ASan add
# multi-x slowdowns) and would silently poison the committed JSONs, so
# refuse the build dir outright instead of producing garbage.
sanitize="$(grep -E '^FPDM_SANITIZE:' "$build_dir/CMakeCache.txt" \
  | head -n1 | cut -d= -f2- || true)"
if [[ -n "$sanitize" ]]; then
  echo "error: $build_dir is configured with FPDM_SANITIZE=$sanitize;" >&2
  echo "benchmark numbers from a sanitized build are not meaningful." >&2
  echo "Use a plain build dir (or reconfigure with -DFPDM_SANITIZE=)." >&2
  exit 1
fi

# Stamp the JSON context with OUR library's build configuration and the
# commit the numbers were measured at. Google Benchmark's own
# library_build_type describes the prebuilt libbenchmark (often a debug
# package), not this tree; fpdm_build_type is what check_bench_json.py
# keys on, and git_sha ties committed BENCH_*.json files to a revision.
# An unoptimized build type fails here, before any benchmark runs: a
# stamp check_bench_json.py would reject means the numbers are garbage.
build_type="$(grep -E '^CMAKE_BUILD_TYPE:' "$build_dir/CMakeCache.txt" \
  | head -n1 | cut -d= -f2- || true)"
case "$(echo "${build_type:-}" | tr '[:upper:]' '[:lower:]')" in
  release|relwithdebinfo|minsizerel) ;;
  *)
    echo "error: $build_dir has CMAKE_BUILD_TYPE='${build_type:-}';" >&2
    echo "benchmark numbers need an optimized build. Reconfigure with" >&2
    echo "-DCMAKE_BUILD_TYPE=Release (or point at a release build dir)." >&2
    exit 1
    ;;
esac

cmake --build "$build_dir" -j --target bench_micro bench_scaling

git_sha="$(git -C "$repo_root" rev-parse HEAD 2>/dev/null || echo unknown)"
context="fpdm_build_type=$build_type"
context+=",fpdm_sanitize=none,git_sha=$git_sha"

mkdir -p "$out_dir"
extra_args=(--benchmark_context="$context")
if [[ "$quick" == 1 ]]; then
  extra_args+=(--benchmark_min_time=0.01)
fi

"$build_dir/bench/bench_micro" \
  --benchmark_out="$out_dir/BENCH_micro.json" \
  --benchmark_out_format=json \
  "${extra_args[@]+"${extra_args[@]}"}"
"$build_dir/bench/bench_scaling" \
  --benchmark_out="$out_dir/BENCH_scaling.json" \
  --benchmark_out_format=json \
  "${extra_args[@]+"${extra_args[@]}"}"

echo "wrote $out_dir/BENCH_micro.json and $out_dir/BENCH_scaling.json"

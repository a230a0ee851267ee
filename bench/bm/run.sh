#!/usr/bin/env bash
# natle-bm: configure and build the benchmark in build-bm/, then run it.
#
#   bench/bm/run.sh [--seed S] [--reps N] [--out DIR]
#   bench/bm/run.sh --workload W --seed S --seconds T --trace 0|1
#
# All arguments go to natle-bm (see natle-bm --help and README.md). Build
# output goes to stderr so that stdout carries only the benchmark's report.
set -euo pipefail

cd "$(dirname "$0")/../.."
root=$PWD
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "natle-bm: $root is not a natle-sim source tree" >&2
  exit 2
fi

# Keep git (here and in natle-bench's manifest) from searching above the tree.
export GIT_CEILING_DIRECTORIES=${root%/*}

build=build-bm
if [[ ! -f $build/CMakeCache.txt ]]; then
  generator=()
  if command -v ninja >/dev/null; then generator=(-G Ninja); fi
  cmake -B "$build" -S . "${generator[@]}" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_PROJECT_INCLUDE="$root/bench/bm/hook.cmake" >&2
fi
cmake --build "$build" --target natle-bm natle-bench -j "$(nproc)" >&2

sha=unknown
if git -C "$root" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  sha=$(git -C "$root" rev-parse HEAD)
fi
exec "$build/natle-bm" --natle-bench "$build/bench/natle-bench" \
  --git-sha "$sha" "$@"

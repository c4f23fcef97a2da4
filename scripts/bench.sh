#!/usr/bin/env bash
# Pinned benchmark runner: builds the bench harnesses, runs each one
# pinned to core 0 (taskset) for stable numbers, collects their `#METRIC`
# JSON lines plus wall-clock, and writes BENCH_<n>.json at the repo root
# (n = first unused index, so committed baselines are never overwritten).
#
# Usage: scripts/bench.sh [--quick]
#   --quick  skip om_micro (the google-benchmark microbench is the slow one)
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
  QUICK=1
fi

BUILD=build-bench
cmake -B "${BUILD}" -S . -DBUILD_BENCH=ON -DBUILD_TESTS=OFF >/dev/null
cmake --build "${BUILD}" -j "$(nproc)" >/dev/null

PIN=""
if command -v taskset >/dev/null 2>&1; then
  PIN="taskset -c 0"
fi

# Provenance for the "host" block: commit, compiler, build and cores.
# Stop git's upward search at the repository root, so a checkout that is
# not a git repository reads nothing outside itself.
git_sha=$(GIT_CEILING_DIRECTORIES="$(dirname "${PWD}")" \
  git rev-parse HEAD 2>/dev/null || echo unknown)
git_dirty=false
if [[ "${git_sha}" != unknown && -n "$(git status --porcelain 2>/dev/null)" ]]; then
  git_dirty=true
fi
cache() { sed -n "s/^$1:[A-Z]*=//p" "${BUILD}/CMakeCache.txt"; }
compiler_info() {
  sed -n "s/^set($1 \"\(.*\)\")$/\1/p" \
    "${BUILD}"/CMakeFiles/*/CMakeCXXCompiler.cmake | head -n 1
}
build_type=$(cache CMAKE_BUILD_TYPE)
HOST=$(jq -cn --arg sha "${git_sha}" --argjson dirty "${git_dirty}" \
  --arg compiler "$(compiler_info CMAKE_CXX_COMPILER_ID) $(compiler_info CMAKE_CXX_COMPILER_VERSION)" \
  --arg build_type "${build_type}" \
  --arg flags "$(cache CMAKE_CXX_FLAGS) $(cache "CMAKE_CXX_FLAGS_${build_type^^}")" \
  --argjson nproc "$(nproc)" \
  --argjson pinned "$( [[ -n "${PIN}" ]] && echo true || echo false )" \
  '{git_sha: $sha, git_dirty: $dirty, compiler: $compiler,
    build_type: $build_type, cxx_flags: ($flags | ltrimstr(" ")),
    nproc: $nproc, pinned: $pinned}')

# Next free BENCH_<n>.json index.
n=1
while [[ -e "BENCH_${n}.json" ]]; do n=$((n + 1)); done
OUT="BENCH_${n}.json"

BENCHES=(fig3_serial_comparison thm5_sporder_scaling thm10_sphybrid_scaling
         naive_vs_hybrid cor6_race_overhead ext_allsets
         ext_parallel_racedetect ext_stream_ingest om_shootout)
if [[ "${QUICK}" == "0" ]]; then
  BENCHES+=(om_micro)
fi

LOGDIR=$(mktemp -d)
trap 'rm -rf "${LOGDIR}"' EXIT

declare -A WALL
for b in "${BENCHES[@]}"; do
  echo "== ${b} (pinned: ${PIN:-no}) =="
  start=$(date +%s.%N)
  # om_micro reports through google-benchmark's own JSON.
  if [[ "${b}" == "om_micro" ]]; then
    ${PIN} "./${BUILD}/${b}" \
      --benchmark_out="${LOGDIR}/${b}.bench.json" \
      --benchmark_out_format=json | tee "${LOGDIR}/${b}.log"
  else
    ${PIN} "./${BUILD}/${b}" | tee "${LOGDIR}/${b}.log"
  fi
  end=$(date +%s.%N)
  WALL[${b}]=$(echo "${end} ${start}" | awk '{printf "%.3f", $1 - $2}')
done

# Assemble the combined JSON: environment, per-bench wall time, and every
# parsed #METRIC line.
{
  echo "{"
  echo "  \"run\": ${n},"
  echo "  \"date\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
  echo "  \"host\": ${HOST},"
  echo "  \"benches\": {"
  first=1
  for b in "${BENCHES[@]}"; do
    [[ "${first}" == "0" ]] && echo "    ,"
    first=0
    echo "    \"${b}\": {"
    echo "      \"wall_s\": ${WALL[${b}]},"
    echo "      \"metrics\": ["
    sed -n 's/^#METRIC //p' "${LOGDIR}/${b}.log" | paste -sd, - || true
    echo "      ]"
    if [[ "${b}" == "om_micro" && -f "${LOGDIR}/${b}.bench.json" ]]; then
      echo "      ,\"google_benchmark\": $(jq -c '.benchmarks' "${LOGDIR}/${b}.bench.json")"
    fi
    echo "    }"
  done
  echo "  }"
  echo "}"
} | jq . > "${OUT}"

echo
echo "wrote ${OUT}"

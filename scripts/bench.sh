#!/usr/bin/env bash
# Benchmark runner: builds the bench harnesses, runs each one, collects
# their `#METRIC` JSON lines plus wall-clock, and writes BENCH_<n>.json at
# the repo root (n = first unused index, so committed baselines are never
# overwritten). Single-threaded harnesses run pinned to core 0 (taskset)
# for stable numbers; the multi-threaded ones run unpinned, since pinning
# would make their P=2/4 cells time-share one core. Each bench's entry
# records whether it was pinned.
#
# Usage: scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

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
  '{git_sha: $sha, git_dirty: $dirty, compiler: $compiler,
    build_type: $build_type, cxx_flags: ($flags | ltrimstr(" ")),
    nproc: $nproc}')

# Next free BENCH_<n>.json index.
n=1
while [[ -e "BENCH_${n}.json" ]]; do n=$((n + 1)); done
OUT="BENCH_${n}.json"

BENCHES=(fig3_serial_comparison thm5_sporder_scaling thm10_sphybrid_scaling
         cor6_race_overhead ext_stream_ingest)

LOGDIR=$(mktemp -d)
trap 'rm -rf "${LOGDIR}"' EXIT

declare -A WALL PINNED
for b in "${BENCHES[@]}"; do
  case "${b}" in
    thm10_sphybrid_scaling | ext_stream_ingest)
      pin="" ;;  # starts worker threads: never pinned
    *) pin="${PIN}" ;;
  esac
  PINNED[${b}]=$( [[ -n "${pin}" ]] && echo true || echo false )
  echo "== ${b} (pinned: ${pin:-no}) =="
  start=$(date +%s.%N)
  ${pin} "./${BUILD}/${b}" | tee "${LOGDIR}/${b}.log"
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
    echo "      \"pinned\": ${PINNED[${b}]},"
    echo "      \"metrics\": ["
    sed -n 's/^#METRIC //p' "${LOGDIR}/${b}.log" | paste -sd, - || true
    echo "      ]"
    echo "    }"
  done
  echo "  }"
  echo "}"
} | jq . > "${OUT}"

echo
echo "wrote ${OUT}"

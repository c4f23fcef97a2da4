#!/usr/bin/env bash
# spbench runner: builds the driver (RelWithDebInfo, in bench/spbench/build)
# and runs it.
#
# One workload; the last line of stdout is the JSON result:
#   bench/spbench/run.sh --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
#
# All four workloads; prints every metric as "workload:name value unit",
# writes <out>/spbench_result.json (or spbench_result_<i>.json with
# --repeat) and exits non-zero if any correctness check failed:
#   bench/spbench/run.sh [--smoke] [--trace] [--repeat <n>] [--seed <n>]
#                        [--seconds <s>] [--out <dir>]
#
#   --smoke   one set-up and one round per workload (a quick gate)
#   --trace   per-layer metrics; spans go to <out>/trace_<workload>.json
#   --repeat  run the whole set n times, one result file each
set -euo pipefail

HERE=$(cd "$(dirname "$0")" && pwd)
ROOT=$(cd "${HERE}/../.." && pwd)
BUILD="${HERE}/build"
WORKLOADS=(detect_serial stream_ingest stream_churn hybrid_detect)

workload="" seed=1 seconds=25 trace=0 smoke=0 repeat=1 out="${HERE}/out"
while (($#)); do
  case "$1" in
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace)
      if [[ $# -ge 2 && ( $2 == 0 || $2 == 1 ) ]]; then trace=$2; shift 2
      else trace=1; shift; fi ;;
    --smoke) smoke=1; shift ;;
    --repeat) repeat=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
  esac
done

cmake -S "${HERE}" -B "${BUILD}" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
cmake --build "${BUILD}" >&2

if [[ -n "${workload}" ]]; then
  args=(--workload "${workload}" --seed "${seed}" --seconds "${seconds}")
  if [[ "${trace}" == 1 ]]; then
    mkdir -p "${out}"
    args+=(--trace "${out}/trace_${workload}.json")
  fi
  exec "${BUILD}/spbench" "${args[@]}"
fi

((smoke)) && seconds=0
mkdir -p "${out}"
# Stop git's upward search at the repository root, so a checkout that is
# not a git repository reads nothing outside itself.
git_sha=$(GIT_CEILING_DIRECTORIES="$(dirname "${ROOT}")" \
  git -C "${ROOT}" rev-parse HEAD 2>/dev/null || echo unknown)
git_dirty=false
if [[ "${git_sha}" != unknown ]] &&
   [[ -n "$(git -C "${ROOT}" status --porcelain 2>/dev/null)" ]]; then
  git_dirty=true
fi

status=0
for ((i = 1; i <= repeat; i++)); do
  file="${out}/spbench_result.json"
  ((repeat > 1)) && file="${out}/spbench_result_${i}.json"
  results='{}'
  for w in "${WORKLOADS[@]}"; do
    args=(--workload "${w}" --seed "${seed}" --seconds "${seconds}")
    ((trace)) && args+=(--trace "${out}/trace_${w}.json")
    if ! log=$("${BUILD}/spbench" "${args[@]}"); then
      echo "run.sh: ${w} exited with an error" >&2
      exit 1
    fi
    result=$(tail -n 1 <<<"${log}")
    prov=$(sed -n 's/^#provenance //p' <<<"${log}")
    samples=$(sed -n 's/^#samples //p' <<<"${log}")
    jq -r --arg w "${w}" '
      "\($w):fail_ratio \(.failed / .attempted) ratio (\(.failed) of \(.attempted))",
      (.metrics | to_entries[] | "\($w):\(.key) \(.value.value) \(.value.unit)")
    ' <<<"${result}"
    jq -r --arg w "${w}" '"\($w):samples \(tojson)"' <<<"${samples}"
    if [[ "$(jq -r .correct <<<"${result}")" != true ]]; then
      echo "run.sh: ${w}: correctness checks failed" >&2
      status=1
    fi
    results=$(jq -c --arg w "${w}" --argjson r "${result}" \
      --argjson p "${prov}" --argjson s "${samples}" \
      '.[$w] = ($r + {fail_ratio: ($r.failed / $r.attempted),
                      provenance: $p, samples: $s})' <<<"${results}")
  done
  jq -n --argjson w "${results}" --arg sha "${git_sha}" \
    --argjson dirty "${git_dirty}" --argjson traced "${trace}" '
    {provenance: ({git_sha: $sha, git_dirty: $dirty, traced: ($traced == 1)}
                  + ($w | to_entries[0].value.provenance
                        | del(.workload, .traced))),
     workloads: ($w | map_values(del(.provenance.compiler,
                                     .provenance.build_type,
                                     .provenance.cxx_flags)))}
  ' >"${file}"
  echo "wrote ${file}" >&2
done
exit "${status}"

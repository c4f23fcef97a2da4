#!/usr/bin/env bash
# Compares spbench results of a parent and a change commit.
#
#   bench/spbench/compare.sh <parent_dir> <change_dir>
#
# Each directory holds untraced result files from run.sh
# (spbench_result*.json, searched recursively); the i-th file of one side
# in version-sorted path order is paired with the i-th of the other, so
# write the pairs alternately (parent first, then change first) into
# matching paths such as parent/01/, change/01/. Ten or more pairs are
# needed before a gain can be claimed.
#
# For every workload and end-to-end metric of BENCHMARK.json it prints
# both sides' medians and quartiles, the pairs the change won, and a
# verdict:
#   improved    the change won >= 9/10 of the pairs (ties count for
#               neither) and the medians differ by more than the
#               parent's interquartile range;
#   regressed   the change's median is worse by more than the metric's
#               bound, and the parent's spread is within the bound or the
#               change lost >= 9/10 of the pairs;
#   unresolved  a worsening past the bound, or the parent's spread
#               exceeds the bound, that the pairs cannot settle (unless
#               every change run beats every parent run);
#   unchanged   otherwise.
# Exits 1 if any metric regressed, 2 on bad input.
set -euo pipefail

HERE=$(cd "$(dirname "$0")" && pwd)
SPEC="${HERE}/../../BENCHMARK.json"
if (($# != 2)) || [[ ! -d "$1" || ! -d "$2" ]]; then
  echo "usage: compare.sh <parent_dir> <change_dir>" >&2
  exit 2
fi

load() {
  find "$1" -name 'spbench_result*.json' -type f | sort -V |
    while IFS= read -r f; do cat "$f"; done |
    jq -s '[.[] | select(.provenance.traced != true)]'
}
parent=$(load "$1")
change=$(load "$2")
if [[ $(jq length <<<"${parent}") == 0 || $(jq length <<<"${change}") == 0 ]]; then
  echo "compare.sh: no untraced result files found" >&2
  exit 2
fi

table=$(jq -rn --argjson p "${parent}" --argjson c "${change}" --slurpfile spec "${SPEC}" '
  # Quartiles as Python statistics.quantiles(values, n=4) gives them.
  def quartiles:
    sort as $d | length as $n |
    if $n < 2 then [$d[0], $d[0], $d[0]] else
      [range(1; 4) as $i
       | ((($i * ($n + 1)) / 4) | floor) as $j0
       | (if $j0 < 1 then 1 elif $j0 > $n - 1 then $n - 1 else $j0 end) as $j
       | ($i * ($n + 1) - $j * 4) as $delta
       | ($d[$j - 1] * (4 - $delta) + $d[$j] * $delta) / 4]
    end;
  def median: sort as $d | length as $n |
    if $n % 2 == 1 then $d[($n - 1) / 2]
    else ($d[$n / 2 - 1] + $d[$n / 2]) / 2 end;
  def r: if . == 0 then 0 else
    (. | fabs | log10 | floor) as $e | (3 - $e) as $k |
    (. * pow(10; $k) | round) / pow(10; $k) end;

  ["workload", "metric", "parent_median", "parent_q1..q3", "change_median",
   "change_q1..q3", "won", "verdict"],
  ($spec[0].workloads[].name as $w
   | $spec[0].end_to_end[] as $m
   | [$p[] | .workloads[$w].metrics[$m.name].value // empty] as $pv
   | [$c[] | .workloads[$w].metrics[$m.name].value // empty] as $cv
   | select(($pv | length) > 0 and ($cv | length) > 0)
   | (if $m.better == "lower" then -1 else 1 end) as $sign
   | ([$pv, $cv] | map(length) | min) as $n
   | ([range(0; $n) | $sign * ($cv[.] - $pv[.])]) as $d
   | ([$d[] | select(. > 0)] | length) as $won
   | ([$d[] | select(. < 0)] | length) as $lost
   | ($pv | median) as $pm | ($cv | median) as $cm
   | ($pv | quartiles) as $pq | ($cv | quartiles) as $cq
   | ($pq[2] - $pq[0]) as $iqr
   | ($iqr / $pm) as $spread
   | (-$sign * ($cm - $pm) / $pm) as $worse
   | (if $sign > 0 then ($cv | min) > ($pv | max)
      else ($cv | max) < ($pv | min) end) as $all_better
   | (if $n >= 10 and $won >= 0.9 * $n and $sign * ($cm - $pm) > $iqr
        then "improved"
      elif $worse > $m.bound and ($spread <= $m.bound or $lost >= 0.9 * $n)
        then "regressed"
      elif $worse > $m.bound then "unresolved"
      elif $spread > $m.bound and ($all_better | not) then "unresolved"
      else "unchanged" end) as $verdict
   | [$w, $m.name, ($pm | r), "\($pq[0] | r)..\($pq[2] | r)", ($cm | r),
      "\($cq[0] | r)..\($cq[2] | r)", "\($won)/\($n)", $verdict])
  | @tsv
')
awk -F'\t' '{ printf "%-14s %-14s %14s %22s %14s %22s %6s  %s\n", $1, $2, $3, $4, $5, $6, $7, $8 }' <<<"${table}"
if awk -F'\t' 'NR > 1 { split($7, f, "/"); if (f[2] < 10) few = 1 } END { exit !few }' <<<"${table}"; then
  echo "compare.sh: fewer than 10 pairs; no gain can be claimed" >&2
fi
if awk -F'\t' 'NR > 1 && $8 == "regressed" { bad = 1 } END { exit !bad }' <<<"${table}"; then
  exit 1
fi

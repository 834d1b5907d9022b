#!/usr/bin/env bash
# pair.sh — paired, interleaved A/B of the benchmark between two checkouts.
#
# Runs each side's own bench/run.sh (so each builds from its own source)
# once per pair and workload, switching which side goes first every pair,
# and reduces the end-to-end metrics of BENCHMARK.json (read from the
# change's checkout) per workload: both medians, the median of the per-pair
# ratios change/parent, the pairs where the change was better, the parent's
# quartiles and the metric's bound. Laps that are not correct or report
# failed operations are listed, and make the script exit 1.
#
#   scripts/pair.sh <parent-dir> <change-dir> [--workload w] [--pairs n] [--seed s]
#   scripts/pair.sh <parent-dir> <change-dir> --smoke   one pair of -smoke laps per workload
#
# --workload takes one name or a quoted, space-separated list. Defaults:
# every workload of BENCHMARK.json, 10 pairs, seed 1. Needs jq.
set -euo pipefail

usage() { echo "usage: $0 <parent-dir> <change-dir> [--workload w] [--pairs n] [--seed s] [--smoke]" >&2; exit 2; }
[ $# -ge 2 ] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
shift 2
workloads="" pairs=10 seed=1 smoke=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workloads="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --smoke) smoke=(-smoke); pairs=1; shift ;;
    *) usage ;;
  esac
done
command -v jq >/dev/null || { echo "pair.sh: jq is required" >&2; exit 1; }
spec="$change/BENCHMARK.json"
[ -n "$workloads" ] || workloads=$(jq -r '.workloads[].name' "$spec")

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# lap <side> <dir> <workload> <pair>: one run, its report line tagged.
lap() {
  local out
  if ! out=$(bash "$2/bench/run.sh" --workload "$3" --seed "$seed" "${smoke[@]}" 2>/dev/null | tail -n 1) || [ -z "$out" ]; then
    out='{"correct":false,"attempted":0,"failed":0,"metrics":{}}'
  fi
  jq -c --arg side "$1" --arg w "$3" --argjson pair "$4" '. + {side: $side, w: $w, pair: $pair}' <<<"$out" >>"$runs"
  jq -r '"  \(.w) pair \(.pair) \(.side): " + ([.metrics | to_entries[] | "\(.key)=\(.value.value * 1000 | round / 1000)"] | join(" "))' <<<"$(tail -n 1 "$runs")" >&2
}

for ((i = 1; i <= pairs; i++)); do
  for w in $workloads; do
    if ((i % 2)); then
      lap parent "$parent" "$w" "$i"
      lap change "$change" "$w" "$i"
    else
      lap change "$change" "$w" "$i"
      lap parent "$parent" "$w" "$i"
    fi
  done
done

jq -rs --slurpfile spec "$spec" '
  def median: sort | if length == 0 then null
    elif length % 2 == 1 then .[length / 2 | floor]
    else (.[length / 2 - 1] + .[length / 2]) / 2 end;
  def quantile($p): sort | if length == 0 then null else
    ((length - 1) * $p) as $h | ($h | floor) as $lo
    | .[$lo] + ($h - $lo) * ((.[$lo + 1] // .[$lo]) - .[$lo]) end;
  . as $runs
  | ($runs | map(select(.correct != true or .failed > 0))
    | .[] | "BAD\t\(.w) pair \(.pair) \(.side): correct=\(.correct) failed=\(.failed)"),
  (($runs | reduce .[].w as $x ([]; if any(.[]; . == $x) then . else . + [$x] end))[] as $w
    | $spec[0].end_to_end[] as $m
    | [$runs[] | select(.w == $w and .metrics[$m.name] != null)] as $rs
    | [$rs[] | select(.side == "parent") | .metrics[$m.name].value] as $p
    | [$rs[] | select(.side == "change") | .metrics[$m.name].value] as $c
    | [$rs | group_by(.pair)[] | select(length == 2)
        | (map(select(.side == "parent"))[0].metrics[$m.name].value) as $pv
        | (map(select(.side == "change"))[0].metrics[$m.name].value) as $cv
        | {ratio: (if $pv == 0 then null else $cv / $pv end),
           win: (if $m.better == "lower" then $cv < $pv else $cv > $pv end)}] as $pairs
    | select($pairs | length > 0)
    | [$w, $m.name, ($p | median), ($c | median),
       ([$pairs[].ratio | select(. != null)] | median),
       "\([$pairs[] | select(.win)] | length)/\($pairs | length)",
       ($p | quantile(0.25)), ($p | quantile(0.75)),
       "\($m.bound * 100)% \($m.better)"]
    | @tsv)
' "$runs" | awk -F'\t' '
  BEGIN { printf "%-11s %-18s %11s %11s %8s %6s %23s  %s\n", "workload", "metric", "parent", "change", "ratio", "wins", "parent q1-q3", "bound" }
  $1 == "BAD" { bad = bad "\n  " $2; next }
  { printf "%-11s %-18s %11.4g %11.4g %8.4f %6s %11.4g-%-11.4g  %s\n", $1, $2, $3, $4, $5, $6, $7, $8, $9 }
  END { if (bad != "") { print "laps that failed:" bad; exit 1 } }'

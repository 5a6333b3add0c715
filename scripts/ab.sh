#!/usr/bin/env bash
# Alternating parent/change pairs of the repository benchmark: the A/B
# recipe of crates/bench/src/bin/hawkbench/README.md, then `--compare`,
# then what `--compare` does not print: the per-pair win count on the
# claimed metric, and in how many pairs the two sides' `report_digest`
# agree (a behaviour-preserving change must agree in all of them). A gain
# counts when the change wins at least nine tenths of the pairs and the
# medians differ by more than the parent's interquartile distance.
#
#   scripts/ab.sh PARENT_BIN CHANGE_BIN [--pairs N] [--seconds S]
#                 [--workload W]... [--first-seed K] [--metric NAME]
#
# PARENT_BIN / CHANGE_BIN are two `hawkbench` executables, each built once
# into its own CARGO_TARGET_DIR. Pair i runs seed K+i-1 on both sides;
# odd pairs run the parent first, even pairs the change. Defaults: ten
# pairs, the benchmark's 16 s budget, all five workloads, seeds from 1,
# wins counted on `cell_wall_s` (NAME is any end-to-end metric of
# BENCHMARK.json; the lower reading wins unless it is `sim_tasks_per_s`).
# Records land in target/hawkbench/ab-<pid>/{parent,change}.jsonl.
set -euo pipefail

usage() {
    sed -n '2,19p' "$0" >&2
    exit 2
}

[ $# -ge 2 ] || usage
parent=$1 change=$2
shift 2
pairs=10 seconds=16 first_seed=1 metric=cell_wall_s workloads=()
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        --workload) workloads+=(--workload "$2") ;;
        --first-seed) first_seed=$2 ;;
        --metric) metric=$2 ;;
        *) usage ;;
    esac
    shift 2
done
[ -x "$parent" ] && [ -x "$change" ] || usage
# The end-to-end metrics of BENCHMARK.json; the higher reading wins on one.
better=lower
case $metric in
    cell_wall_s | setup_s | peak_heap_mib | sim_short_p50_s | sim_short_p90_s | sim_long_p90_s) ;;
    sim_tasks_per_s) better=higher ;;
    *) usage ;;
esac

out=$(cd "$(dirname "$0")/.." && pwd)/target/hawkbench/ab-$$
mkdir -p "$out"
for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
        echo "== pair $((i + 1))/$pairs, seed $seed: $side" >&2
        "${!side}" --seed "$seed" --seconds "$seconds" \
            ${workloads[@]+"${workloads[@]}"} --out "$out/$side.jsonl" >/dev/null
    done
done

verdict=0
"$parent" --compare "$out/parent.jsonl" "$out/change.jsonl" || verdict=$?

# One record per (seed, workload), appended in the same order on both
# sides: pair them line by line and count who had the better $metric.
cells() {
    sed -E 's/.*"workload": "([^"]+)", "seed": ([0-9]+),.*"report_digest": "([^"]+)".*"'"$metric"'": \{"value": ([^,]+),.*/\1 \2 \4 \3/' "$1"
}
echo
echo "$metric, pair by pair (a win is the change's run reading $better):"
paste -d' ' <(cells "$out/parent.jsonl") <(cells "$out/change.jsonl") | awk -v better=$better '
    $1 != $5 || $2 != $6 { print "records out of step: " $0; bad = 1; exit 1 }
    { n[$1]++; same[$1] += $4 == $8
      if (better == "higher" ? $7 > $3 : $7 < $3) win[$1]++; else if ($7 != $3) loss[$1]++ }
    END {
        if (bad) exit 1
        for (w in n)
            printf "  %-18s change wins %d/%d, loses %d, ties %d; digests equal in %d/%d\n",
                w, win[w], n[w], loss[w], n[w] - win[w] - loss[w], same[w], n[w]
    }' | sort
echo "records: $out"
exit "$verdict"

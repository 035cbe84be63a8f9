#!/bin/sh
# Alternating A/B pairs of two already-built mccsbench binaries.
#
#   tools/ab_pairs.sh <dirA> <dirB> <workload> [pairs=10]
#
# <dirA>/<dirB> are two checkouts (say the parent commit and the change),
# each built once, in its own directory:
#   cargo build --release --offline --manifest-path <dir>/mccsbench/Cargo.toml
# Each pair runs both sides on the same seed, swapping which side goes
# first every pair (EXPERIMENTS.md, "A measurement hazard"). Prints the
# per-pair end-to-end host metrics, then each side's quartiles and how
# many pairs B won per metric (lower is better for all four; ties count
# for neither), then whether a gain claim for B holds: B better in at
# least 9 of 10 pairs, and B's median below A's by more than A's
# interquartile range (q3 - q1). AB_SEED (default 11) and AB_SECONDS
# (default: the run length BENCHMARK.json fixes) override the seed and
# the run length.
set -eu

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <dirA> <dirB> <workload> [pairs=10]" >&2
    exit 2
fi
workload=$3
pairs=${4:-10}
seed=${AB_SEED:-11}
metrics="wall_s setup_s cpu_s peak_heap_mib"

for side in "$1" "$2"; do
    if [ ! -x "$side/mccsbench/target/release/mccsbench" ]; then
        echo "$0: no built mccsbench under $side (see the header)" >&2
        exit 2
    fi
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run <side letter> <dir>: one measured run; appends one value per metric.
run() {
    line=$("$2/mccsbench/target/release/mccsbench" --workload "$workload" \
        --seed "$seed" ${AB_SECONDS:+--seconds "$AB_SECONDS"} --trace 0 2>/dev/null | tail -n 1)
    case $line in
    *'"correct": true'*) ;;
    *)
        echo "$0: side $1 failed its correctness check: $line" >&2
        exit 1
        ;;
    esac
    for m in $metrics; do
        printf '%s\n' "$line" | sed -E "s/.*\"$m\": \{\"value\": ([-0-9.e]+).*/\1/" >>"$out/$1.$m"
    done
}

echo "# $workload seed $seed: A=$1 B=$2"
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run A "$1"
        run B "$2"
    else
        run B "$2"
        run A "$1"
    fi
    printf 'pair %2d' "$i"
    for m in $metrics; do
        printf '  %s A %s B %s' "$m" "$(tail -n 1 "$out/A.$m")" "$(tail -n 1 "$out/B.$m")"
    done
    printf '\n'
    i=$((i + 1))
done

# quartiles <file>: q1 median q3 (nearest rank).
quartiles() {
    sort -g "$1" | awk '{ v[NR] = $1 } END {
        printf "%s %s %s", v[int((NR + 3) / 4)], v[int((NR + 1) / 2)], v[int((3 * NR + 3) / 4)] }'
}

for m in $metrics; do
    wins=$(paste "$out/A.$m" "$out/B.$m" | awk '$2 < $1 { w++ } END { print w + 0 }')
    losses=$(paste "$out/A.$m" "$out/B.$m" | awk '$2 > $1 { l++ } END { print l + 0 }')
    qa=$(quartiles "$out/A.$m")
    qb=$(quartiles "$out/B.$m")
    echo "$m: A q1/median/q3 $qa  B q1/median/q3 $qb  B better in $wins, worse in $losses of $pairs pairs"
    echo "$qa $qb" | awk -v m="$m" -v w="$wins" -v n="$pairs" '{
        gain = $2 - $5; iqr = $3 - $1; why = ""
        if (10 * w < 9 * n) why = sprintf("B better in only %d of %d pairs", w, n)
        if (gain <= iqr) why = why (why == "" ? "" : "; ") \
            sprintf("median gain %g is not above the IQR of A, %g", gain, iqr)
        print m ": gain claim for B " (why == "" ? "holds" : "not met (" why ")") }'
done

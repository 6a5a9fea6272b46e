#!/usr/bin/env bash
# A/B run of the diagnosis benchmark: perfbench built at <rev> (A) against
# perfbench built from the working tree (B), on every benchmark workload.
#
#   scripts/ab.sh <rev> [pairs=5] [seconds=10] [seed=1]
#
# Each pair runs A and B at the same time, each pinned to its own CPU with
# taskset, and the two swap CPUs from one pair to the next. Running the
# sides concurrently gives both the same machine: on a shared VM,
# sequential runs swing by tens of percent from one minute to the next.
# Needs at least two CPUs.
#
# Prints, per workload and end-to-end metric, the median of each side,
# B/A, in how many pairs B read lower (every metric here is
# lower-is-better) and the spread of A's runs (q3 - q1), plus failed
# diagnoses per side. <rev> is checked out
# into a temporary git worktree; both builds go to a temporary target
# directory, so the working tree's perfbench/ is only read.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 4 ]]; then
    echo "usage: scripts/ab.sh <rev> [pairs] [seconds] [seed]" >&2
    exit 2
fi
rev=$1
pairs=${2:-5}
seconds=${3:-10}
seed=${4:-1}
workloads="campus campus_churn mapreduce"
metrics="diagnosis_cpu_s provenance_query_cpu_s peak_rss_mb setup_s"

root=$(cd "$(dirname "$0")/.." && pwd)
commit=$(git -C "$root" rev-parse --verify "$rev^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/dp-ab.XXXXXX")
cleanup() {
    kill $(jobs -p) 2>/dev/null || true
    git -C "$root" worktree remove --force "$tmp/base" 2>/dev/null || true
    git -C "$root" worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$tmp/base" "$commit"
build() { # <checkout> <target dir>
    CARGO_TARGET_DIR=$2 cargo build --release --quiet --offline \
        --manifest-path "$1/perfbench/Cargo.toml"
}
build "$tmp/base" "$tmp/target-a"
build "$root" "$tmp/target-b"
bin_a=$tmp/target-a/release/perfbench
bin_b=$tmp/target-b/release/perfbench

# One perfbench run's result line as "metric value" rows, plus "failed n".
parse() {
    awk '/^\{"correct"/ {
        s = $0
        if (match(s, /"failed": [0-9]+/)) print "failed", substr(s, RSTART + 10, RLENGTH - 10)
        while (match(s, /"[a-z_]+": \{"value": [-0-9.e+]+/)) {
            m = substr(s, RSTART, RLENGTH)
            s = substr(s, RSTART + RLENGTH)
            split(m, f, "\"")
            sub(/.*"value": /, "", m)
            print f[2], m
        }
    }' "$1"
}

quartiles() { # values on stdin -> "q1 median q3", linearly interpolated
    sort -g | awk '
        function q(p,   x, i) {
            x = 1 + p * (NR - 1); i = int(x)
            return (i >= NR) ? v[NR] : v[i] + (x - i) * (v[i + 1] - v[i])
        }
        { v[NR] = $1 }
        END { if (NR == 0) print "nan nan nan"; else print q(0.25), q(0.5), q(0.75) }'
}

echo "A = $rev ($commit), B = working tree; $pairs pairs x ${seconds}s, seed $seed"
for w in $workloads; do
    for i in $(seq 1 "$pairs"); do
        # Alternate which CPU each side gets.
        if ((i % 2)); then cpu_a=0 cpu_b=1; else cpu_a=1 cpu_b=0; fi
        (cd "$tmp" && taskset -c "$cpu_a" "$bin_a" --workload "$w" --seed "$seed" \
            --seconds "$seconds" --trace 0 >"$tmp/$w.a.$i.log" 2>&1) &
        pid_a=$!
        (cd "$tmp" && taskset -c "$cpu_b" "$bin_b" --workload "$w" --seed "$seed" \
            --seconds "$seconds" --trace 0 >"$tmp/$w.b.$i.log" 2>&1) &
        pid_b=$!
        # A run that finds a wrong answer exits 1; its result line still
        # counts the failure, so keep going.
        wait "$pid_a" || true
        wait "$pid_b" || true
        parse "$tmp/$w.a.$i.log" >"$tmp/$w.a.$i.tsv"
        parse "$tmp/$w.b.$i.log" >"$tmp/$w.b.$i.tsv"
    done
    echo
    printf '%-14s %-24s %12s %12s %7s %8s %12s\n' workload metric A B B/A "B wins" "A IQR"
    for m in $metrics; do
        read -r q1_a med_a q3_a < <(cat "$tmp/$w".a.*.tsv | awk -v m="$m" '$1 == m { print $2 }' | quartiles)
        read -r _ med_b _ < <(cat "$tmp/$w".b.*.tsv | awk -v m="$m" '$1 == m { print $2 }' | quartiles)
        wins=0
        for i in $(seq 1 "$pairs"); do
            a=$(awk -v m="$m" '$1 == m { print $2 }' "$tmp/$w.a.$i.tsv")
            b=$(awk -v m="$m" '$1 == m { print $2 }' "$tmp/$w.b.$i.tsv")
            if [[ -n $a && -n $b ]] && awk -v a="$a" -v b="$b" 'BEGIN { exit !(b < a) }'; then
                wins=$((wins + 1))
            fi
        done
        awk -v w="$w" -v m="$m" -v a="$med_a" -v b="$med_b" -v wins="$wins" -v n="$pairs" \
            -v iqr="$(awk -v x="$q1_a" -v y="$q3_a" 'BEGIN { print y - x }')" \
            'BEGIN { printf "%-14s %-24s %12.4f %12.4f %7.3f %5d/%-2d %12.4f\n", w, m, a, b, (a > 0 ? b / a : 0), wins, n, iqr }'
    done
    fail_a=$(cat "$tmp/$w".a.*.tsv | awk '$1 == "failed" { s += $2 } END { print s + 0 }')
    fail_b=$(cat "$tmp/$w".b.*.tsv | awk '$1 == "failed" { s += $2 } END { print s + 0 }')
    printf '%-14s %-24s %12d %12d\n' "$w" failed_diagnoses "$fail_a" "$fail_b"
done

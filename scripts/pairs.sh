#!/bin/sh
# pairs.sh REV [N [WORKLOAD...]] — ROADMAP's "a gain is claimed only from
# >= 10 alternating parent/change pairs" as a command. Builds ./bench at
# REV (the parent, from `git archive` into a temporary directory, so an
# interrupted run leaves nothing registered in .git) and in this working
# tree (the change; HEAD when the tree is clean), then runs N pairs of
# single sets, same seed on both sides of a pair, swapping which side
# goes first. Each binary runs from a directory of its own (it writes
# bench/out/ under its cwd). Only the JSON line a run prints last is read.
#
# Prints, per (workload, end-to-end metric): each side's median and
# quartiles, change/parent, and how many pairs the change won (ties count
# for neither). A claim needs >= 9 of 10 pairs and medians further apart
# than the parent's own q1..q3. `make pairs REV=... N=...` runs this.
set -eu

rev=${1:?usage: pairs.sh REV [N [WORKLOAD...]]}
n=${2:-10}
[ $# -ge 2 ] && shift 2 || shift 1

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM
mkdir "$tmp/src" "$tmp/parent" "$tmp/change"
git archive "$rev" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/parent/benchbin" ./bench)
go build -o "$tmp/change/benchbin" ./bench

spec=$("$tmp/change/benchbin" -spec)
workloads=${*:-$(echo "$spec" | awk -F'"' '/"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 } on && $2 == "name" { print $4 }')}

# runs.tsv: side pair workload failed, then name value per metric.
run_set() { # side pair
    for w in $workloads; do
        line=$(cd "$tmp/$1" && ./benchbin -workload "$w" -seed "$2" | tail -n 1) || true
        echo "$line" | tr '{' '\n' | awk -v side="$1" -v pair="$2" -v w="$w" '
            match($0, /"failed":[0-9]+/) { print side, pair, w, "ops_failed", substr($0, RSTART + 9, RLENGTH - 9) }
            prev != "" && match($0, /^"value":[^,]+/) { print side, pair, w, prev, substr($0, 9, RLENGTH - 8) }
            { prev = ""; if (match($0, /"[A-Za-z0-9_.]+":$/)) prev = substr($0, RSTART + 1, RLENGTH - 3) }' >> "$tmp/runs.tsv"
    done
}
i=1
while [ "$i" -le "$n" ]; do
    if [ $((i % 2)) -eq 1 ]; then first=parent second=change; else first=change second=parent; fi
    echo "pair $i/$n: $first then $second" >&2
    run_set "$first" "$i"
    run_set "$second" "$i"
    i=$((i + 1))
done

echo "$spec" | awk -F'"' '$2 == "name" { name = $4 } $2 == "better" { print "better", name, $4 }' |
    cat - "$tmp/runs.tsv" | awk -v rev="$rev" -v n="$n" '
    $1 == "better" { better[$2] = $3; next }
    {
        key = $3 " " $4
        if (!(key in seen)) { seen[key] = 1; order[++keys] = key }
        v[$1, key, $2] = $5; has[$1, key, $2] = 1
    }
    # q returns the p-quantile of side s for key k (linear, inclusive).
    function q(s, k, p,    a, m, i, j, t, pos, lo) {
        m = 0
        for (i = 1; i <= n; i++) if (has[s, k, i]) a[++m] = v[s, k, i] + 0
        if (m == 0) return 0
        for (i = 2; i <= m; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        pos = (m - 1) * p; lo = int(pos)
        return lo + 1 >= m ? a[m] : a[lo + 1] + (pos - lo) * (a[lo + 2] - a[lo + 1])
    }
    END {
        printf "parent %s, change the working tree, %d pairs\n", rev, n
        printf "%-14s %-24s %32s %32s %7s %6s\n", "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "c/p", "won"
        for (o = 1; o <= keys; o++) {
            k = order[o]; split(k, wm, " ")
            won = 0; pairs = 0
            for (i = 1; i <= n; i++) if (has["parent", k, i] && has["change", k, i]) {
                pairs++
                d = v["change", k, i] - v["parent", k, i]
                if (better[wm[2]] == "higher") d = -d
                if (d < 0) won++
            }
            pm = q("parent", k, 0.5); cm = q("change", k, 0.5)
            printf "%-14s %-24s %12.4f [%8.4f %8.4f] %12.4f [%8.4f %8.4f] %7s %3d/%-2d\n", wm[1], wm[2],
                pm, q("parent", k, 0.25), q("parent", k, 0.75), cm, q("change", k, 0.25), q("change", k, 0.75),
                pm == 0 ? "-" : sprintf("%.3f", cm / pm), won, pairs
        }
    }'

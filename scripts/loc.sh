#!/bin/sh
# loc.sh [REV] — non-test Go lines per top-level package and in total,
# outside bench/ (the benchmark harness is an instrument, not the
# system) and testdata/ directories (fixtures, which the go tool ignores). This is the number ROADMAP asks every PR to report; `make loc`
# runs it. With REV, the same table is also built for that revision (from
# `git archive` into a temporary directory, as pairs.sh does) and each
# package is printed as parent, change (this working tree) and delta;
# `make loc REV=...` passes it through.
set -eu

cd "$(dirname "$0")/.."

table() { # dir
    (cd "$1" && find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*') |
        sed 's|^\./||' |
        while read -r f; do
            case "$f" in
            internal/*/* | cmd/*/* | examples/*/*) pkg=$(echo "$f" | cut -d/ -f1-2) ;;
            *) pkg=. ;;
            esac
            echo "$pkg $(wc -l < "$1/$f")"
        done |
        sort |
        awk '$1 != pkg { if (pkg != "") printf "%7d  %s\n", n, pkg; pkg = $1; n = 0 }
             { n += $2; total += $2 }
             END { printf "%7d  %s\n%7d  total\n", n, pkg, total }'
}

if [ $# -eq 0 ]; then
    table .
    exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM
mkdir "$tmp/src"
git archive "$1" | tar -x -C "$tmp/src"
table "$tmp/src" > "$tmp/parent"
table . > "$tmp/change"
echo "parent $1, change the working tree"
printf "%7s %7s %7s  %s\n" parent change delta package
awk 'FNR == NR { p[$2] = $1 } FNR != NR { c[$2] = $1 } { seen[$2] = 1 }
     END {
         for (k in seen) if (k != "total") printf "%7d %7d %+7d  %s\n", p[k], c[k], c[k] - p[k], k | "sort -k4"
         close("sort -k4")
         printf "%7d %7d %+7d  total\n", p["total"], c["total"], c["total"] - p["total"]
     }' "$tmp/parent" "$tmp/change"

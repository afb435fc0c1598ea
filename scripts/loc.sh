#!/bin/sh
# loc.sh — non-test Go lines per top-level package and in total, outside
# bench/ (the benchmark harness is an instrument, not the system). This
# is the number ROADMAP asks every PR to report; `make loc` runs it.
set -eu

cd "$(dirname "$0")/.."

find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' |
    sed 's|^\./||' |
    while read -r f; do
        case "$f" in
        internal/*/* | cmd/*/* | examples/*/*) pkg=$(echo "$f" | cut -d/ -f1-2) ;;
        *) pkg=. ;;
        esac
        echo "$pkg $(wc -l < "$f")"
    done |
    sort |
    awk '$1 != pkg { if (pkg != "") printf "%7d  %s\n", n, pkg; pkg = $1; n = 0 }
         { n += $2; total += $2 }
         END { printf "%7d  %s\n%7d  total\n", n, pkg, total }'

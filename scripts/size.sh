#!/usr/bin/env bash
# Code-size ledger: non-test Rust lines per crate, written to
# results/SIZE.json.
#
# A file's non-test lines are the ones before its first `#[cfg(test)]`
# line, so in-file unit-test modules do not count. Each crate row
# counts `crates/<name>/src/**/*.rs`. `vendor/`, `src/` and
# `benchmark/src/` each get a row of their own. Integration tests,
# benches and examples do not count.
#
#   scripts/size.sh            # rewrite results/SIZE.json
#
# CI re-runs the script and fails when the committed file is stale, so
# every change in size shows up in the diff.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

# Sums the non-test lines of every .rs file under the given directories.
count() {
    find "$@" -type f -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk 'FNR == 1 { t = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }'
}

rows=()
total=0
add() {
    rows+=("$(printf '  "%s": %d' "$1" "$2")")
    total=$((total + $2))
}
for dir in crates/*/; do
    name=${dir%/}
    add "$name" "$(count "$name/src")"
done
for dir in vendor src benchmark/src; do
    add "$dir" "$(count "$dir")"
done
rows+=("$(printf '  "total": %d' "$total")")

mkdir -p results
{ printf '{\n'; (IFS=$'\n'; echo "${rows[*]}") | sed '$!s/$/,/'; printf '}\n'; } > results/SIZE.json

#!/usr/bin/env bash
# Non-test, non-blank, non-comment Rust lines per non-vendor crate: the
# reproducible source of the ROADMAP / CHANGES.md LOC ledger. Everything
# from a file's `mod tests {` line to its end is test code; `//`-prefixed
# lines (comments and docs) and blank lines do not count.
#
#   scripts/loc.sh          per-crate totals
#   scripts/loc.sh -v       per-file lines as well
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    sed '/^mod tests {/,$d' "$1" | grep -v '^\s*//' | grep -cv '^\s*$' || true
}

verbose=${1:-}
total=0
for crate in . crates/*/; do
    crate=${crate%/}
    [ "$crate" = crates/vendor ] && continue
    name=$(sed -n 's/^name = "\(.*\)"/\1/p' "$crate/Cargo.toml" | head -1)
    sum=0
    while IFS= read -r file; do
        n=$(count "$file")
        sum=$((sum + n))
        [ "$verbose" = -v ] && printf '  %6d  %s\n' "$n" "$file"
    done < <(find "$crate/src" -name '*.rs' | sort)
    printf '%6d  %s\n' "$sum" "$name"
    total=$((total + sum))
done
printf '%6d  total\n' "$total"

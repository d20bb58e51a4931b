#!/usr/bin/env bash
# Count production Rust lines under crates/*/src: every line of a file
# before its first column-0 `#[cfg(test)]` (the whole file when it has
# none). Prints one line per crate, then the total.
#
#   ./scripts/prod_lines.sh          # from the repository root
#   ./scripts/prod_lines.sh DIR      # another checkout's root
set -euo pipefail

root="${1:-.}"
total=0
for src in "$root"/crates/*/src; do
    n=$(find "$src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { done = 0 } /^#\[cfg\(test\)\]/ { done = 1 } !done { n++ } END { print n + 0 }')
    printf '%-10s %6d\n' "$(basename "$(dirname "$src")")" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"

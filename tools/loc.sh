#!/usr/bin/env bash
# Count non-blank, non-comment Rust lines.
#
#   tools/loc.sh              per workspace crate (crates/*, shims/*, plus the
#                             root tests/ and examples/ trees) and in total
#   tools/loc.sh FILE...      per named file and in total
#
# Blank lines, `//` line comments (including `///` and `//!` docs) and
# lines inside `/* ... */` blocks do not count. The generated Unicode
# tables under crates/unicode/src/tables/ are excluded. Run from the
# repository root.
set -euo pipefail

count() {
    awk '
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (inblock) {
                end = index(line, "*/")
                if (!end) next
                inblock = 0
                line = substr(line, end + 2)
                sub(/^[ \t]+/, "", line)
            }
            if (line ~ /^\/\*/) {
                end = index(substr(line, 3), "*/")
                if (!end) { inblock = 1; next }
                line = substr(line, end + 4)
                sub(/^[ \t]+/, "", line)
            }
            if (line == "" || line ~ /^\/\//) next
            n++
        }
        END { print n + 0 }
    ' "$@"
}

rust_files() {
    find "$1" -name '*.rs' -not -path '*/target/*' \
        -not -path 'crates/unicode/src/tables/*' -print0 | sort -z
}

total=0
if [ "$#" -gt 0 ]; then
    for file in "$@"; do
        n=$(count "$file")
        printf '%8d  %s\n' "$n" "$file"
        total=$((total + n))
    done
else
    for dir in crates/* shims/* tests examples; do
        [ -d "$dir" ] || continue
        n=$(rust_files "$dir" | xargs -0 -r cat | count)
        printf '%8d  %s\n' "$n" "$dir"
        total=$((total + n))
    done
fi
printf '%8d  total\n' "$total"

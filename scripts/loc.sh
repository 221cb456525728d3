#!/usr/bin/env bash
# Per-crate size of crates/*/src: non-blank, non-`//`-comment lines, in
# two columns. `lib` is the library; `test` is its in-file `#[cfg(test)]`
# items (`tests/` directories are not counted at all). Simplicity PRs
# quote `lib`, so a test added or removed does not read as design
# (ROADMAP item 14); `scripts/ci.sh` prints both in its closing summary.
#
# A `#[cfg(test)]` item runs from the attribute to the line where its
# braces balance (or to its `;` if it has no body). Braces inside string
# and char literals on one line are ignored.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*(\/\/|$)/ { next }
        {
            code = $0
            gsub(/"([^"\\]|\\.)*"/, "\"\"", code)
            gsub(/'\''([^'\''\\]|\\.)'\''/, "", code)
            if (!in_test && code ~ /^[[:space:]]*#\[cfg\(test\)\]/) { in_test = 1; opened = 0; depth = 0 }
            if (!in_test) { lib++; next }
            test++
            opens = gsub(/{/, "{", code); closes = gsub(/}/, "}", code)
            depth += opens - closes
            if (opens > 0) opened = 1
            if ((opened && depth <= 0) || (!opened && code ~ /;[[:space:]]*$/)) in_test = 0
        }
        END { printf "%d %d\n", lib, test }
    ' "$@"
}

printf '%-12s %6s %6s\n' crate lib test
lib_total=0
test_total=0
for dir in crates/*/src; do
    mapfile -d '' files < <(find "$dir" -name '*.rs' -print0 | sort -z)
    read -r lib test < <(count "${files[@]}")
    printf '%-12s %6d %6d\n' "$(basename "$(dirname "$dir")")" "$lib" "$test"
    lib_total=$((lib_total + lib))
    test_total=$((test_total + test))
done
printf '%-12s %6d %6d\n' total "$lib_total" "$test_total"

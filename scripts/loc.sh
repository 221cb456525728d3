#!/usr/bin/env bash
# Per-crate size of the library: non-blank, non-`//`-comment lines under
# crates/*/src (in-file `#[cfg(test)]` modules included, `tests/`
# directories not). The one number simplicity PRs quote
# (ROADMAP item 3); `scripts/ci.sh` prints it in its closing summary.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/src; do
    n=$(find "$dir" -name '*.rs' -print0 | xargs -0 cat | grep -Evc '^[[:space:]]*(//|$)' || true)
    printf '%-12s %6d\n' "$(basename "$(dirname "$dir")")" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"

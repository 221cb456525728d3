#!/usr/bin/env bash
# Sampling profile of one perf-ledger workload.
#
#   scripts/profile.sh <workload> [seconds]
#
# Exports the working tree's tracked files (uncommitted edits included,
# through `git stash create`, which leaves the tree and the stash list
# alone) with `git archive` into a temporary directory, builds perf-ledger
# there in its own target dir with line tables
# (CARGO_PROFILE_RELEASE_DEBUG=line-tables-only), then runs
#   run --workload <workload> --seed 1 --seconds <seconds> --trace 0
# (seconds defaults to 10) under `gprofng collect app -p hi` and prints
# the 40 functions with the most inclusive CPU time. The export is built
# and run where it lies, so benchmark/Cargo.lock (which cargo rewrites)
# is left as it was found. Exits 2 when gprofng is not installed.
#
# gprofng's clock sampling catches only a small share of the CPU time on
# some hosts (DESIGN.md §8): read the shares, not the seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

if (( $# < 1 || $# > 2 )); then
    echo "usage: $0 <workload> [seconds]" >&2
    exit 2
fi
workload="$1" seconds="${2:-10}"
if ! command -v gprofng > /dev/null; then
    echo "$0: gprofng not found (binutils); nothing to profile with" >&2
    exit 2
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
commit="$(git stash create)"
commit="${commit:-HEAD}"
mkdir "$tmp/src"
git archive "$commit" | tar -x -C "$tmp/src"
echo "== building perf-ledger with line tables ==" >&2
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release --offline -q \
    --manifest-path "$tmp/src/benchmark/Cargo.toml" --target-dir "$tmp/target"

echo "== profiling $workload for ${seconds} s ==" >&2
gprofng collect app -p hi -o "$tmp/ledger.er" \
    "$tmp/target/release/perf-ledger" run --workload "$workload" --seed 1 \
    --seconds "$seconds" --trace 0 > "$tmp/run.log"
tail -n 1 "$tmp/run.log" | python3 -c '
import json, sys
doc = json.loads(sys.stdin.read())
print("correct=%s failed=%d" % (doc["correct"], doc["failed"]))'
gprofng display text -metrics i.%totalcpu:e.%totalcpu -sort i.totalcpu -limit 40 \
    -functions "$tmp/ledger.er"

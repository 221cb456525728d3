#!/usr/bin/env bash
# Alternating before/after pairs of one perf-ledger workload.
#
#   scripts/ledger_pairs.sh <git-ref> <workload> <seed> <pairs>
#
# Builds perf-ledger twice: for <git-ref> in a temporary git worktree, and
# for the working tree as it is (uncommitted edits included). Then runs
# <pairs> pairs, <git-ref> first in each, of
#   run --workload <workload> --seed <seed> --seconds <s> --trace 0
# with <s> the run_seconds of BENCHMARK.json. Prints every run's
# `correct`/`failed`, then per end-to-end metric of BENCHMARK.json each
# side's median [q1, q3] over its runs, the median ratio, and in how many
# pairs the working tree read better (by the metric's direction). Exits 1
# if any run was not `correct` or failed an op. benchmark/Cargo.lock (which
# cargo rewrites) and `git worktree list` end as the script found them.
set -euo pipefail
cd "$(dirname "$0")/.."

if (( $# != 4 )); then
    echo "usage: $0 <git-ref> <workload> <seed> <pairs>" >&2
    exit 2
fi
ref="$1" workload="$2" seed="$3" pairs="$4"
commit="$(git rev-parse --verify --quiet "$ref^{commit}")" \
    || { echo "$0: not a commit: $ref" >&2; exit 2; }
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

tmp="$(mktemp -d)"
cp benchmark/Cargo.lock "$tmp/Cargo.lock"
cleanup() {
    cp "$tmp/Cargo.lock" benchmark/Cargo.lock
    if [[ -d "$tmp/ref" ]]; then
        git worktree remove --force "$tmp/ref"
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT

git worktree add --quiet --detach "$tmp/ref" "$commit"
echo "== building perf-ledger at $ref (${commit:0:12}) and in the working tree =="
cargo build --release --offline -q --manifest-path "$tmp/ref/benchmark/Cargo.toml"
cargo build --release --offline -q --manifest-path benchmark/Cargo.toml
cp "$tmp/ref/benchmark/target/release/perf-ledger" "$tmp/ref.bin"
cp benchmark/target/release/perf-ledger "$tmp/change.bin"

for ((i = 1; i <= pairs; i++)); do
    for side in ref change; do
        echo "== pair $i/$pairs: $side ==" >&2
        "$tmp/$side.bin" run --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 > "$tmp/$side.$i.log" || true
    done
done

python3 - "$tmp" "$pairs" "$ref" <<'PY'
import json, statistics, sys
tmp, pairs, ref = sys.argv[1], int(sys.argv[2]), sys.argv[3]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
runs = {"ref": [], "change": []}
ok = True
for i in range(1, pairs + 1):
    for side in runs:
        lines = open("%s/%s.%d.log" % (tmp, side, i)).read().splitlines()
        doc = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if doc is None:
            print("pair %d %-6s: no result line" % (i, side))
            ok = False
            continue
        ok = ok and doc["correct"] is True and doc["failed"] == 0
        runs[side].append(doc)
        print("pair %d %-6s: correct=%s failed=%d" % (i, side, doc["correct"], doc["failed"]))

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3

print("\n%-13s %-6s %-34s %-34s %7s %s" % ("metric", "unit", ref + " median [q1, q3]",
                                           "change median [q1, q3]", "ratio", "change better"))
for m in metrics:
    a = [r["metrics"][m["name"]]["value"] for r in runs["ref"]]
    b = [r["metrics"][m["name"]]["value"] for r in runs["change"]]
    if not a or len(a) != len(b):
        continue
    (ma, a1, a3), (mb, b1, b3) = quartiles(a), quartiles(b)
    higher = m["better"] == "higher"
    wins = sum(1 for x, y in zip(a, b) if (y > x if higher else y < x))
    cell = lambda med, lo, hi: "%.4g [%.4g, %.4g]" % (med, lo, hi)
    print("%-13s %-6s %-34s %-34s %7.3f %d/%d" % (m["name"], m["unit"], cell(ma, a1, a3),
                                                 cell(mb, b1, b3), mb / ma if ma else float("nan"),
                                                 wins, len(a)))
sys.exit(0 if ok else 1)
PY

#!/usr/bin/env bash
# Alternating before/after pairs of one perf-ledger workload.
#
#   scripts/ledger_pairs.sh <git-ref> <workload> <seed> <pairs>
#
# Builds perf-ledger twice: for <git-ref> in a temporary git worktree, and
# for the working tree as it is (uncommitted edits included). Then runs
# <pairs> pairs, <git-ref> first in each, of
#   run --workload <workload> --seed <seed> --seconds <s> --trace 0
# with <s> the run_seconds of BENCHMARK.json, launched from the Python
# that summarises them. Prints every run's `correct`/`failed`, then per
# end-to-end metric of BENCHMARK.json each side's median [q1, q3] over
# its runs, the median ratio, and in how many pairs the working tree read
# better (by the metric's direction), then the same for `minflt`: the
# minor page faults of each run, from the RUSAGE_CHILDREN delta across
# it. Exits 1 if any run was not `correct` or failed an op. benchmark/Cargo.lock (which
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

python3 - "$tmp" "$pairs" "$ref" "$workload" "$seed" "$seconds" <<'PY'
import json, resource, statistics, subprocess, sys
tmp, pairs, ref, workload, seed, seconds = sys.argv[1], int(sys.argv[2]), *sys.argv[3:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
runs = {"ref": [], "change": []}
minflt = {"ref": [], "change": []}
for i in range(1, pairs + 1):
    for side in runs:
        print("== pair %d/%d: %s ==" % (i, pairs, side), file=sys.stderr, flush=True)
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        with open("%s/%s.%d.log" % (tmp, side, i), "w") as log:
            subprocess.run(["%s/%s.bin" % (tmp, side), "run", "--workload", workload,
                            "--seed", seed, "--seconds", seconds, "--trace", "0"], stdout=log)
        minflt[side].append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before)

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

def row(name, unit, better, a, b):
    if not a or len(a) != len(b):
        return
    (ma, a1, a3), (mb, b1, b3) = quartiles(a), quartiles(b)
    higher = better == "higher"
    wins = sum(1 for x, y in zip(a, b) if (y > x if higher else y < x))
    cell = lambda med, lo, hi: "%.4g [%.4g, %.4g]" % (med, lo, hi)
    print("%-13s %-6s %-34s %-34s %7.3f %d/%d" % (name, unit, cell(ma, a1, a3),
                                                 cell(mb, b1, b3), mb / ma if ma else float("nan"),
                                                 wins, len(a)))

print("\n%-13s %-6s %-34s %-34s %7s %s" % ("metric", "unit", ref + " median [q1, q3]",
                                           "change median [q1, q3]", "ratio", "change better"))
for m in metrics:
    row(m["name"], m["unit"], m["better"],
        [r["metrics"][m["name"]]["value"] for r in runs["ref"]],
        [r["metrics"][m["name"]]["value"] for r in runs["change"]])
row("minflt", "count", "lower", minflt["ref"], minflt["change"])
sys.exit(0 if ok else 1)
PY

#!/usr/bin/env bash
# Alternating before/after pairs of perf-ledger workloads.
#
#   scripts/ledger_pairs.sh <git-ref> <workload|all> <seed> <pairs>
#
# Builds perf-ledger for the working tree as it is (uncommitted edits
# included) and for <git-ref> in a temporary `git archive` export. The
# <git-ref> binary is kept under target/ledger_pairs/<commit hash>/ with
# the `rustc -V` that built it, so a later call against the same commit
# and toolchain skips its export and build. Then runs <pairs> pairs of
#   run --workload <workload> --seed <seed> --seconds <s> --trace 0
# with <s> the run_seconds of BENCHMARK.json, launched from the Python
# that summarises them. Odd pairs run <git-ref> first, even pairs the
# working tree, so neither side always runs on the warmer host. The
# workload `all` runs every BENCHMARK.json workload in turn against the
# same two builds. Prints every run's `correct`/`failed` and its
# end-to-end metric values (so a lost pair or a bimodal side can be read
# back), then, per
# workload, per end-to-end metric of BENCHMARK.json each side's median
# [q1, q3] over its runs, the median ratio, and in how many pairs the
# working tree read better (by the metric's direction), then the same for
# `minflt`: the minor page faults of each run, from the RUSAGE_CHILDREN
# delta across it. Exits 1 if any run was not `correct` or failed an op.
# benchmark/Cargo.lock (which cargo rewrites) ends as the script found it.
set -euo pipefail
cd "$(dirname "$0")/.."

if (( $# != 4 )); then
    echo "usage: $0 <git-ref> <workload|all> <seed> <pairs>" >&2
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
    rm -rf "$tmp"
}
trap cleanup EXIT

cache="target/ledger_pairs/$commit"
toolchain="$(rustc -V)"
if [[ -x "$cache/perf-ledger" && "$(cat "$cache/rustc-version" 2>/dev/null)" == "$toolchain" ]]; then
    echo "== perf-ledger at $ref (${commit:0:12}): cached in $cache =="
else
    mkdir "$tmp/ref"
    git archive "$commit" | tar -x -C "$tmp/ref"
    echo "== building perf-ledger at $ref (${commit:0:12}) =="
    cargo build --release --offline -q --manifest-path "$tmp/ref/benchmark/Cargo.toml"
    mkdir -p "$cache"
    rm -f "$cache/rustc-version"
    cp "$tmp/ref/benchmark/target/release/perf-ledger" "$cache/perf-ledger"
    echo "$toolchain" > "$cache/rustc-version"
fi
echo "== building perf-ledger in the working tree =="
cargo build --release --offline -q --manifest-path benchmark/Cargo.toml
cp "$cache/perf-ledger" "$tmp/ref.bin"
cp benchmark/target/release/perf-ledger "$tmp/change.bin"

python3 - "$tmp" "$pairs" "$ref" "$workload" "$seed" "$seconds" <<'PY'
import json, resource, statistics, subprocess, sys
tmp, pairs, ref, workload, seed, seconds = sys.argv[1], int(sys.argv[2]), *sys.argv[3:]
bench = json.load(open("BENCHMARK.json"))
metrics = bench["end_to_end"]
workloads = [w["name"] for w in bench["workloads"]] if workload == "all" else [workload]

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

def measure(w):
    """Runs the pairs of one workload; prints its table; True iff all runs were clean."""
    runs = {"ref": [], "change": []}
    minflt = {"ref": [], "change": []}
    for i in range(1, pairs + 1):
        order = ("ref", "change") if i % 2 == 1 else ("change", "ref")
        for side in order:
            print("== %s pair %d/%d: %s ==" % (w, i, pairs, side), file=sys.stderr, flush=True)
            before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            with open("%s/%s.%s.%d.log" % (tmp, w, side, i), "w") as log:
                subprocess.run(["%s/%s.bin" % (tmp, side), "run", "--workload", w,
                                "--seed", seed, "--seconds", seconds, "--trace", "0"], stdout=log)
            minflt[side].append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before)

    ok = True
    print("\n## %s (seed %s, %d pairs, odd pairs %s first)" % (w, seed, pairs, ref))
    for i in range(1, pairs + 1):
        for side in runs:
            lines = open("%s/%s.%s.%d.log" % (tmp, w, side, i)).read().splitlines()
            doc = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if doc is None:
                print("pair %d %-6s: no result line" % (i, side))
                ok = False
                continue
            ok = ok and doc["correct"] is True and doc["failed"] == 0
            runs[side].append(doc)
            values = " ".join("%s=%.4g" % (m["name"], doc["metrics"][m["name"]]["value"])
                              for m in metrics)
            print("pair %d %-6s: correct=%s failed=%d %s" % (i, side, doc["correct"],
                                                             doc["failed"], values))

    print("\n%-13s %-6s %-34s %-34s %7s %s" % ("metric", "unit", ref + " median [q1, q3]",
                                               "change median [q1, q3]", "ratio", "change better"))
    for m in metrics:
        row(m["name"], m["unit"], m["better"],
            [r["metrics"][m["name"]]["value"] for r in runs["ref"]],
            [r["metrics"][m["name"]]["value"] for r in runs["change"]])
    row("minflt", "count", "lower", minflt["ref"], minflt["change"])
    return ok

ok = True
for w in workloads:
    ok = measure(w) and ok
sys.exit(0 if ok else 1)
PY

#!/usr/bin/env bash
# Regenerate the committed perf-gate baselines in bench_baselines/.
#
# Run this after an INTENTIONAL behaviour change that moves the gated
# counters (see scripts/perfgate.py), then review and commit the diff —
# the baseline refresh is part of the change, not an afterthought.
#
# The environment is pinned so the reports are deterministic:
#   HERMES_TRACE=1        — arm telemetry so counters are recorded
#   HERMES_FAULT_SEED=7   — pin the fault plan RNG
#   HERMES_GIT_REV=baseline — stamp a stable rev so refreshes diff cleanly
set -euo pipefail
cd "$(dirname "$0")/.."

# Tier 1: the counter baselines. The gated experiments are the names of
# the committed bench_baselines/BENCH_*.json, the one place the list is
# written down. To gate a new experiment, create its BENCH_<exp>.json
# (any content: this run overwrites it) before running the script.
exps=(bench_baselines/BENCH_*.json)
exps=("${exps[@]#bench_baselines/BENCH_}")
exps=("${exps[@]%.json}")
bins=()
for exp in "${exps[@]}"; do bins+=(--bin "exp_${exp}"); done
cargo build --release --offline -q -p hermes-bench "${bins[@]}"

for exp in "${exps[@]}"; do
    echo "== exp_${exp} -> bench_baselines/BENCH_${exp}.json =="
    HERMES_TRACE=1 HERMES_FAULT_SEED=7 HERMES_GIT_REV=baseline \
        "./target/release/exp_${exp}" --out "bench_baselines/BENCH_${exp}.json" >/dev/null
    # The gate compares only counters; strip the bulky trace/span/series
    # sections so the committed baseline stays a reviewable diff.
    python3 - "bench_baselines/BENCH_${exp}.json" <<'PY'
import json, sys
path = sys.argv[1]
doc = json.load(open(path))
slim = {k: doc[k] for k in
        ("schema", "experiment", "git_rev", "telemetry_enabled", "meta", "counters")}
with open(path, "w") as fh:
    json.dump(slim, fh, indent=1, sort_keys=False)
    fh.write("\n")
PY
done

# Tiers 2 + 3: the wall-clock and peak-RSS envelopes. Re-measure the
# gated scenarios -- the keys of bench_baselines/wallclock.json, the one
# place the list is written down (N from scenarios/matrix.toml) -- on the
# machine class CI runs on, and rewrite bench_baselines/wallclock.json and
# bench_baselines/rss.json keeping the committed band/floor knobs. To gate
# a new scenario, add its key to wallclock.json by hand first.
echo "== hermes-harness gated scenarios -> bench_baselines/{wallclock,rss}.json =="
cargo build --release --offline -q -p hermes-harness --bin hermes-harness
cargo build --release --offline -q -p hermes-bench --bins
wall_dir="$(mktemp -d)"
./target/release/hermes-harness \
    --matrix scenarios/matrix.toml \
    --bin-dir target/release \
    --out "$wall_dir" \
    --scenarios "$(python3 -c 'import json, sys
print(",".join(json.load(open(sys.argv[1]))["scenarios"]))' bench_baselines/wallclock.json)" \
    >/dev/null
python3 scripts/perfgate.py refresh bench_baselines "$wall_dir/matrix_report.json"
rm -rf "$wall_dir"

# The lint debt ratchet: record the current per-rule finding counts as
# the new budgets. Counts may only ever be ratcheted DOWN this way —
# review the diff; a count that went UP means new debt that should be
# fixed or suppressed with a reason, not baselined.
echo "== hermes-lint -> bench_baselines/lint_baseline.json =="
cargo run --release --offline -q -p hermes-lint -- --workspace \
    --write-baseline bench_baselines/lint_baseline.json >/dev/null

echo "== refreshed; review with: git diff bench_baselines/ =="

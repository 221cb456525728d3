#!/usr/bin/env bash
# Regenerate the committed counter baselines in bench_baselines/.
#
# Run this after an INTENTIONAL behaviour change that moves the gated
# counters (the gate is crates/bench/tests/perfgate.rs, run by `cargo
# test`), then review and commit the diff —
# the baseline refresh is part of the change, not an afterthought.
#
# The environment is pinned so the reports are deterministic:
#   HERMES_TRACE=1        — arm telemetry so counters are recorded
#   HERMES_FAULT_SEED=7   — pin the fault plan RNG
#   HERMES_GIT_REV=baseline — stamp a stable rev so refreshes diff cleanly
set -euo pipefail
cd "$(dirname "$0")/.."

# The gated experiments are the names of the committed
# bench_baselines/BENCH_*.json, the one place the list is written down.
# To gate a new experiment, create its BENCH_<exp>.json (any content:
# this run overwrites it) before running the script.
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

echo "== refreshed; review with: git diff bench_baselines/ =="

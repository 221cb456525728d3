#!/usr/bin/env bash
# Hermetic CI for the Hermes reproduction workspace.
#
# Policy (README.md "Hermetic build"): the workspace has ZERO external
# crate dependencies — everything that would come from crates.io lives in
# crates/util. Every cargo invocation below therefore runs with
# `--offline`; if a network fetch would be needed, CI must fail.
#
# The pipeline is a sequence of named stages. Run them all (the default)
# or a comma-separated subset:
#
#     CI_STAGES=lint,test scripts/ci.sh
#
# Each stage prints its elapsed wall-clock time on completion. Stage
# order matters: later stages assume earlier ones' artifacts (e.g.
# `perfgate` reuses the release binaries `build`/`bins` produced), so a
# subset run may rebuild more than the full pipeline would.
set -euo pipefail
cd "$(dirname "$0")/.."

ALL_STAGES=(build lint clippy doc test bins chaos perfgate ledger)

stage_build() {
    cargo build --release --offline --workspace
}

stage_lint() {
    # rustfmt over the root workspace (benchmark/ is its own workspace and
    # is not formatted here). The workspace conventions are the clippy
    # stage's flags and the root tests/matrix.rs (DESIGN.md §9).
    cargo fmt --all --check
}

stage_clippy() {
    # Besides clippy's own lints: clippy.toml's disallowed-types ban on
    # HashMap/HashSet/Instant/SystemTime and its disallowed-methods ban on
    # seeding an RNG anywhere but hermes_util::rng::stream (determinism,
    # DESIGN.md §9), every waiver an #[expect] with a reason (so a waiver
    # that goes stale fails here), no `unsafe` in any target, forbidden
    # from the command line so a crate root without the attribute is
    # covered too, and no #[must_use] value dropped by `let _ =` or `.ok()`
    # without an #[expect] saying why.
    cargo clippy --offline --workspace --all-targets -- \
        -D warnings -D clippy::allow_attributes -D clippy::allow_attributes_without_reason \
        -F unsafe_code -D clippy::let_underscore_must_use -D clippy::unused_result_ok
    # The panic policy (DESIGN.md §9), over library and binary code only
    # (tests, benches and examples may unwrap): no unwrap, panic! or
    # unreachable!, so a value the code cannot do without is taken with
    # `.expect("INVARIANT: …")`, whose message tests/matrix.rs checks.
    cargo clippy --offline --workspace --lib --bins -- \
        -D clippy::unwrap_used -D clippy::panic -D clippy::unreachable
    # The perf ledger (benchmark/) is its own package: the same ban and the
    # same forbid. Its sources are frozen for ordinary PRs, so every other
    # clippy lint stays off there.
    with_parked_benchmark_lock cargo clippy --offline --manifest-path benchmark/Cargo.toml \
        --all-targets -- -A clippy::all -D clippy::disallowed_types -F unsafe_code
}

stage_doc() {
    # Rustdoc as a gate: a broken or ambiguous intra-doc link, a link to a
    # private item or an unparsable code block fails the build. The first
    # pass catches public docs that link to private items; the second
    # checks the links in private items' docs as well.
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --document-private-items
}

stage_test() {
    # Under the gate's pinned environment: no library crate reads it
    # (DESIGN.md §8), so the suite must not care which shell it runs in.
    HERMES_FAULT_SEED=7 HERMES_TRACE=1 cargo test -q --offline --workspace
    # The TCAM table's storage (slab, handles, both indexes) under eight
    # times the default cases of its two differential properties.
    HERMES_CHECK_CASES=2048 cargo test --release -q --offline -p hermes-tcam \
      --test proptest_tcam --test proptest_match_index
    # A batch's sequential bill, counted over its own events, against the
    # per-op replay on a scratch copy of the layout, likewise.
    HERMES_CHECK_CASES=2048 cargo test --release -q --offline -p hermes-tcam \
      --lib counted_bill_matches_layout_replay
    # The max-min solver's replay of logged rounds, warm against cold and
    # against the pre-index solver, under eight times the default cases.
    HERMES_CHECK_CASES=2048 cargo test --release -q --offline -p hermes-netsim \
      --test proptest_maxmin
    # The overlap index's storage (slab, id index, trie slots) against the
    # index it replaced, under eight times the default cases.
    HERMES_CHECK_CASES=2048 cargo test --release -q --offline -p hermes-rules \
      --test proptest_algebra overlap_index_churn_matches_reference
}

stage_bins() {
    cargo build --release --offline -p hermes-bench --bins
    # The operator CLI is the §7 API front end: `switches` and `plan` must
    # run, and the experiments it no longer repeats must be refused.
    ./target/release/hermes_cli switches > /dev/null
    ./target/release/hermes_cli plan --switch pica8 --guarantee-ms 5 > /dev/null
    if ./target/release/hermes_cli simulate > /dev/null 2>&1; then
        echo "hermes_cli simulate must exit non-zero"; exit 1
    fi
}

stage_chaos() {
    # The oracle chaos properties: random workloads under random fault plans
    # (transient and crash-class) must recover to flat-table equivalence
    # (DESIGN.md §7, §12).
    cargo test -q --offline -p hermes-core --test oracle chaos
    # Everything below runs release binaries; built here, so the stage
    # also runs alone.
    cargo build --release --offline -q -p hermes-harness -p hermes-bench --bins
    # One full experiment under a pinned fault seed: must exit 0 (no panics
    # reachable from device faults) and reproduce byte-for-byte.
    local chaos_out chaos_out2
    chaos_out="$(mktemp)" chaos_out2="$(mktemp)"
    HERMES_FAULT_SEED=42 ./target/release/exp_fig12 > "$chaos_out"
    HERMES_FAULT_SEED=42 ./target/release/exp_fig12 > "$chaos_out2"
    cmp "$chaos_out" "$chaos_out2" \
      || { echo "chaos run not deterministic under HERMES_FAULT_SEED"; exit 1; }
    # Same discipline for the crash storm: armed crash plans must recover
    # (the binary asserts >=1 completed resync) and replay
    # byte-for-byte from the seed.
    HERMES_FAULT_SEED=42 ./target/release/exp_crash > "$chaos_out"
    HERMES_FAULT_SEED=42 ./target/release/exp_crash > "$chaos_out2"
    cmp "$chaos_out" "$chaos_out2" \
      || { echo "crash storm not deterministic under HERMES_FAULT_SEED"; exit 1; }
    rm -f "$chaos_out" "$chaos_out2"
    # The scenario matrix for its verdicts: every seeded repetition of
    # these scenarios (scenarios/matrix.toml) must exit 0 within its
    # timeout and leave a parsable traced report, or the harness exits
    # non-zero. Host time is the ledger stage's, not judged here.
    local matrix_dir
    matrix_dir="$(mktemp -d)"
    ./target/release/hermes-harness --matrix scenarios/matrix.toml \
        --bin-dir target/release --out "$matrix_dir" \
        --scenarios smoke-crash,smoke-chaos,smoke-fleet,chaos-suite,baseline
    rm -rf "$matrix_dir"
    echo "ok: chaos suite + seeded experiments deterministic, every matrix rep clean"
}

stage_perfgate() {
    # Regenerate the gated experiments under the pinned environment
    # (bench_baselines/README.md) and compare their counters — exact
    # match — against the committed baselines. Wall-clock is ignored;
    # counter drift means behaviour changed and must be either fixed or
    # explicitly re-baselined via scripts/refresh_baselines.sh. The gated
    # experiments are the names of the committed bench_baselines/BENCH_*.json,
    # the one place the list is written down. exp_fig9 then runs a second
    # time under the same seeds: its traced report must reproduce byte for
    # byte (its schema and six subsystems are checked in-process by
    # tests/determinism.rs).
    local exps=(bench_baselines/BENCH_*.json) exp bins=()
    exps=("${exps[@]#bench_baselines/BENCH_}")
    exps=("${exps[@]%.json}")
    for exp in "${exps[@]}"; do bins+=(--bin "exp_${exp}"); done
    cargo build --release --offline -q -p hermes-bench "${bins[@]}"
    local fresh_dir
    fresh_dir="$(mktemp -d)"
    for exp in "${exps[@]}"; do
        HERMES_TRACE=1 HERMES_FAULT_SEED=7 HERMES_GIT_REV=baseline \
            "./target/release/exp_${exp}" --out "$fresh_dir/BENCH_${exp}.json" >/dev/null
    done
    python3 scripts/perfgate.py counters bench_baselines "$fresh_dir"
    HERMES_TRACE=1 HERMES_FAULT_SEED=7 HERMES_GIT_REV=baseline \
        ./target/release/exp_fig9 --out "$fresh_dir/fig9_again.json" >/dev/null
    cmp "$fresh_dir/BENCH_fig9.json" "$fresh_dir/fig9_again.json" \
      || { echo "exp_fig9's traced report not deterministic under HERMES_FAULT_SEED"; exit 1; }
    rm -rf "$fresh_dir"
}

# Where with_parked_benchmark_lock parks the committed benchmark/Cargo.lock
# while its command runs (empty: nothing parked). print_summary, the EXIT
# trap, puts it back on a failing path; the helper itself on a passing one.
BENCH_LOCK_SAVED=""

restore_benchmark_lock() {
    [[ -n "$BENCH_LOCK_SAVED" ]] || return 0
    cp "$BENCH_LOCK_SAVED" benchmark/Cargo.lock
    rm -f "$BENCH_LOCK_SAVED"
    BENCH_LOCK_SAVED=""
}

# Runs "$@" on a parked copy of benchmark/Cargo.lock. cargo re-resolves
# (and rewrites) that file whenever a workspace manifest changed since it
# was committed, and benchmark/ is frozen for ordinary PRs: every cargo
# call on benchmark/Cargo.toml goes through here, which ends by proving
# the tree is as clean as it found it.
with_parked_benchmark_lock() {
    BENCH_LOCK_SAVED="$(mktemp)"
    cp benchmark/Cargo.lock "$BENCH_LOCK_SAVED"
    "$@"
    restore_benchmark_lock
    git diff --quiet -- benchmark/Cargo.lock \
      || { echo "benchmark/Cargo.lock differs from the committed file"; exit 1; }
}

stage_ledger() {
    with_parked_benchmark_lock run_ledger
}

run_ledger() {
    # The perf ledger (benchmark/) as a blocking refactoring oracle and the
    # host-time verdict, the only one CI keeps (DESIGN.md §11). Its own
    # test suite runs first (in release like the runs, benchmark/README.md:
    # the recorder's clock-calibration test does not hold in a debug
    # build), then one full set at the committed rows' own length: five
    # workloads, untraced
    # then traced, 20 s each. Per workload, both runs must report
    # `correct` -- the modeled outcome equals the digest pinned in
    # benchmark/expected/, so a change that moves any modeled number fails
    # here even when no counter baseline covers it -- and `failed == 0`,
    # since a change can raise the share of failed ops and keep the
    # digest. Then `perf-ledger compare` judges the set against the newest
    # committed row in benchmark/results/ (by name): its exit code is the
    # verdict, non-zero on any `regressed` or `unresolved` row. It is only
    # as tight as that row is recent (DESIGN.md §11 lists today's slack).
    cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
    cargo build --release --offline -q --manifest-path benchmark/Cargo.toml
    local rows=(benchmark/results/*.json) set_dir rc=0
    set_dir="$(mktemp -d)"
    ./benchmark/target/release/perf-ledger run --seed 1 --seconds 20 --out "$set_dir" \
        > "$set_dir/run.log" || rc=$?
    python3 - "$set_dir/ledger.json" <<'PY' || { tail -n 40 "$set_dir/run.log"; exit 1; }
import json, sys
doc = json.load(open(sys.argv[1]))
for w, modes in doc["workloads"].items():
    for mode, d in modes.items():
        assert d["correct"] is True, "%s (%s): model digest drifted from benchmark/expected" % (w, mode)
        assert d["failed"] == 0, "%s (%s): %d op(s) failed" % (w, mode, d["failed"])
    e2e = modes["end_to_end"]
    print("ok   %s: correct, %d op(s), 0 failed, %.0f op/s, %.1f MiB peak RSS" % (
        w, e2e["attempted"], e2e["metrics"]["ops_per_s"]["median"],
        e2e["metrics"]["peak_rss_mib"]["median"]))
PY
    [[ $rc == 0 ]] || { tail -n 40 "$set_dir/run.log"; echo "perf-ledger run exited $rc"; exit 1; }
    ./benchmark/target/release/perf-ledger compare "${rows[-1]}" "$set_dir"
    rm -rf "$set_dir"
}

wanted() {
    local stage=$1
    [[ -z "${CI_STAGES:-}" ]] && return 0
    local s
    IFS=',' read -ra sel <<< "$CI_STAGES"
    for s in "${sel[@]}"; do
        [[ "$s" == "$stage" ]] && return 0
    done
    return 1
}

# Reject typoed stage names up front instead of silently skipping them.
if [[ -n "${CI_STAGES:-}" ]]; then
    IFS=',' read -ra sel <<< "$CI_STAGES"
    for s in "${sel[@]}"; do
        known=0
        for k in "${ALL_STAGES[@]}"; do [[ "$s" == "$k" ]] && known=1; done
        [[ $known == 1 ]] || { echo "unknown CI stage '$s' (known: ${ALL_STAGES[*]})"; exit 2; }
    done
fi

# Per-stage summary, printed on EVERY exit path (including a failing
# stage, thanks to `set -e` + the EXIT trap): one row per stage that ran
# with its verdict and wall-clock seconds, the first failing stage by
# name so a red run can be triaged without scrolling, then the per-crate
# size from scripts/loc.sh.
SUM_NAME=()
SUM_STATUS=()
SUM_SECS=()
CURRENT_STAGE=""
CURRENT_T0=0

print_summary() {
    local code=$?
    trap - EXIT
    restore_benchmark_lock
    if [[ -n "$CURRENT_STAGE" ]]; then
        # The trap fired mid-stage: that stage is the failure.
        SUM_NAME+=("$CURRENT_STAGE")
        SUM_STATUS+=("FAIL")
        SUM_SECS+=($((SECONDS - CURRENT_T0)))
    fi
    if [[ ${#SUM_NAME[@]} -gt 0 ]]; then
        echo
        echo "== stage summary =="
        printf '%-14s %-6s %6s\n' stage result secs
        printf '%-14s %-6s %6s\n' ------------ ------ -----
        local i first_fail=""
        for i in "${!SUM_NAME[@]}"; do
            printf '%-14s %-6s %6s\n' "${SUM_NAME[$i]}" "${SUM_STATUS[$i]}" "${SUM_SECS[$i]}"
            [[ "${SUM_STATUS[$i]}" == FAIL && -z "$first_fail" ]] && first_fail="${SUM_NAME[$i]}"
        done
        if [[ -n "$first_fail" ]]; then
            echo "first failing stage: $first_fail"
        fi
        # The size figure simplicity PRs quote: the `lib` column (ROADMAP item 14).
        echo
        echo "== size: non-blank non-comment lines under crates/*/src, library and #[cfg(test)] =="
        bash scripts/loc.sh
    fi
    exit "$code"
}
trap print_summary EXIT

ran=0
for stage in "${ALL_STAGES[@]}"; do
    wanted "$stage" || continue
    echo "== $stage =="
    CURRENT_STAGE="$stage"
    CURRENT_T0=$SECONDS
    "stage_$stage"
    SUM_NAME+=("$stage")
    SUM_STATUS+=("ok")
    SUM_SECS+=($((SECONDS - CURRENT_T0)))
    CURRENT_STAGE=""
    echo "-- $stage done in $((SECONDS - CURRENT_T0))s --"
    ran=$((ran + 1))
done

echo "== ci green ($ran stage(s)) =="

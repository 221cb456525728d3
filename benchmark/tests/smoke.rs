//! `--smoke`: every workload and every output check at 1/20 size, one
//! repetition, untraced and traced. One test function on purpose: the
//! telemetry on/off switch is process-global, so the runs must not overlap.

use hermes_perf_ledger::catalog::{END_TO_END, PER_LAYER};
use hermes_perf_ledger::ledger::{run_workload, Budget, RunConfig};
use hermes_perf_ledger::workloads::{Scale, NAMES};

fn config(workload: &str, trace: bool) -> RunConfig {
    RunConfig {
        workload: workload.to_string(),
        seed: 1,
        scale: Scale::Smoke,
        budget: Budget::Reps(1),
        trace,
        out: None,
        pin: false,
    }
}

#[test]
fn every_workload_passes_every_check_at_smoke_size() {
    for w in NAMES {
        let e2e = run_workload(&config(w, false)).expect("known workload");
        assert!(e2e.correct, "{w} untraced: {:?}", e2e.checks);
        assert_eq!(e2e.failed, 0, "{w}");
        assert!(e2e.attempted >= 1, "{w}");
        let names: Vec<&str> = e2e.values.iter().map(|v| v.name).collect();
        assert_eq!(
            names,
            END_TO_END.map(|m| m.name),
            "{w}: every end-to-end metric, in order"
        );
        for v in &e2e.values {
            assert!(
                v.q.median.is_finite() && v.q.median > 0.0,
                "{w}.{} = {}",
                v.name,
                v.q.median
            );
        }
        // The checks every workload must carry.
        assert!(
            e2e.checks
                .iter()
                .any(|c| c.name == "digest_identical_across_reps"),
            "{w} lacks the cross-repetition digest check"
        );

        let layers = run_workload(&config(w, true)).expect("known workload");
        assert!(layers.correct, "{w} traced: {:?}", layers.checks);
        let names: Vec<&str> = layers.values.iter().map(|v| v.name).collect();
        assert_eq!(
            names,
            PER_LAYER.map(|m| m.name),
            "{w}: every per-layer metric, in order"
        );
        let get = |n: &str| {
            layers
                .values
                .iter()
                .find(|v| v.name == n)
                .map(|v| v.q.median)
                .expect("catalogued metric")
        };
        assert_eq!(get("model.failed_ops_pct"), 0.0, "{w}");
        // Modeled outcome is the same run traced or not.
        assert_eq!(
            e2e.digest, layers.digest,
            "{w}: tracing must not move modeled counters"
        );
        // Layer predictions: netsim shows only on varys_fattree, fleet
        // transactions only where a fleet runs.
        let netsim_busy = get("netsim.run_s") > 0.0;
        assert_eq!(netsim_busy, w == "varys_fattree", "{w}: netsim.run_s");
        let fleet_busy = get("fleet.txns") > 0.0;
        assert_eq!(
            fleet_busy,
            w == "varys_fattree" || w == "fleet_storm",
            "{w}: fleet.txns"
        );
        if w == "batch_resync" {
            assert_eq!(
                get("core.partition_cuts"),
                0.0,
                "disjoint rules: nothing to cut"
            );
            assert!(get("core.resync_reinstalled") > 0.0);
        }
        if w == "lookup_mix" {
            assert!(get("core.lookup_ns_p50") > 0.0);
        }
    }
    assert!(run_workload(&config("nope", false)).is_err());
}

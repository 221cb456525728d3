//! Determinism regression: the whole pipeline — gravity-model workload
//! generation, Varys simulation, metric collection, JSON serialization —
//! must be a pure function of its seeds. Two identically-configured runs
//! have to produce *byte-identical* JSON documents; any hidden source of
//! nondeterminism (hash-map iteration order, time-of-day, uninitialized
//! state) shows up here as a diff.

#![expect(
    clippy::disallowed_methods,
    reason = "tests pin streams by literal seed"
)]

use hermes::core::config::HermesConfig;
use hermes::netsim::metrics::RunMetrics;
use hermes::netsim::prelude::*;
use hermes::tcam::SwitchModel;
use hermes::util::json::{Json, ToJson};
use hermes::workloads::gravity::{flows_from_matrix, TrafficMatrix};

fn gravity_run(sim_seed: u64, flow_seed: u64) -> RunMetrics {
    let topo = Topology::geant();
    let nodes = topo.hosts().len();
    let config = VarysConfig {
        switch: SwitchKind::Hermes(SwitchModel::dell_8132f(), HermesConfig::default()),
        congestion_threshold: 0.6,
        base_rules_per_switch: 150,
        seed: sim_seed,
        ..Default::default()
    };
    let mut sim = Varys::new(topo, config);
    let tm = TrafficMatrix::gravity(nodes, 3e9, 8);
    let flows = flows_from_matrix(&tm, 3.0, 100e6, flow_seed);
    sim.register_flows(&flows, 0);
    sim.run(600.0);
    sim.metrics.clone()
}

#[test]
fn identical_seeds_produce_byte_identical_json() {
    let a = gravity_run(2, 9);
    let b = gravity_run(2, 9);
    let ja = a.to_json().to_string();
    let jb = b.to_json().to_string();
    assert!(!ja.is_empty() && ja.starts_with('{'));
    assert_eq!(ja, jb, "same-seed runs must serialize byte-identically");

    // The document round-trips through the in-tree reader, and the metric
    // arrays deserialize to the exact sample values.
    let parsed = Json::parse(&ja).expect("self-produced JSON parses");
    let rit = parsed.get("rit_ms").and_then(Json::as_arr).expect("rit_ms");
    assert_eq!(rit.len(), a.rit_ms.len());
    for (j, v) in rit.iter().zip(a.rit_ms.values()) {
        assert_eq!(j.as_f64(), Some(*v));
    }
}

/// Drives a seeded MicroBench stream through a `HermesSwitch` (ticks,
/// migrations, a post-quiescence audit) with telemetry recording, and
/// returns the serialized `hermes-bench-report/1` document.
fn telemetry_capture(plan: Option<hermes::tcam::FaultPlan>) -> String {
    use hermes::core::prelude::*;
    use hermes::tcam::{SimDuration, SwitchModel};
    use hermes::workloads::microbench::MicroBench;

    hermes::telemetry::reset();
    hermes::telemetry::set_meta("workload", Json::Str("microbench".into()));
    let mut sw = HermesSwitch::new(SwitchModel::dell_8132f(), HermesConfig::default())
        .expect("default guarantee feasible on dell_8132f");
    sw.install_fault_plan(plan);
    let stream = MicroBench {
        count: 400,
        arrival_rate: 400.0,
        overlap_rate: 0.3,
        seed: 7,
        ..Default::default()
    }
    .generate();
    let mut last = hermes::tcam::SimTime::ZERO;
    for (i, ta) in stream.iter().enumerate() {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "INVARIANT: the run is compared by its telemetry report, not by its admission verdicts"
        )]
        let _ = sw.submit(&ta.action, ta.at);
        last = ta.at;
        if i % 16 == 15 {
            sw.tick(ta.at);
        }
        if i % 64 == 63 {
            sw.migrate(ta.at);
        }
    }
    // Quiescence: clear faults and let the audit repair/verify (the audit
    // heartbeat also drives any open crash window through resync).
    sw.install_fault_plan(None);
    for k in 1..=4u32 {
        sw.audit(last + SimDuration::from_ms(5.0 * f64::from(k)));
    }
    hermes::telemetry::report("determinism", "unknown").to_string()
}

#[test]
fn telemetry_report_is_byte_identical_across_runs() {
    hermes::telemetry::set_enabled(true);
    let a = telemetry_capture(None);
    let b = telemetry_capture(None);
    hermes::telemetry::set_enabled(false);
    assert!(a.starts_with('{'));
    assert_eq!(a, b, "telemetry report must be a pure function of the seeds");

    let parsed = Json::parse(&a).expect("self-produced report parses");
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some("hermes-bench-report/1")
    );
    // The switch pipeline alone must light up the core subsystems.
    let Some(Json::Obj(counters)) = parsed.get("counters") else {
        panic!("report has no counters object");
    };
    for prefix in ["tcam.", "gatekeeper.", "manager.", "recovery."] {
        assert!(
            counters.iter().any(|(k, _)| k.starts_with(prefix)),
            "no {prefix} counters in report"
        );
    }
}

#[test]
fn telemetry_report_is_deterministic_under_fault_plan() {
    hermes::telemetry::set_enabled(true);
    let a = telemetry_capture(Some(hermes::tcam::FaultPlan::seeded(0xFA17)));
    let b = telemetry_capture(Some(hermes::tcam::FaultPlan::seeded(0xFA17)));
    let clean = telemetry_capture(None);
    hermes::telemetry::set_enabled(false);
    assert_eq!(
        a, b,
        "same HERMES_FAULT_SEED must reproduce the telemetry byte-for-byte"
    );
    assert_ne!(a, clean, "an armed fault plan must reach the telemetry");
}

#[test]
fn telemetry_report_is_deterministic_under_crash_plan() {
    // Crash-class faults included: a plan that wipes/partially-retains/
    // disconnects the switch mid-run must still replay byte-for-byte from
    // its seed — reconnect backoff, the resync diff and the reinstall
    // order are all deterministic.
    let crashy = || {
        let mut plan = hermes::tcam::FaultPlan::crashy(0xC4A5);
        plan.crash_period = 60;
        plan.max_reconnect_denials = 2;
        Some(plan)
    };
    hermes::telemetry::set_enabled(true);
    let a = telemetry_capture(crashy());
    let b = telemetry_capture(crashy());
    let clean = telemetry_capture(None);
    hermes::telemetry::set_enabled(false);
    assert_eq!(
        a, b,
        "same crash plan seed must reproduce the telemetry byte-for-byte"
    );
    assert_ne!(a, clean, "the crash plan must reach the telemetry");

    let parsed = Json::parse(&a).expect("self-produced report parses");
    let Some(Json::Obj(counters)) = parsed.get("counters") else {
        panic!("report has no counters object");
    };
    for prefix in ["tcam.crash.", "resync."] {
        assert!(
            counters.iter().any(|(k, _)| k.starts_with(prefix)),
            "no {prefix} counters in report"
        );
    }
}

/// Drives a seeded multi-switch workload — background churn, two-phase
/// path transactions, injected crashes — through an 8-member fleet on 4
/// worker lanes with telemetry recording, and returns the serialized
/// report.
fn fleet_capture() -> String {
    use hermes::baselines::{ControlPlane, HermesPlane};
    use hermes::core::prelude::*;
    use hermes::fleet::{Fleet, FleetConfig, SwitchId};
    use hermes::rules::prelude::*;
    use hermes::tcam::{CrashKind, SimDuration, SimTime, SwitchModel};
    use hermes::util::rng::rngs::StdRng;
    use hermes::util::rng::{Rng, SeedableRng};

    hermes::telemetry::reset();
    hermes::telemetry::set_meta("workload", Json::Str("fleet".into()));
    let members: Vec<(SwitchId, HermesPlane)> = (0..8)
        .map(|i| {
            let sw = HermesSwitch::new(SwitchModel::dell_8132f(), HermesConfig::default())
                .expect("default guarantee feasible on dell_8132f");
            (i, HermesPlane::new(sw))
        })
        .collect();
    let mut fleet = Fleet::new(members, FleetConfig { lanes: 4, seed: 23, ..FleetConfig::default() });
    let mut rng = StdRng::seed_from_u64(23);
    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;
    for step in 0..120u64 {
        now += SimDuration::from_ms(rng.gen_range(0.2..3.0));
        let roll: f64 = rng.gen();
        if roll < 0.5 {
            let sw = rng.gen_range(0..8usize);
            let addr = 0x0a00_0000u32 | rng.gen_range(0..1u32 << 24);
            let prio = rng.gen_range(1..40u32);
            let r = Rule::new(
                next_id,
                Ipv4Prefix::new(addr, 24).to_key(),
                Priority(prio),
                Action::Forward(prio % 5 + 1),
            );
            next_id += 1;
            fleet.submit(sw, &[ControlAction::Insert(r)], now);
        } else if roll < 0.85 {
            let first = rng.gen_range(0..8usize);
            let pieces: Vec<(SwitchId, Rule)> = (0..3)
                .map(|k| {
                    let addr = 0x0a00_0000u32 | rng.gen_range(0..1u32 << 24);
                    let prio = rng.gen_range(1..40u32);
                    let r = Rule::new(
                        next_id,
                        Ipv4Prefix::new(addr, 24).to_key(),
                        Priority(prio),
                        Action::Forward(prio % 5 + 1),
                    );
                    next_id += 1;
                    ((first + k) % 8, r)
                })
                .collect();
            fleet.install_path(&pieces, now);
        } else if roll < 0.92 {
            let sw = rng.gen_range(0..8usize);
            fleet
                .plane_mut(sw)
                .inject_crash(CrashKind::Disconnect, 23 ^ step, 1, now);
        } else {
            fleet.tick_all(now);
        }
    }
    for _ in 0..32 {
        now += SimDuration::from_ms(5.0);
        fleet.tick_all(now);
    }
    hermes::telemetry::report("determinism-fleet", "unknown").to_string()
}

#[test]
fn fleet_run_is_byte_identical_across_runs() {
    hermes::telemetry::set_enabled(true);
    let a = fleet_capture();
    let b = fleet_capture();
    hermes::telemetry::set_enabled(false);
    assert!(a.starts_with('{'));
    assert_eq!(
        a, b,
        "fleet telemetry must be a pure function of the seeds even at lanes=4"
    );

    let parsed = Json::parse(&a).expect("self-produced report parses");
    let Some(Json::Obj(counters)) = parsed.get("counters") else {
        panic!("report has no counters object");
    };
    assert!(
        counters.iter().any(|(k, _)| k.starts_with("fleet.")),
        "no fleet.* counters in report"
    );
}

#[test]
fn different_seeds_produce_different_json() {
    let a = gravity_run(2, 9);
    let c = gravity_run(3, 10);
    assert_ne!(
        a.to_json().to_string(),
        c.to_json().to_string(),
        "seed changes must reach the output"
    );
}

/// FNV-1a, 64-bit, over little-endian `u64` words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Pins the simulator's result bits across versions, not just across two
/// runs of one build: a small Facebook trace on a k=4 fat tree with Hermes
/// on every switch, busy enough that the TE app reroutes. The constants
/// were computed before the event queue and the path picks were last
/// reworked. Trace seed 10 is the lowest at which letting stale
/// completions skip `advance_to` moves a result bit (on about one trace in
/// nine the f64 drift reaches the nanosecond-rounded event times); ordering
/// the queue by time alone moves them on any trace.
#[test]
fn varys_result_bits_are_pinned() {
    use hermes::workloads::facebook::FacebookWorkload;

    let topo = Topology::fat_tree(4, 10e9);
    let hosts = topo.hosts().len();
    let config = VarysConfig {
        switch: SwitchKind::Hermes(SwitchModel::pica8_p3290(), HermesConfig::default()),
        congestion_threshold: 0.5,
        te_interval_s: 0.5,
        base_rules_per_switch: 100,
        seed: 11,
        ..Default::default()
    };
    let mut sim = Varys::new(topo, config);
    let jobs = FacebookWorkload {
        jobs: 20,
        hosts,
        duration_s: 2.0,
        seed: 10,
    }
    .generate();
    let flows: usize = jobs.iter().map(|j| j.flows.len()).sum();
    sim.register_jobs(&jobs);
    let end = sim.run(600.0);
    let m = &sim.metrics;
    let bits = fnv1a(
        [m.fct_s.values(), m.jct_s.values(), m.rit_ms.values()]
            .into_iter()
            .flatten()
            .map(|v| v.to_bits()),
    );
    assert_eq!(m.fct_s.len(), flows, "every flow completes");
    assert!(
        m.path_txns > flows as u64 && m.path_rollbacks == 0,
        "the TE app must reroute at least once ({} txns for {flows} flows)",
        m.path_txns
    );
    assert_eq!(end.as_nanos(), 2_757_698_573, "sim_end_ns");
    assert_eq!(m.fct_s.len(), 154, "flows_completed");
    assert_eq!(bits, 0xffdb_5a39_4cf4_2643, "FNV-1a of every FCT, JCT and RIT bit pattern");
}

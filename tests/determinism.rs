//! Determinism regression: the whole pipeline — gravity-model workload
//! generation, Varys simulation, metric collection, JSON serialization —
//! must be a pure function of its seeds. Two identically-configured runs
//! have to produce *byte-identical* JSON documents; any hidden source of
//! nondeterminism (hash-map iteration order, time-of-day, uninitialized
//! state) shows up here as a diff.

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
    hermes::telemetry::report("determinism").to_string()
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
    hermes::telemetry::report("determinism-fleet").to_string()
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
fn fleet_backed_sim_is_deterministic_per_lane_count() {
    // The netsim control plane now routes through the fleet; runs must
    // stay byte-identical per lane count, and the lane count must reach
    // the modeled timings (a serialized driver can't match full overlap).
    let run = |lanes: usize| {
        let topo = Topology::fat_tree(4, 10e9);
        let config = VarysConfig {
            switch: SwitchKind::Hermes(SwitchModel::dell_8132f(), HermesConfig::default()),
            congestion_threshold: 0.6,
            base_rules_per_switch: 100,
            lanes,
            seed: 5,
            ..Default::default()
        };
        let mut sim = Varys::new(topo, config);
        let tm = hermes::workloads::gravity::TrafficMatrix::gravity(16, 2e9, 4);
        let flows = flows_from_matrix(&tm, 2.0, 80e6, 6);
        sim.register_flows(&flows, 0);
        sim.run(300.0);
        sim.metrics.to_json().to_string()
    };
    let a1 = run(1);
    let a2 = run(1);
    assert_eq!(a1, a2, "lanes=1 runs must be byte-identical");
    let b1 = run(4);
    let b2 = run(4);
    assert_eq!(b1, b2, "lanes=4 runs must be byte-identical");
    assert_ne!(a1, b1, "the lane count must reach the modeled timings");
}

#[test]
fn lint_report_is_byte_identical_across_runs() {
    // The static-analysis pass is part of the reproducibility story too:
    // its findings and waivers over the same tree must be a pure function
    // of the sources — no wall clock, no hash-order, no paths that depend
    // on the invocation directory.
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let files = hermes_lint::engine::load_workspace(&root).expect("workspace readable");
    let render = || {
        let out = hermes_lint::engine::lint_tree(&files);
        let mut s: String = out.findings.iter().map(|f| format!("{f}\n")).collect();
        for w in &out.suppressions {
            s.push_str(&format!(
                "waived: {}:{} {} ({})\n",
                w.file,
                w.line,
                w.rule.id(),
                w.reason
            ));
        }
        (out.is_clean(), s)
    };
    let (clean, a) = render();
    let (_, b) = render();
    assert_eq!(a, b, "lint outcome must be byte-deterministic");
    assert!(clean, "workspace has lint findings:\n{a}");
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

//! Cross-crate integration: Hermes vs a raw switch on generated workloads,
//! checking the paper's headline properties end to end.

use hermes::baselines::{ControlPlane, HermesPlane, RawSwitch};
use hermes::core::config::HermesConfig;
use hermes::netsim::metrics::Samples;
use hermes::tcam::{SimDuration, SwitchModel};
use hermes::workloads::microbench::{MicroBench, TimedAction};
use hermes_bench::{drive_batches, drive_inserts};

/// Drives a per-action stream through `plane` as one-action batches;
/// returns the per-rule execution latencies.
fn exec_ms<P: ControlPlane>(plane: P, stream: &[TimedAction]) -> Samples {
    let batches: Vec<_> = stream.iter().map(|ta| (ta.at, [ta.action])).collect();
    drive_batches(plane, &batches, SimDuration::from_ms(100.0)).exec_ms
}

/// Headline: Hermes improves the median RIT by a large factor once the raw
/// switch's table has filled up.
#[test]
fn hermes_beats_raw_switch_at_scale() {
    let stream = MicroBench {
        arrival_rate: 20.0,
        overlap_rate: 0.1,
        count: 1200,
        ..Default::default()
    }
    .generate();
    let model = SwitchModel::pica8_p3290();
    let mut raw_exec = exec_ms(RawSwitch::new(model.clone()), &stream);
    let config = HermesConfig::default();
    let mut hermes_exec = exec_ms(
        HermesPlane::with_config(model, config).expect("feasible"),
        &stream,
    );

    let raw_median = raw_exec.median();
    let hermes_median = hermes_exec.median();
    let improvement = (raw_median - hermes_median) / raw_median;
    assert!(
        improvement > 0.5,
        "median improvement {improvement:.2} (raw {raw_median:.2}ms vs hermes {hermes_median:.2}ms)"
    );
}

/// The guarantee holds: within the admitted rate, shadow-routed insertions
/// never exceed the configured bound.
#[test]
fn guarantee_holds_within_admitted_rate() {
    let model = SwitchModel::dell_8132f();
    let guarantee = SimDuration::from_ms(5.0);
    let config = HermesConfig::with_guarantee(guarantee);
    let mut plane = HermesPlane::with_config(model, config).expect("feasible");
    // Stay well under the sustainable rate.
    let rate = plane.switch().max_supported_rate() * 0.5;
    let stream = MicroBench {
        arrival_rate: rate,
        overlap_rate: 0.2,
        count: 600,
        ..Default::default()
    }
    .generate();
    let mut run = drive_inserts(&mut plane, &stream, SimDuration::from_ms(100.0));
    assert_eq!(run.attempts, 600, "every insert is accepted");
    assert_eq!(run.violations, 0, "no violations under the admitted rate");
    let worst_guaranteed = run.shadow_ms.max();
    assert!(
        worst_guaranteed <= guarantee.as_ms(),
        "worst shadow-routed latency {worst_guaranteed} ms exceeds {guarantee}"
    );
}

/// Under sustained overload Hermes cannot promise the world — but it must
/// degrade by diverting to the main table, not by blowing the guarantee
/// for admitted rules.
#[test]
fn overload_diverts_rather_than_violates() {
    let model = SwitchModel::pica8_p3290();
    let config = HermesConfig::default(); // derived (honest) admission rate
    let mut plane = HermesPlane::with_config(model, config).expect("feasible");
    // Rate overload, not capacity overload: stay under the main-table
    // capacity (2048 minus the shadow carve) so every insert has a home
    // and the only pressure is the arrival rate.
    let stream = MicroBench {
        arrival_rate: 500.0, // far above sustainable
        overlap_rate: 0.0,
        count: 1800,
        ..Default::default()
    }
    .generate();
    let mut run = drive_inserts(&mut plane, &stream, SimDuration::from_ms(100.0));
    assert_eq!(run.attempts, 1800, "every insert is accepted");
    let diverted = run.attempts - run.shadow_ms.len() as u64;
    let shadow_worst = run.shadow_ms.max();
    assert!(
        diverted > 500,
        "overload must divert to the main table ({diverted})"
    );
    assert!(
        shadow_worst <= 5.0,
        "admitted rules still bounded: {shadow_worst} ms"
    );
    let stats = plane.switch().stats();
    assert!(
        (stats.violations as f64) < 0.02 * stats.inserts as f64,
        "violations {} of {} inserts",
        stats.violations,
        stats.inserts
    );
}

/// Lookup equivalence survives the full pipeline: a packet matches the
/// same way through Hermes's two tables as through the raw switch, for a
/// shared rule set.
#[test]
fn lookup_equivalence_hermes_vs_raw() {
    let stream = MicroBench {
        arrival_rate: 50.0,
        overlap_rate: 0.4,
        count: 400,
        ..Default::default()
    }
    .generate();
    let model = SwitchModel::hp_5406zl();
    let mut raw = RawSwitch::new(model.clone());
    let mut hermes = HermesPlane::with_config(model, HermesConfig::default()).expect("feasible");
    for ta in &stream {
        raw.apply(&ta.action, ta.at);
        hermes.apply(&ta.action, ta.at);
        hermes.tick(ta.at);
    }
    // Compare lookups across a sample of destinations drawn from the
    // workload space.
    for i in 0..2000u32 {
        let addr = (0b01u32 << 30) | (i.wrapping_mul(2654435761) % (1 << 30));
        let pkt = (addr as u128) << 96;
        let r = raw.device().peek(pkt).action();
        let h = hermes.switch().peek(pkt).action();
        assert_eq!(r, h, "divergence at address {addr:#x}");
    }
}

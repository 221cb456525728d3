//! **§2.3 / §8.4** — Hermes in a traditional BGP router.
//!
//! Replays a BGPStream-like update trace (low baseline rate, >1000
//! updates/s bursts) through the RIB→FIB pipeline and installs the
//! surviving FIB actions on a raw switch vs Hermes with a 5 ms guarantee.
//!
//! Reproduction targets: the algorithms behave as with the SDNApp —
//! Cubic+Slack best, high slack (>80%) needed for zero violations during
//! bursts — and "the benefits of employing Hermes are significant and
//! nontrivial" on installation times.

#![forbid(unsafe_code)]

use hermes_baselines::RawSwitch;
use hermes_bench::{drive_batches, print_summary, Table};
use hermes_bgp::prelude::*;
use hermes_core::config::{HermesConfig, MigrationTrigger};
use hermes_core::predict::{Corrector, PredictorKind};
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SimTime, SwitchModel};
use hermes_workloads::bgptrace::BgpTrace;

/// Length of the update trace at scale 1, in seconds.
const DURATION_S: f64 = 60.0;
/// Update rate inside a burst, in updates/s.
const BURST_RATE: f64 = 1500.0;

/// FIB-level control actions with timestamps, after RIB processing, each
/// its own one-action batch.
fn fib_actions(trace: &BgpTrace) -> Vec<(SimTime, [ControlAction; 1])> {
    let updates = trace.generate();
    let mut rib = Rib::new();
    let mut fib = Fib::new();
    let mut out = Vec::new();
    for u in &updates {
        if let Some(delta) = rib.process(u.update) {
            out.push((u.at, [fib.compile(delta)]));
        }
    }
    println!(
        "trace: {} BGP updates -> {} FIB actions ({:.0}% suppressed in RIB); peak rate {:.0} upd/s",
        updates.len(),
        out.len(),
        100.0 * (1.0 - out.len() as f64 / updates.len() as f64),
        BgpTrace::peak_rate(&updates),
    );
    out
}

fn main() -> std::process::ExitCode {
    hermes_bench::run_experiment("exp_bgp", run)
}

/// The `bgp-replay` scenario (`knobs.full_table = true`): preload a full
/// DFZ-sized table — one announcement per pool prefix from its home peer,
/// mirroring the trace's homing — then replay the bursty churn trace on
/// top of it. This sizes the software RIB→FIB pipeline at real table
/// scale (~900k prefixes); the TCAM-install leg is covered by the default
/// mode (churn-only) and by `exp_scale`'s 1M-rule preload, since no
/// modeled switch holds a full table.
fn run_full_table(trace: &BgpTrace) {
    let pool = trace.prefix_pool();
    let peers = trace.peers.max(1);
    let mut rib = Rib::new();
    let mut fib = Fib::new();
    let deltas = rib.preload(pool.iter().enumerate().map(|(i, &prefix)| {
        let peer = (i % peers) as u32;
        (
            prefix,
            BgpRoute {
                local_pref: 100,
                as_path_len: 1,
                med: 0,
                peer: PeerId(peer),
                next_hop_port: peer + 1,
            },
        )
    }));
    let adds = deltas.len();
    for d in deltas {
        let _ = fib.compile(d);
    }
    println!(
        "preload: {} prefixes -> {} FIB adds ({} FIB entries)",
        pool.len(),
        adds,
        fib.len()
    );
    hermes_bench::report_meta("preload_fib_adds", &(adds as u64));

    let updates = trace.generate();
    let mut churn_actions = 0u64;
    for u in &updates {
        if let Some(delta) = rib.process(u.update) {
            let _ = fib.compile(delta);
            churn_actions += 1;
        }
    }
    println!(
        "churn: {} BGP updates -> {} FIB actions ({:.0}% suppressed on the full table); peak rate {:.0} upd/s",
        updates.len(),
        churn_actions,
        100.0 * (1.0 - churn_actions as f64 / updates.len().max(1) as f64),
        BgpTrace::peak_rate(&updates),
    );
    println!("final FIB: {} entries", fib.len());
    hermes_bench::report_meta("churn_updates", &(updates.len() as u64));
    hermes_bench::report_meta("churn_fib_actions", &churn_actions);
    hermes_bench::report_meta("fib_entries", &(fib.len() as u64));
}

fn run() {
    let sc = hermes_bench::scenario();
    let scale = hermes_bench::scale();
    let duration_s = DURATION_S * scale as f64;
    let prefixes = sc.knob_u64("prefixes", 800) as usize;
    let full_table = sc.knob_bool("full_table", false);
    hermes_bench::report_meta("duration_s", &duration_s);
    hermes_bench::report_meta("prefixes", &(prefixes as u64));
    let trace = BgpTrace {
        duration_s,
        prefixes,
        burst_rate: BURST_RATE,
        ..Default::default()
    };
    println!("== §8.4: Hermes under BGP (5 ms guarantee) ==\n");
    if full_table {
        run_full_table(&trace);
        return;
    }
    let actions = fib_actions(&trace);
    let model = SwitchModel::pica8_p3290();
    let tick = SimDuration::from_ms(100.0);

    println!("\n-- raw switch vs Hermes --");
    let mut raw = drive_batches(RawSwitch::new(model.clone()), &actions, tick);
    print_summary("Raw switch RIT (ms)", &mut raw.rit_ms);
    // Deployed configuration: admission control on. Burst traffic beyond
    // the agreed rate is serviced best-effort from the main table; rules
    // the Gate Keeper admits keep their guarantee even mid-burst.
    let hermes_cfg = HermesConfig {
        guarantee: SimDuration::from_ms(5.0),
        ..Default::default()
    };
    let mut hermes = drive_batches(
        hermes_bench::hermes_plane(model.clone(), hermes_cfg)
            .expect("INVARIANT: fixed experiment config is feasible for this model"),
        &actions,
        tick,
    );
    print_summary("Hermes RIT (ms)", &mut hermes.rit_ms);
    println!(
        "median improvement: {:.0}%   violations: {}/{} ({:.2}%)",
        (raw.rit_ms.median() - hermes.rit_ms.median()) / raw.rit_ms.median() * 100.0,
        hermes.violations,
        hermes.inserts,
        hermes.violation_pct()
    );

    println!("\n-- slack sensitivity (Cubic Spline; admission disabled so every update");
    println!("   attempts the shadow — upper bound on burst pressure) --");
    let mut t = Table::new(&[
        "Slack (%)",
        "Violations (%)",
        "Mean RIT (ms)",
        "p99 RIT (ms)",
    ]);
    for slack in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.5] {
        let cfg = HermesConfig {
            guarantee: SimDuration::from_ms(5.0),
            trigger: MigrationTrigger::Predictive {
                predictor: PredictorKind::CubicSpline,
                corrector: Corrector::Slack(slack),
            },
            rate_limit: Some(f64::INFINITY),
            ..Default::default()
        };
        let mut r = drive_batches(
            hermes_bench::hermes_plane(model.clone(), cfg)
                .expect("INVARIANT: fixed experiment config is feasible for this model"),
            &actions,
            tick,
        );
        t.row(&[
            format!("{:.0}", slack * 100.0),
            format!("{:.2}", r.violation_pct()),
            format!("{:.3}", r.rit_ms.mean()),
            format!("{:.3}", r.rit_ms.percentile(0.99)),
        ]);
    }
    t.print();

    println!("\n-- predictor comparison under BGP --");
    let mut t = Table::new(&["Predictor", "Violations (%)", "Mean RIT (ms)"]);
    for kind in PredictorKind::all() {
        let cfg = HermesConfig {
            guarantee: SimDuration::from_ms(5.0),
            trigger: MigrationTrigger::Predictive {
                predictor: kind,
                corrector: Corrector::Slack(1.0),
            },
            rate_limit: Some(f64::INFINITY),
            ..Default::default()
        };
        let r = drive_batches(
            hermes_bench::hermes_plane(model.clone(), cfg)
                .expect("INVARIANT: fixed experiment config is feasible for this model"),
            &actions,
            tick,
        );
        t.row(&[
            format!("{kind:?}"),
            format!("{:.2}", r.violation_pct()),
            format!("{:.3}", r.rit_ms.mean()),
        ]);
    }
    t.print();
    println!("\npaper: \"the algorithms behave similarly with BGP as they did with the SDNApp —\nwith Cubic+Slack providing the best performance and with Hermes requiring high\nslack inflation (over 80%) to ensure that there are no performance violations\"");
}

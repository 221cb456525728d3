//! A traditional BGP router with Hermes under the hood (§2.3 / §8.4).
//!
//! BGP updates stream into the RIB; only best-path changes reach the FIB;
//! the FIB's TCAM actions go through Hermes, which keeps insertion latency
//! bounded even through >1000 update/s bursts.
//!
//! ```sh
//! cargo run --release --example bgp_router
//! ```

use hermes::baselines::{HermesPlane, RawSwitch};
use hermes::bgp::prelude::*;
use hermes::core::config::HermesConfig;
use hermes::tcam::{SimDuration, SwitchModel};
use hermes::workloads::bgptrace::BgpTrace;
use hermes_bench::drive_batches;

fn main() {
    // A synthetic BGPStream-like feed: calm baseline, violent bursts.
    let trace = BgpTrace {
        duration_s: 60.0,
        prefixes: 600,
        ..Default::default()
    };
    let updates = trace.generate();
    println!(
        "BGP feed: {} updates over {:.0}s, peak {:.0} updates/s",
        updates.len(),
        trace.duration_s,
        BgpTrace::peak_rate(&updates)
    );

    // RIB → FIB: most updates never reach the TCAM. Each FIB action goes
    // to the switch as its own one-action batch.
    let mut rib = Rib::new();
    let mut fib = Fib::new();
    let mut actions = Vec::new();
    for u in &updates {
        if let Some(delta) = rib.process(u.update) {
            actions.push((u.at, [fib.compile(delta)]));
        }
    }
    println!(
        "RIB suppressed {:.0}% of updates; {} FIB actions reach the TCAM\n",
        100.0 * (1.0 - actions.len() as f64 / updates.len() as f64),
        actions.len()
    );

    let model = SwitchModel::pica8_p3290();
    let tick = SimDuration::from_ms(100.0);
    let mut raw_rit = drive_batches(RawSwitch::new(model.clone()), &actions, tick).rit_ms;
    println!(
        "raw router:    RIT median {:>7.3}ms  p99 {:>8.3}ms  max {:>8.3}ms",
        raw_rit.median(),
        raw_rit.percentile(0.99),
        raw_rit.max()
    );

    let config = HermesConfig {
        guarantee: SimDuration::from_ms(5.0),
        rate_limit: Some(f64::INFINITY),
        ..Default::default()
    };
    let plane = HermesPlane::with_config(model, config).expect("feasible");
    let hermes = drive_batches(plane, &actions, tick);
    let mut hermes_rit = hermes.rit_ms;
    println!(
        "hermes router: RIT median {:>7.3}ms  p99 {:>8.3}ms  max {:>8.3}ms  ({} violations)",
        hermes_rit.median(),
        hermes_rit.percentile(0.99),
        hermes_rit.max(),
        hermes.violations
    );
    println!(
        "\nmedian improvement: {:.0}%",
        (raw_rit.median() - hermes_rit.median()) / raw_rit.median() * 100.0
    );
}

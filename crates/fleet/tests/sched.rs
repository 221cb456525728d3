//! Lane-scheduler determinism suite.
//!
//! The phase-2 scheduler (occupancy-weighted lane assignment) trades
//! latency for balance, but it must stay a *pure function of the seed*:
//! two runs of the same seeded workload must produce byte-identical
//! telemetry reports, and on dedicated lanes (`lanes = 0`, the netsim
//! default inherited from the phase-1 fleet) it must be a bit-preserving
//! no-op — the same bytes pinned by the phase-1 determinism tests.

#![expect(
    clippy::disallowed_methods,
    reason = "tests pin streams by literal seed"
)]

use hermes_baselines::{ControlPlane, HermesPlane, RawSwitch};
use hermes_core::prelude::{HermesConfig, HermesSwitch};
use hermes_fleet::{Fleet, FleetConfig, LaneSched, SwitchId};
use hermes_rules::prelude::*;
use hermes_tcam::{CrashKind, SimDuration, SimTime, SwitchModel};
use hermes_util::json::Json;
use hermes_util::rng::rngs::StdRng;
use hermes_util::rng::{Rng, SeedableRng};

const MEMBERS: usize = 8;

/// Drives a seeded workload — background inserts, path transactions with
/// duplicate-member pieces (so coalescing engages), disconnect crashes,
/// housekeeping ticks — through a fleet under the given scheduler, then
/// returns the serialized telemetry report after quiescence.
fn capture(lanes: usize, seed: u64, sched: LaneSched) -> String {
    hermes_telemetry::set_enabled(true);
    hermes_telemetry::reset();
    hermes_telemetry::set_meta("suite", Json::Str("sched-determinism".into()));
    let members: Vec<(SwitchId, HermesPlane)> = (0..MEMBERS)
        .map(|i| {
            let sw = HermesSwitch::new(SwitchModel::pica8_p3290(), HermesConfig::default())
                .expect("default guarantee feasible on pica8_p3290");
            (i, HermesPlane::new(sw))
        })
        .collect();
    let mut fleet = Fleet::new(
        members,
        FleetConfig {
            lanes,
            seed,
            sched,
            coalesce: true,
        },
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;
    for step in 0..150u64 {
        // Tight inter-op gaps keep the home lanes busy, so the weighted
        // policy actually exercises off-home dispatch.
        now += SimDuration::from_us(rng.gen_range(20.0..400.0));
        let roll: f64 = rng.gen();
        if roll < 0.45 {
            let sw = rng.gen_range(0..MEMBERS);
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
        } else if roll < 0.8 {
            // Four pieces over two members — each member carries two, the
            // shape the coalescer folds into one cut per member.
            let first = rng.gen_range(0..MEMBERS);
            let pieces: Vec<(SwitchId, Rule)> = (0..4)
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
                    ((first + k / 2) % MEMBERS, r)
                })
                .collect();
            fleet.install_path(&pieces, now);
        } else if roll < 0.9 {
            let sw = rng.gen_range(0..MEMBERS);
            fleet
                .plane_mut(sw)
                .inject_crash(CrashKind::Disconnect, seed ^ step, 1, now);
        } else {
            fleet.tick_all(now);
        }
    }
    for _ in 0..32 {
        now += SimDuration::from_ms(5.0);
        fleet.tick_all(now);
    }
    hermes_telemetry::report("sched-determinism", "unknown").to_string()
}

fn assert_has_counter(report: &str, name: &str) {
    let parsed = Json::parse(report).expect("self-produced report parses");
    let Some(Json::Obj(counters)) = parsed.get("counters") else {
        panic!("report has no counters object");
    };
    assert!(
        counters.iter().any(|(k, _)| k == name),
        "report is missing the {name} counter"
    );
}

#[test]
fn weighted_runs_are_byte_identical_per_seed() {
    let a = capture(4, 11, LaneSched::Weighted);
    let b = capture(4, 11, LaneSched::Weighted);
    assert!(a.starts_with('{'));
    assert_eq!(
        a, b,
        "weighted-lane telemetry must be a pure function of the seed"
    );
    // The contended workload must actually trigger off-home dispatch —
    // otherwise this test pins round-robin, not the weighted scheduler.
    assert_has_counter(&a, "fleet.sched.steals");
    assert_has_counter(&a, "fleet.txn_coalesced_pieces");
}

#[test]
fn dedicated_lanes_bit_preserve_the_phase1_baseline() {
    // lanes = 0 gives every member its own lane; with nothing to contend
    // over, both schedulers must collapse to the identical phase-1
    // behavior, byte for byte.
    let pinned = capture(0, 29, LaneSched::Pinned);
    let weighted = capture(0, 29, LaneSched::Weighted);
    assert_eq!(
        pinned, weighted,
        "weighted scheduling must be a no-op on dedicated lanes"
    );
}

#[test]
fn seed_permutes_the_home_lane_assignment() {
    // The seeded Fisher–Yates shuffle must react to the seed (otherwise
    // per-seed determinism would hold trivially) while keeping the lane
    // loads balanced to within one member.
    let home_lanes = |seed| -> Vec<usize> {
        let members = (0..MEMBERS).map(|i| (i, RawSwitch::new(SwitchModel::pica8_p3290())));
        let config = FleetConfig {
            lanes: 3,
            seed,
            ..FleetConfig::default()
        };
        let fleet = Fleet::new(members.collect(), config);
        (fleet.member_health(SimTime::ZERO).iter())
            .map(|h| h.lane)
            .collect()
    };
    let (a, b) = (home_lanes(7), home_lanes(8));
    assert_eq!(a.len(), MEMBERS);
    assert_ne!(a, b, "distinct seeds must permute the home-lane map");
    for lanes in [a, b] {
        for lane in 0..3 {
            let n = lanes.iter().filter(|&&l| l == lane).count();
            assert!((2..=3).contains(&n), "lane {lane} holds {n} members");
        }
    }
}

//! **Fleet pipeline** — the sharded multi-switch controller under a
//! fat-tree-scale preload plus path-transaction churn.
//!
//! N Hermes planes shard across L deterministic worker lanes; the same
//! seeded workload — two-phase path installs across random member
//! slices, background single-rule churn, periodic crash injections — is
//! driven once with `lanes = 1` (every device op in the fleet serializes
//! through one driver) and once with `lanes = L`. The lanes overlap
//! shadow installs on one switch with in-flight work on others, so the
//! modeled makespan contracts by ≈ L on a balanced assignment; the gate
//! asserts ≥ 2× control-plane throughput at L ≥ 4.
//!
//! Crash injections open rollback windows mid-churn: transactions that
//! hit a down member abort and retract everywhere, and the quiescence
//! sweep proves the fleet carries no rollback debt afterwards.
//!
//! The **rebalancing storm** (phase 2) drives one pre-built skewed
//! schedule — 80% of pieces land on the five members sharing home lane 0,
//! with replacement, and a fixed hot-set victim crash-loops on a schedule
//! keyed by transaction index — through three arms: (A) pinned lanes
//! with per-piece submits (the round-robin strawman), (B) weighted
//! scheduling with per-member piece coalescing (the gated win: ≥ 1.5×
//! modeled throughput over A), and (C) arm B plus the TE rebalancer
//! steering each transaction across three candidate slices and migrating
//! rule load off pressure-hot members mid-storm.

#![forbid(unsafe_code)]

use hermes_baselines::{ControlPlane, HermesPlane};
use hermes_bench::Table;
use hermes_core::prelude::*;
use hermes_fleet::{Fleet, FleetConfig, LaneSched, RebalancePolicy, Rebalancer, SwitchId};
use hermes_rules::prelude::*;
use hermes_tcam::{CrashKind, SimDuration, SimTime, SwitchModel};
use hermes_util::rng::{stream, Rng, Salt, StdRng};
use std::collections::BTreeMap;

struct Outcome {
    horizon_ms: f64,
    throughput_kops: f64,
    ops: u64,
    commits: u64,
    rollbacks: u64,
    occupancy: usize,
    mean_rit_ms: f64,
    sweeps: u32,
}

fn churn_rule(id: u64, rng: &mut StdRng) -> Rule {
    let addr = 0x0a00_0000u32 | Rng::gen_range(rng, 0..1u32 << 24);
    let prio = 200 + Rng::gen_range(rng, 0..1600u32);
    Rule::new(
        id,
        Ipv4Prefix::new(addr, 24).to_key(),
        Priority(prio),
        Action::Forward(prio % 47 + 1),
    )
}

/// N Hermes planes with admission control off (the exp_crash precedent:
/// the experiment measures device-channel and lane throughput, and the
/// token bucket would otherwise reward the slower driver).
fn build_fleet(switches: usize, config: FleetConfig) -> Fleet<HermesPlane> {
    let hermes = HermesConfig {
        rate_limit: Some(f64::INFINITY),
        ..Default::default()
    };
    let members: Vec<(SwitchId, HermesPlane)> = (0..switches)
        .map(|i| {
            let sw = HermesSwitch::new(SwitchModel::pica8_p3290(), hermes.clone())
                .expect("INVARIANT: fixed experiment config is feasible for this model");
            (i, HermesPlane::new(sw))
        })
        .collect();
    Fleet::new(members, config)
}

/// Fat-tree-style preload: disjoint FIB rules spread across the whole
/// priority band, drained into the main table before the churn starts.
/// Returns the next free rule id.
fn preload_fleet(fleet: &mut Fleet<HermesPlane>, preload: usize) -> u64 {
    let mut next_id = 0u64;
    for sw in fleet.switch_ids() {
        let batch: Vec<ControlAction> = (0..preload)
            .map(|i| {
                let addr = (0b11u32 << 30) | ((i as u32) << 12);
                let r = Rule::new(
                    next_id,
                    Ipv4Prefix::new(addr, 24).to_key(),
                    Priority(10 + ((i as u32).wrapping_mul(37)) % 1980),
                    Action::Forward((i % 48) as u32),
                );
                next_id += 1;
                ControlAction::Insert(r)
            })
            .collect();
        let p = fleet.plane_mut(sw);
        p.apply_batch(&batch, SimTime::ZERO);
        p.tick(SimTime::ZERO);
        p.end_warmup();
        p.tick(SimTime::ZERO);
        p.end_warmup();
    }
    fleet.end_warmup_all();
    next_id
}

/// Quiescence: ticks past the makespan drive reconnect + resync +
/// rollback re-drives until every member is clean, then asserts no member
/// books a rule in both slices.
fn quiesce(fleet: &mut Fleet<HermesPlane>, horizon: SimTime) -> u32 {
    let mut now = horizon;
    let mut sweeps = 0u32;
    loop {
        now += SimDuration::from_ms(5.0);
        fleet.tick_all(now);
        let mut all = fleet.pending_rollback_len() == 0;
        for sw in fleet.switch_ids() {
            let s = fleet.plane_mut(sw).switch_mut();
            let clean = s.audit(now).clean();
            all = all && clean && !s.is_down() && !s.is_degraded() && s.deferred_len() == 0;
        }
        if all {
            break;
        }
        sweeps += 1;
        assert!(
            sweeps < 128,
            "fleet failed to quiesce within 128 audit sweeps"
        );
    }
    for (_, p) in fleet.planes() {
        assert_eq!(
            p.switch().intent_len(),
            p.switch().logical_len(),
            "logical view must hold each rule once after recovery"
        );
    }
    sweeps
}

fn run_phase(
    lanes: usize,
    switches: usize,
    preload: usize,
    paths: usize,
    span: usize,
    crash_every: usize,
    seed: u64,
) -> Outcome {
    // Admission control off (the exp_crash precedent): the experiment
    // measures device-channel and lane throughput, and the token bucket
    // would otherwise reward the slower driver — ops serviced later see a
    // refilled bucket and route cheaper, masking the pipeline win. Phase 1
    // is the static home-lane sharding.
    let mut fleet = build_fleet(
        switches,
        FleetConfig {
            lanes,
            seed,
            sched: LaneSched::Pinned,
            ..FleetConfig::default()
        },
    );
    // Each transaction consumes `span` piece ids plus one background id,
    // so ids stay sequential without a running counter.
    let base_id = preload_fleet(&mut fleet, preload);

    // Churn: path transactions across random member slices arrive far
    // faster than the devices drain, so the makespan is set by the lanes,
    // not the arrival process. Periodic crash injections open rollback
    // windows mid-stream.
    let mut rng = stream(seed, Salt::EXP_FLEET_CHURN);
    let mut now = SimTime::ZERO;
    let mut rit_sum_ms = 0.0;
    let mut rit_n = 0u64;
    let mut crash_index = 0u64;
    for t in 0..paths {
        now += SimDuration::from_us(10.0);
        if crash_every > 0 && t % crash_every == crash_every - 1 {
            let victim = Rng::gen_range(&mut rng, 0..switches);
            let kind = match crash_index % 3 {
                0 => CrashKind::Wipe,
                1 => CrashKind::Partial { survivor_prob: 0.5 },
                _ => CrashKind::Disconnect,
            };
            fleet.plane_mut(victim).inject_crash(
                kind,
                seed ^ crash_index.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                1,
                now,
            );
            crash_index += 1;
        }
        let txn_base = base_id + (t * (span + 1)) as u64;
        let first = Rng::gen_range(&mut rng, 0..switches);
        let pieces: Vec<(SwitchId, Rule)> = (0..span)
            .map(|k| {
                let r = churn_rule(txn_base + k as u64, &mut rng);
                ((first + k) % switches, r)
            })
            .collect();
        let out = fleet.install_path(&pieces, now);
        for op in &out.ops {
            rit_sum_ms += op.done.since(now).as_ms();
            rit_n += 1;
        }
        // Light background churn on one member alongside the transaction.
        let sw = Rng::gen_range(&mut rng, 0..switches);
        let r = churn_rule(txn_base + span as u64, &mut rng);
        fleet.submit(sw, &[ControlAction::Insert(r)], now);
        if t % 16 == 15 {
            fleet.tick_all(now);
        }
    }

    let horizon = fleet.horizon();
    let stats_mid = fleet.stats();
    let sweeps = quiesce(&mut fleet, horizon);
    let stats = fleet.stats();
    let horizon_ms = horizon.as_nanos() as f64 / 1e6;
    let throughput_kops = if horizon_ms > 0.0 {
        stats_mid.ops as f64 / horizon_ms
    } else {
        0.0
    };
    Outcome {
        horizon_ms,
        throughput_kops,
        ops: stats_mid.ops,
        commits: stats.txn_commits,
        rollbacks: stats.txn_rollbacks,
        occupancy: fleet.occupancy(),
        mean_rit_ms: if rit_n > 0 {
            rit_sum_ms / rit_n as f64
        } else {
            0.0
        },
        sweeps,
    }
}

/// One pre-built storm transaction: an optional crash injection (fired
/// identically in every arm), three candidate member slices, and the
/// rule payload. Everything is drawn up front so the three arms drive a
/// byte-identical workload.
struct StormTxn {
    crash: Option<(SwitchId, CrashKind, u64)>,
    cands: Vec<Vec<SwitchId>>,
    rules: Vec<Rule>,
}

/// Builds the skewed storm schedule: 80% of each transaction's pieces
/// land on the hot set (the members sharing home lane 0 under the pinned
/// assignment), drawn WITH replacement so coalescing has duplicates to
/// collapse; the remaining two candidate slices are uniform. A fixed
/// hot-set victim crash-loops every `crash_every` transactions, keyed by
/// transaction index so the fault schedule is identical across arms.
/// Returns the schedule and the hot set.
fn build_storm(
    switches: usize,
    lanes: usize,
    paths: usize,
    span: usize,
    crash_every: usize,
    seed: u64,
) -> (Vec<StormTxn>, Vec<SwitchId>) {
    let config = FleetConfig {
        lanes,
        seed,
        ..FleetConfig::default()
    };
    let hot: Vec<SwitchId> = (build_fleet(switches, config).member_health(SimTime::ZERO))
        .iter()
        .filter(|h| h.lane == 0)
        .map(|h| h.id)
        .collect();
    let victim = hot[0];
    let mut rng = stream(seed, Salt::EXP_FLEET_STORM);
    // Storm rule ids live far above the preload/churn band.
    let mut next_id = 10_000_000u64;
    let mut crash_index = 0u64;
    let mut txns = Vec::with_capacity(paths);
    for t in 0..paths {
        let crash = if crash_every > 0 && t % crash_every == crash_every - 1 {
            let kind = match crash_index % 3 {
                0 => CrashKind::Wipe,
                1 => CrashKind::Partial { survivor_prob: 0.5 },
                _ => CrashKind::Disconnect,
            };
            let c = (
                victim,
                kind,
                seed ^ crash_index.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            crash_index += 1;
            Some(c)
        } else {
            None
        };
        let skewed: Vec<SwitchId> = (0..span)
            .map(|_| {
                if Rng::gen_range(&mut rng, 0..10u32) < 8 {
                    hot[Rng::gen_range(&mut rng, 0..hot.len())]
                } else {
                    Rng::gen_range(&mut rng, 0..switches)
                }
            })
            .collect();
        let mut cands = vec![skewed];
        for _ in 0..2 {
            cands.push(
                (0..span)
                    .map(|_| Rng::gen_range(&mut rng, 0..switches))
                    .collect(),
            );
        }
        let rules: Vec<Rule> = (0..span)
            .map(|_| {
                let r = churn_rule(next_id, &mut rng);
                next_id += 1;
                r
            })
            .collect();
        txns.push(StormTxn {
            crash,
            cands,
            rules,
        });
    }
    (txns, hot)
}

struct StormOutcome {
    horizon_ms: f64,
    /// Staged pieces per millisecond of makespan — the numerator is the
    /// fixed schedule size, so arms compare on makespan alone.
    thr_pieces_per_ms: f64,
    commits: u64,
    rollbacks: u64,
    steals: u64,
    coalesced: u64,
    steered: u64,
    migrations: u64,
    rules_moved: u64,
    sweeps: u32,
}

/// One arm's policy knobs for the storm: which lane scheduler runs, and
/// whether coalescing and TE-driven rebalancing are armed.
struct StormArm {
    sched: LaneSched,
    coalesce: bool,
    rebalance: bool,
}

/// Drives the pre-built storm schedule through one arm. Without
/// `arm.rebalance`, every transaction takes the first (skewed) candidate
/// slice; with it, the [`Rebalancer`] scores the fleet per transaction,
/// picks among the three slices, and every 32 transactions migrates up
/// to 8 committed rules off each pressure-hot member.
fn run_storm(
    schedule: &[StormTxn],
    switches: usize,
    lanes: usize,
    preload: usize,
    seed: u64,
    arm: &StormArm,
) -> StormOutcome {
    let rebalance = arm.rebalance;
    let mut fleet = build_fleet(
        switches,
        FleetConfig {
            lanes,
            seed,
            sched: arm.sched,
            coalesce: arm.coalesce,
        },
    );
    preload_fleet(&mut fleet, preload);
    // Two policies, two time scales. Steering reacts to *instantaneous*
    // channel pressure (the default, backlog-dominated scoring) and — as
    // a greedy balancer — flattens exactly the signal it reads, so by
    // migration time the backlog skew is gone. Migration therefore plans
    // on *durable* rule load alone (occupancy-only scoring), which
    // steering does not equalize: the skewed slices keep depositing rules
    // on the hot set whenever they win a pick.
    let mut rb = Rebalancer::new(RebalancePolicy::default());
    let mut mig = Rebalancer::new(RebalancePolicy {
        backlog_us_weight: 0.0,
        rit_us_weight: 0.0,
        hot_factor: 1.1,
        ..RebalancePolicy::default()
    });
    // Committed storm rules by current owner, oldest first — the
    // migration pool.
    let mut owners: BTreeMap<SwitchId, Vec<Rule>> = BTreeMap::new();
    let mut now = SimTime::ZERO;
    for (t, txn) in schedule.iter().enumerate() {
        now += SimDuration::from_us(10.0);
        if let Some((victim, kind, crash_seed)) = txn.crash {
            fleet
                .plane_mut(victim)
                .inject_crash(kind, crash_seed, 1, now);
        }
        let pick = if rebalance {
            let scores = rb.scores(&fleet.member_health(now));
            rb.pick_slice(&txn.cands, &scores)
        } else {
            0
        };
        let pieces: Vec<(SwitchId, Rule)> = txn.cands[pick]
            .iter()
            .copied()
            .zip(txn.rules.iter().copied())
            .collect();
        let out = fleet.install_path(&pieces, now);
        if out.committed {
            for (sw, r) in &pieces {
                owners.entry(*sw).or_default().push(*r);
            }
        }
        if t % 16 == 15 {
            fleet.tick_all(now);
        }
        if rebalance && t % 32 == 31 {
            let plan = mig.plan_moves(&fleet.member_health(now));
            for (hot_sw, cold_sw) in plan {
                let batch: Vec<Rule> = owners
                    .get(&hot_sw)
                    .map(|v| v.iter().take(8).copied().collect())
                    .unwrap_or_default();
                if batch.is_empty() {
                    continue;
                }
                let moved = fleet.migrate_rules(hot_sw, cold_sw, &batch, now);
                if moved.committed {
                    let pool = owners
                        .get_mut(&hot_sw)
                        .expect("INVARIANT: batch came from this owner's pool");
                    pool.drain(..batch.len());
                    owners.entry(cold_sw).or_default().extend(batch);
                }
            }
        }
    }

    let horizon = fleet.horizon();
    let stats_mid = fleet.stats();
    let sweeps = quiesce(&mut fleet, horizon);
    let stats = fleet.stats();
    let horizon_ms = horizon.as_nanos() as f64 / 1e6;
    let pieces_total: usize = schedule.iter().map(|t| t.rules.len()).sum();
    StormOutcome {
        horizon_ms,
        thr_pieces_per_ms: if horizon_ms > 0.0 {
            pieces_total as f64 / horizon_ms
        } else {
            0.0
        },
        commits: stats.txn_commits,
        rollbacks: stats.txn_rollbacks,
        steals: stats_mid.steals,
        coalesced: stats_mid.coalesced_pieces,
        steered: rb.stats().steered,
        migrations: stats.migrations,
        rules_moved: stats.rules_moved,
        sweeps,
    }
}

/// Lanes of the sharded arm (phase 1) and of every storm arm (phase 2).
const LANES: usize = 4;
/// Pieces per phase-1 path transaction.
const SPAN: usize = 3;
/// Workload seed of both phases.
const SEED: u64 = 7;
/// Storm transactions at scale 1.
const STORM_PATHS: usize = 400;
/// Pieces per storm transaction.
const STORM_SPAN: usize = 4;
/// Transactions between two crashes of the hot-set victim.
const STORM_CRASH_EVERY: usize = 25;

fn main() -> std::process::ExitCode {
    hermes_bench::run_experiment("exp_fleet", run_experiment_body)
}

fn run_experiment_body() {
    let switches = hermes_bench::scenario().knob_u64("switches", 20) as usize;
    let preload = hermes_bench::scenario().knob_u64("preload", 150) as usize;
    let paths = hermes_bench::scenario().knob_u64("paths", 400) as usize * hermes_bench::scale();
    let crash_every = hermes_bench::scenario().knob_u64("crash_every", 50) as usize;
    hermes_bench::report_meta("switches", &(switches as u64));
    hermes_bench::report_meta("lanes", &(LANES as u64));
    hermes_bench::report_meta("paths", &(paths as u64));

    println!("== Fleet pipeline: sharded lanes vs a serialized driver ==\n");
    println!(
        "{switches} Hermes switches, {preload} preloaded rules each, {paths} path \
         transactions of {SPAN} pieces, a crash every {crash_every} transactions, seed {SEED}\n"
    );

    let mut t = Table::new(&[
        "Lanes",
        "Ops",
        "Makespan (ms)",
        "Thr (ops/ms)",
        "Mean RIT (ms)",
        "Commits",
        "Rollbacks",
        "Occupancy",
        "Sweeps",
    ]);
    let serial = run_phase(1, switches, preload, paths, SPAN, crash_every, SEED);
    let sharded = run_phase(LANES, switches, preload, paths, SPAN, crash_every, SEED);
    for (label, o) in [("1", &serial), (&LANES.to_string(), &sharded)] {
        t.row(&[
            label.to_string(),
            o.ops.to_string(),
            format!("{:.3}", o.horizon_ms),
            format!("{:.3}", o.throughput_kops),
            format!("{:.3}", o.mean_rit_ms),
            o.commits.to_string(),
            o.rollbacks.to_string(),
            o.occupancy.to_string(),
            o.sweeps.to_string(),
        ]);
    }
    t.print();

    let speedup = if serial.throughput_kops > 0.0 {
        sharded.throughput_kops / serial.throughput_kops
    } else {
        0.0
    };
    println!(
        "\nthroughput speedup at lanes={LANES}: {speedup:.2}x over the serialized driver\n\
         (an op occupies its switch's control channel and its lane; sharding\n\
         overlaps shadow installs on one switch with migrations on others)"
    );

    assert!(
        serial.rollbacks >= 1,
        "the crash schedule must abort at least one transaction"
    );
    assert_eq!(
        serial.commits + serial.rollbacks,
        paths as u64,
        "every transaction either commits or rolls back"
    );
    assert_eq!(
        serial.ops, sharded.ops,
        "both lane configurations drive the identical workload"
    );
    assert!(
        speedup >= 2.0,
        "lanes={LANES} must deliver >=2x modeled throughput over lanes=1 (got {speedup:.2}x)"
    );

    // ---- Phase 2: the skewed rebalancing storm ----------------------
    let storm_paths = STORM_PATHS * hermes_bench::scale();
    hermes_bench::report_meta("storm_paths", &(storm_paths as u64));

    let (schedule, hot) = build_storm(
        switches,
        LANES,
        storm_paths,
        STORM_SPAN,
        STORM_CRASH_EVERY,
        SEED,
    );
    println!(
        "\n== Rebalancing storm: skewed load over the lane-0 hot set ==\n\n\
         {storm_paths} transactions of {STORM_SPAN} pieces, 80% of pieces on the \
         {}-member hot set (with replacement), member {} crash-looping every \
         {STORM_CRASH_EVERY} transactions\n",
        hot.len(),
        hot[0],
    );

    let arm_a = run_storm(
        &schedule,
        switches,
        LANES,
        preload,
        SEED,
        &StormArm {
            sched: LaneSched::Pinned,
            coalesce: false,
            rebalance: false,
        },
    );
    let arm_b = run_storm(
        &schedule,
        switches,
        LANES,
        preload,
        SEED,
        &StormArm {
            sched: LaneSched::Weighted,
            coalesce: true,
            rebalance: false,
        },
    );
    let arm_c = run_storm(
        &schedule,
        switches,
        LANES,
        preload,
        SEED,
        &StormArm {
            sched: LaneSched::Weighted,
            coalesce: true,
            rebalance: true,
        },
    );

    let mut st = Table::new(&[
        "Arm",
        "Makespan (ms)",
        "Thr (pieces/ms)",
        "Commits",
        "Rollbacks",
        "Steals",
        "Coalesced",
        "Steered",
        "Migrations",
        "Moved",
        "Sweeps",
    ]);
    for (label, o) in [
        ("A pinned+per-piece", &arm_a),
        ("B weighted+coalesce", &arm_b),
        ("C  + rebalancer", &arm_c),
    ] {
        st.row(&[
            label.to_string(),
            format!("{:.3}", o.horizon_ms),
            format!("{:.3}", o.thr_pieces_per_ms),
            o.commits.to_string(),
            o.rollbacks.to_string(),
            o.steals.to_string(),
            o.coalesced.to_string(),
            o.steered.to_string(),
            o.migrations.to_string(),
            o.rules_moved.to_string(),
            o.sweeps.to_string(),
        ]);
    }
    st.print();

    let storm_win = if arm_a.thr_pieces_per_ms > 0.0 {
        arm_b.thr_pieces_per_ms / arm_a.thr_pieces_per_ms
    } else {
        0.0
    };
    println!(
        "\nstorm win (weighted scheduling + piece coalescing over pinned \
         per-piece): {storm_win:.2}x\n(the hot set shares home lane 0: pinned \
         dispatch serializes 80% of the storm\n through one lane while weighted \
         dispatch spreads the same member channels\n across all {LANES})"
    );

    for (label, o) in [("A", &arm_a), ("B", &arm_b), ("C", &arm_c)] {
        assert_eq!(
            o.commits + o.rollbacks,
            storm_paths as u64,
            "arm {label}: every storm transaction either commits or rolls back"
        );
    }
    assert_eq!(
        arm_a.steals, 0,
        "pinned dispatch never leaves the home lane"
    );
    assert_eq!(
        arm_a.coalesced, 0,
        "per-piece mode submits every piece alone"
    );
    assert!(
        arm_b.steals > 0 && arm_b.coalesced > 0,
        "the weighted arm must actually steal ({}) and coalesce ({})",
        arm_b.steals,
        arm_b.coalesced,
    );
    assert!(
        arm_c.steered > 0,
        "member health must overrule the skewed slice at least once"
    );
    assert!(
        arm_c.migrations >= 1,
        "at least one migration must drain the hot set (moved {} rules)",
        arm_c.rules_moved,
    );
    assert!(
        arm_c.rollbacks < arm_b.rollbacks,
        "steering away from the crash-looping victim must cut rollbacks \
         (C {} vs B {})",
        arm_c.rollbacks,
        arm_b.rollbacks,
    );
    assert!(
        storm_win >= 1.5,
        "weighted scheduling + coalescing must deliver >=1.5x modeled \
         throughput over pinned per-piece dispatch on the skewed storm \
         (got {storm_win:.2}x)"
    );
}

//! `batch_resync` — the same `core` + `tcam` layers as `switch_churn`, used
//! the *other* way: through the batched pipeline.
//!
//! One `HermesPlane` on a 16 384-entry scaled Pica8 model holds 12 k
//! disjoint rules (preloaded in 1 024-action `apply_batch` chunks). Each
//! cycle crashes the switch (`Wipe` and `Partial{0.5}` alternating), ticks
//! until the resync engine has rebuilt it from the intent store, then
//! applies one 512-action TE batch (256 deletes + 256 inserts) and ticks
//! the Rule Manager. Op = one rule (re)installed through a batch:
//! `admit_batch`, `migrate_batched`, `resync` and `TcamTable::apply_batch`
//! do the work. Rules are disjoint, so the `rules` algebra and Algorithm 1
//! have nothing to cut — the prediction for a partition optimisation here
//! is *no change*.

use super::{Model, RepOutcome, Scale};
use crate::probes;
use crate::recorder::{Recorder, Sp};
use crate::verify::{self, action_for, Check, Fnv64};
use hermes_baselines::{ControlPlane, HermesPlane};
use hermes_core::prelude::*;
use hermes_rules::prelude::*;
use hermes_tcam::{CrashKind, SimDuration, SimTime, SwitchModel};
use hermes_util::rng::rngs::StdRng;
use hermes_util::rng::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Generator stream for this workload.
const RESYNC_STREAM_SALT: u64 = 0x4253_594e_4331_3031;
/// TCAM entries of the scaled model.
pub const CAPACITY: usize = 16_384;
/// Rules resident throughout.
pub const PRELOAD: usize = 12_000;
/// Crash → resync → TE-batch cycles per full-size repetition.
pub const CYCLES: usize = 60;
/// Actions per TE batch: half deletes, then half inserts.
pub const TE_BATCH: usize = 512;
/// Actions per preload batch.
const PRELOAD_CHUNK: usize = 1_024;
/// Packets in the oracle sample.
const ORACLE_PACKETS: usize = 1_000;
/// /24 slots of 10.0.0.0/8 the disjoint rules are drawn from.
const SLOTS: u32 = 1 << 16;

/// One crash → resync → TE batch cycle.
#[derive(Clone, Debug)]
pub struct Cycle {
    /// Crash class injected.
    pub crash: CrashKind,
    /// Survivor-draw seed for partial retention.
    pub survivor_seed: u64,
    /// The TE batch: deletes first, then inserts.
    pub batch: Vec<ControlAction>,
}

/// Generated inputs.
#[derive(Clone, Debug)]
pub struct Input {
    /// Rules installed before the measured region.
    pub preload: Vec<Rule>,
    /// The cycles.
    pub cycles: Vec<Cycle>,
    /// The logical population left behind.
    pub final_live: Vec<Rule>,
    /// Oracle packet sample.
    pub packets: Vec<u128>,
}

impl Input {
    /// Stable digest of every generated value.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::default();
        for r in self.preload.iter().chain(&self.final_live) {
            h.rule(r);
        }
        for c in &self.cycles {
            h.u64(c.survivor_seed);
            h.u64(u64::from(matches!(c.crash, CrashKind::Wipe)));
            for a in &c.batch {
                h.action(a);
            }
        }
        for p in &self.packets {
            h.u128(*p);
        }
        h.finish()
    }
}

/// The Pica8 P-3290 measurements stretched over an 8× larger TCAM: same
/// rates at 8× the occupancy, so per-entry costs stay the paper's.
pub fn scaled_model() -> SwitchModel {
    let mut m = SwitchModel::pica8_p3290();
    let factor = (CAPACITY / m.capacity) as f64;
    m.name = format!("{} x{factor}", m.name);
    for p in &mut m.points {
        p.0 *= factor;
    }
    m.capacity = CAPACITY;
    m
}

fn slot_rule(id: u64, slot: u32, rng: &mut StdRng) -> Rule {
    let prio = rng.gen_range(1..2000u32);
    Rule::new(
        id,
        Ipv4Prefix::new((10u32 << 24) | (slot << 8), 24).to_key(),
        Priority(prio),
        action_for(prio),
    )
}

/// Generates the inputs.
pub fn generate(seed: u64, scale: Scale) -> Input {
    let mut rng = StdRng::seed_from_u64(seed ^ RESYNC_STREAM_SALT);
    // A shuffled slot deck: the head is live, the tail is free.
    let mut deck: Vec<u32> = (0..SLOTS).collect();
    rng.shuffle(&mut deck);
    let mut next_id = 0u64;
    let mut live: Vec<(Rule, u32)> = deck[..PRELOAD]
        .iter()
        .map(|&slot| {
            let r = slot_rule(next_id, slot, &mut rng);
            next_id += 1;
            (r, slot)
        })
        .collect();
    let mut free: Vec<u32> = deck[PRELOAD..].to_vec();
    let preload: Vec<Rule> = live.iter().map(|(r, _)| *r).collect();

    let half = TE_BATCH / 2;
    let cycles = (0..scale.of(CYCLES, 12))
        .map(|c| {
            let mut batch = Vec::with_capacity(TE_BATCH);
            for _ in 0..half {
                let (r, slot) = live.swap_remove(rng.gen_range(0..live.len()));
                free.push(slot);
                batch.push(ControlAction::Delete(r.id));
            }
            for _ in 0..half {
                let slot = free.swap_remove(rng.gen_range(0..free.len()));
                let r = slot_rule(next_id, slot, &mut rng);
                next_id += 1;
                live.push((r, slot));
                batch.push(ControlAction::Insert(r));
            }
            Cycle {
                crash: if c % 2 == 0 {
                    CrashKind::Wipe
                } else {
                    CrashKind::Partial { survivor_prob: 0.5 }
                },
                survivor_seed: rng.gen(),
                batch,
            }
        })
        .collect();

    let packets = (0..ORACLE_PACKETS)
        .map(|i| {
            let slot = if i % 2 == 0 {
                live[rng.gen_range(0..live.len())].1
            } else {
                rng.gen_range(0..SLOTS)
            };
            PacketHeader::to_dst((10u32 << 24) | (slot << 8) | rng.gen_range(0..256u32)).to_word()
        })
        .collect();
    Input {
        preload,
        cycles,
        final_live: live.into_iter().map(|(r, _)| r).collect(),
        packets,
    }
}

fn build(input: &Input) -> HermesPlane {
    // Admission control off (the exp_crash / exp_fleet precedent): batches
    // arrive at one instant, and the token bucket would push everything
    // past its burst onto the per-op main-table path this workload exists
    // to bypass.
    let config = HermesConfig {
        rate_limit: Some(f64::INFINITY),
        ..HermesConfig::default()
    };
    let sw = HermesSwitch::new(scaled_model(), config)
        // INVARIANT: the 5 ms guarantee is feasible on the scaled model
        // (its base cost is the Pica8's 0.3 ms).
        .expect("feasible config");
    let mut plane = HermesPlane::new(sw);
    let actions: Vec<ControlAction> = input
        .preload
        .iter()
        .map(|r| ControlAction::Insert(*r))
        .collect();
    for chunk in actions.chunks(PRELOAD_CHUNK) {
        plane.apply_batch(chunk, SimTime::ZERO);
        plane.tick(SimTime::ZERO);
        plane.end_warmup();
    }
    plane.tick(SimTime::ZERO);
    plane.end_warmup();
    plane
}

/// One repetition.
pub fn run_rep(input: &Input, rec: &mut Recorder) -> RepOutcome {
    let mut out = RepOutcome::default();
    let setup = rec.enter(Sp::Setup);
    let mut plane = build(input);
    out.setup_s = rec.exit(setup, 1) as f64 / 1e9;

    let mut model = Model::default();
    let mut now = SimTime::ZERO;
    let mut stuck = 0u64;
    // Counts cover the measured region only, not the preload.
    hermes_telemetry::reset();
    let measured = rec.enter(Sp::Measured);
    for cycle in &input.cycles {
        now += SimDuration::from_secs(1.0);
        let before = plane.switch().resync_stats().rules_reinstalled;
        let resync = rec.enter(Sp::CoreResync);
        plane.inject_crash(cycle.crash, cycle.survivor_seed, 1, now);
        let mut ticks = 0;
        while plane.is_down() && ticks < 64 {
            now += SimDuration::from_ms(5.0);
            plane.tick(now);
            ticks += 1;
        }
        let reinstalled = plane.switch().resync_stats().rules_reinstalled - before;
        rec.exit(resync, reinstalled.max(1) as u32);
        stuck += u64::from(plane.is_down());
        out.ops += reinstalled;

        now += SimDuration::from_ms(100.0);
        let batch = rec.enter(Sp::CoreBatch);
        let outcome = plane.apply_batch(&cycle.batch, now);
        rec.exit(batch, cycle.batch.len() as u32);
        out.ops += cycle.batch.len() as u64;
        for (op, action) in outcome.ops.iter().zip(&cycle.batch) {
            if action.is_insert() {
                model.inserts += 1;
                model.violations += u64::from(op.violated);
                model.rit_ns.push(op.completed_at.as_nanos());
            }
        }

        now += SimDuration::from_ms(100.0);
        rec.time(Sp::CoreTick, || plane.tick(now));
    }
    out.measured_s = rec.exit(measured, 1) as f64 / 1e9;

    let verify = rec.enter(Sp::Verify);
    let sw = plane.switch();
    out.failed += stuck;
    out.checks.push(Check::new(
        "every_crash_recovered",
        stuck == 0,
        format!(
            "{stuck} of {} crash windows still open after 64 ticks",
            input.cycles.len()
        ),
    ));
    out.failed += verify::switch_checks(sw, &input.final_live, &mut out.checks);
    out.checks
        .push(verify::oracle_check(sw, &input.final_live, &input.packets));
    let (stats, rs) = (sw.stats(), sw.resync_stats());
    let tables = |i: usize| sw.device().slice(i).table.stats();
    out.digest = vec![
        ("inserts", stats.inserts),
        ("shadow_inserts", stats.shadow_inserts),
        ("main_inserts", stats.main_inserts),
        ("violations", stats.violations),
        ("rules_cut", stats.rules_cut),
        ("migrations", stats.migrations),
        ("rules_migrated", stats.rules_migrated),
        ("crashes_detected", rs.crashes_detected),
        ("resyncs_completed", rs.resyncs_completed),
        ("rules_reinstalled", rs.rules_reinstalled),
        ("survivors_kept", rs.survivors_kept),
        ("guarantee_gap_ns", rs.guarantee_gap_ns),
        ("shadow_shifts", tables(SHADOW).total_shifts),
        ("main_shifts", tables(MAIN).total_shifts),
        ("logical_len", sw.logical_len() as u64),
        ("rit_ns_sum", model.rit_ns.iter().sum()),
    ];
    out.model = model;
    rec.exit(verify, 1);
    out
}

/// Probes at this workload's occupancy (12 k entries): the prediction is
/// that Algorithm 1 finds nothing to cut, and the batched `tcam` path is
/// the one that matters.
pub fn probes(seed: u64, scale: Scale) -> BTreeMap<&'static str, f64> {
    let input = generate(seed, scale);
    let plane = build(&input);
    let inserts: Vec<Rule> = input
        .cycles
        .iter()
        .flat_map(|c| &c.batch)
        .filter_map(|a| match a {
            ControlAction::Insert(r) => Some(*r),
            _ => None,
        })
        .collect();
    probes::at_switch(plane.switch(), &inserts, &input.packets)
}

//! `switch_churn` — the paper's core per-op write path.
//!
//! One `HermesPlane` (Pica8 P-3290, default `HermesConfig`) behind a
//! `CpQueue` takes a closed-loop stream of single control actions:
//! 45 % insert / 45 % delete / 10 % modify around a steady population of
//! ~1 200 logical rules, 30 % of the inserts being wider lower-priority
//! covers of a live rule (the shape Algorithm 1 must cut). Arrivals are
//! Poisson in *sim* time below the admitted rate, and the Rule Manager
//! ticks every 100 sim-ms. `core` gatekeeper/partition/migration, the
//! `rules` algebra and per-op `tcam` shifts do the work; `fleet`,
//! `netsim`, lookups and the batched path are idle.

use super::{Model, RepOutcome, Scale};
use crate::probes;
use crate::recorder::{Recorder, Sp};
use crate::verify::{self, action_for, Check, Fnv64};
use hermes_baselines::{ControlPlane, CpQueue, HermesPlane};
use hermes_core::prelude::*;
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SimTime, SwitchModel};
use hermes_util::rng::rngs::StdRng;
use hermes_util::rng::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Generator stream for this workload (R7: one named stream per generator).
const CHURN_STREAM_SALT: u64 = 0x5357_4348_5552_4e31;
/// Steady logical population.
pub const TARGET_LIVE: usize = 1_200;
/// Timed control actions per full-size repetition.
pub const ACTIONS: usize = 250_000;
/// Mean action arrival rate, sim-Hz: 45 % of it is inserts (18/s), under
/// the ~23 inserts/s Equation 2 admits on this model, so the token bucket
/// absorbs the Poisson bursts and the guarantee applies to every insert.
const ACTION_RATE_HZ: f64 = 40.0;
/// Packets in the oracle sample.
const ORACLE_PACKETS: usize = 1_000;

/// One timed control action.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    /// Arrival instant (sim time).
    pub at: SimTime,
    /// The action.
    pub action: ControlAction,
}

/// Generated inputs: a pure function of `(seed, scale)`.
#[derive(Clone, Debug)]
pub struct Input {
    /// Rules installed before the measured region.
    pub preload: Vec<Rule>,
    /// The timed action stream.
    pub steps: Vec<Step>,
    /// The logical population the stream leaves behind (flat oracle).
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
        for s in &self.steps {
            h.u64(s.at.as_nanos());
            h.action(&s.action);
        }
        for p in &self.packets {
            h.u128(*p);
        }
        h.finish()
    }
}

fn narrow_rule(id: u64, rng: &mut StdRng) -> (Rule, Ipv4Prefix) {
    let block = rng.gen_range(0..1u32 << 14);
    let addr = (0b01u32 << 30) | (block << 16) | rng.gen_range(0..1u32 << 16);
    let prefix = Ipv4Prefix::new(addr, rng.gen_range(20..=28u8));
    let prio = rng.gen_range(10..=1000u32);
    (
        Rule::new(id, prefix.to_key(), Priority(prio), action_for(prio)),
        prefix,
    )
}

/// A packet inside `prefix` (or anywhere in the workload's address space
/// when `None`).
fn packet(prefix: Option<Ipv4Prefix>, rng: &mut StdRng) -> u128 {
    let addr = match prefix {
        Some(p) => p.addr() | (rng.gen::<u32>() & !p.netmask()),
        None => (0b01u32 << 30) | rng.gen_range(0..1u32 << 30),
    };
    PacketHeader::to_dst(addr).to_word()
}

/// Generates the inputs.
pub fn generate(seed: u64, scale: Scale) -> Input {
    let mut rng = StdRng::seed_from_u64(seed ^ CHURN_STREAM_SALT);
    let actions = scale.of(ACTIONS, 2_000);
    let mut next_id = 0u64;
    let mut live: Vec<(Rule, Ipv4Prefix)> = Vec::with_capacity(TARGET_LIVE * 2);
    for _ in 0..TARGET_LIVE {
        live.push(narrow_rule(next_id, &mut rng));
        next_id += 1;
    }
    let preload: Vec<Rule> = live.iter().map(|(r, _)| *r).collect();

    let mut steps = Vec::with_capacity(actions);
    let mut now_s = 0.0f64;
    for _ in 0..actions {
        now_s += rng.exp(1.0 / ACTION_RATE_HZ);
        let at = SimTime::from_secs(now_s);
        let u: f64 = rng.gen();
        // 10 % modifies; the rest splits insert/delete evenly at the
        // target population and leans back toward it when it drifts.
        let lean = ((TARGET_LIVE as f64 - live.len() as f64) / 400.0).clamp(-0.4, 0.4);
        let action = if u < 0.10 {
            let i = rng.gen_range(0..live.len());
            let id = live[i].0.id;
            if rng.gen_bool(0.75) {
                let a = Action::Forward(rng.gen_range(1..48u32));
                live[i].0.action = a;
                ControlAction::Modify {
                    id,
                    action: Some(a),
                    priority: None,
                }
            } else {
                let p = Priority(rng.gen_range(10..=1000u32));
                live[i].0.priority = p;
                ControlAction::Modify {
                    id,
                    action: None,
                    priority: Some(p),
                }
            }
        } else if rng.gen_bool(0.5 + lean) {
            let entry = if rng.gen_bool(0.30) {
                // A wider, lower-priority cover of a live narrow rule
                // (covers of covers would widen without bound); a few
                // redraws find one, the population being mostly narrow.
                let mut pick = live[rng.gen_range(0..live.len())];
                for _ in 0..8 {
                    if pick.1.len() >= 20 {
                        break;
                    }
                    pick = live[rng.gen_range(0..live.len())];
                }
                let (base, base_prefix) = pick;
                let len = base_prefix
                    .len()
                    .saturating_sub(rng.gen_range(2..=6u8))
                    .max(4);
                let prefix = Ipv4Prefix::new(base_prefix.addr(), len);
                let prio = base
                    .priority
                    .0
                    .saturating_sub(rng.gen_range(1..=5u32))
                    .max(1);
                (
                    Rule::new(next_id, prefix.to_key(), Priority(prio), action_for(prio)),
                    prefix,
                )
            } else {
                narrow_rule(next_id, &mut rng)
            };
            next_id += 1;
            live.push(entry);
            ControlAction::Insert(entry.0)
        } else {
            let (r, _) = live.swap_remove(rng.gen_range(0..live.len()));
            ControlAction::Delete(r.id)
        };
        steps.push(Step { at, action });
    }

    let packets = (0..ORACLE_PACKETS)
        .map(|i| {
            let inside = (i % 2 == 0).then(|| live[rng.gen_range(0..live.len())].1);
            packet(inside, &mut rng)
        })
        .collect();
    Input {
        preload,
        steps,
        final_live: live.into_iter().map(|(r, _)| r).collect(),
        packets,
    }
}

fn build(input: &Input) -> CpQueue<HermesPlane> {
    let sw = HermesSwitch::new(SwitchModel::pica8_p3290(), HermesConfig::default())
        // INVARIANT: the default 5 ms guarantee is feasible on the Pica8 model.
        .expect("feasible config");
    let mut plane = HermesPlane::new(sw);
    let batch: Vec<ControlAction> = input
        .preload
        .iter()
        .map(|r| ControlAction::Insert(*r))
        .collect();
    for chunk in batch.chunks(128) {
        plane.apply_batch(chunk, SimTime::ZERO);
        plane.tick(SimTime::ZERO);
        plane.end_warmup();
    }
    plane.tick(SimTime::ZERO);
    plane.end_warmup();
    CpQueue::new(plane)
}

/// One repetition: generate, preload, drive the stream, verify.
pub fn run_rep(input: &Input, rec: &mut Recorder) -> RepOutcome {
    let mut out = RepOutcome::default();
    let setup = rec.enter(Sp::Setup);
    let mut q = build(input);
    out.setup_s = rec.exit(setup, 1) as f64 / 1e9;

    let tick = SimDuration::from_ms(100.0);
    let mut next_tick = SimTime::ZERO + tick;
    let mut model = Model::default();
    model.rit_ns.reserve(input.steps.len());
    for kind in [Sp::CoreInsert, Sp::CoreDelete, Sp::CoreModify] {
        rec.expect_calls(kind, input.steps.len());
    }
    let sim_end = input.steps.last().map_or(SimTime::ZERO, |s| s.at);
    rec.expect_calls(Sp::CoreTick, (sim_end.as_secs() * 10.0) as usize + 8);
    // Counts cover the measured region only, not the preload.
    hermes_telemetry::reset();
    let measured = rec.enter(Sp::Measured);
    for step in &input.steps {
        while next_tick <= step.at {
            rec.time(Sp::CoreTick, || q.plane_mut().tick(next_tick));
            next_tick += tick;
        }
        let kind = match step.action {
            ControlAction::Insert(_) => Sp::CoreInsert,
            ControlAction::Delete(_) => Sp::CoreDelete,
            ControlAction::Modify { .. } => Sp::CoreModify,
        };
        let (start, outcome) = rec.time(kind, || {
            q.submit(std::slice::from_ref(&step.action), step.at)
        });
        if kind == Sp::CoreInsert {
            let op = &outcome.ops[0];
            model.inserts += 1;
            model.violations += u64::from(op.violated);
            model
                .rit_ns
                .push(CpQueue::<HermesPlane>::rit(step.at, start, op).as_nanos());
        }
    }
    // Quiesce: two more manager ticks drain whatever the last arrivals left.
    for _ in 0..2 {
        rec.time(Sp::CoreTick, || q.plane_mut().tick(next_tick));
        next_tick += tick;
    }
    out.measured_s = rec.exit(measured, 1) as f64 / 1e9;
    out.ops = input.steps.len() as u64;

    let verify = rec.enter(Sp::Verify);
    let sw = q.plane().switch();
    out.failed += verify::switch_checks(sw, &input.final_live, &mut out.checks);
    out.checks
        .push(verify::oracle_check(sw, &input.final_live, &input.packets));
    let stats = sw.stats();
    out.checks.push(Check::new(
        "actions_accepted",
        stats.deletes + stats.modifies + stats.inserts >= out.ops,
        format!(
            "{} inserts {} deletes {} modifies accepted for {} issued",
            stats.inserts, stats.deletes, stats.modifies, out.ops
        ),
    ));
    let tables = |i: usize| sw.device().slice(i).table.stats();
    out.digest = vec![
        ("inserts", stats.inserts),
        ("shadow_inserts", stats.shadow_inserts),
        ("main_inserts", stats.main_inserts),
        ("redundant_inserts", stats.redundant_inserts),
        ("violations", stats.violations),
        ("pieces_written", stats.pieces_written),
        ("rules_cut", stats.rules_cut),
        ("repartitions", stats.repartitions),
        ("migrations", stats.migrations),
        ("rules_migrated", stats.rules_migrated),
        ("shadow_shifts", tables(SHADOW).total_shifts),
        ("main_shifts", tables(MAIN).total_shifts),
        ("logical_len", sw.logical_len() as u64),
        ("rit_ns_sum", model.rit_ns.iter().sum()),
    ];
    out.model = model;
    rec.exit(verify, 1);
    out
}

/// Probes at this workload's occupancy: Algorithm 1 and the `rules`
/// algebra over the workload's own inserts against its main-table
/// snapshot, and single-op `tcam` calls on a copy of that table.
pub fn probes(seed: u64, scale: Scale) -> BTreeMap<&'static str, f64> {
    let input = generate(seed, scale);
    let q = build(&input);
    let sw = q.plane().switch();
    let inserts: Vec<Rule> = input
        .steps
        .iter()
        .filter_map(|s| match s.action {
            ControlAction::Insert(r) => Some(r),
            _ => None,
        })
        .collect();
    probes::at_switch(sw, &inserts, &input.packets)
}

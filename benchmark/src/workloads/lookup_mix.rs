//! `lookup_mix` — reads beside writes on `tcam`.
//!
//! A `HermesSwitch` (Pica8 P-3290, default config) holding ~1 500 disjoint
//! rules across shadow + main serves 95 % `lookup`s — 70 % hits,
//! Zipf-distributed over the installed rules, 30 % misses — and 5 %
//! updates issued as insert-delete pairs, with the Rule Manager ticking
//! every 100 sim-ms. A lookup index inside `TcamTable` speeds the 95 %
//! but must be maintained by the 5 % (and by every shift `switch_churn`
//! causes): the gain shows here, the cost shows there. Rules are disjoint
//! so `rules` partitioning is idle, as are `fleet` and `netsim`.

use super::{Model, RepOutcome, Scale};
use crate::probes;
use crate::recorder::{Recorder, Sp};
use crate::verify::{self, action_for, Check, Fnv64};
use hermes_core::prelude::*;
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SimTime, SwitchModel};
use hermes_util::rng::rngs::StdRng;
use hermes_util::rng::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Generator stream for this workload.
const LOOKUP_STREAM_SALT: u64 = 0x4c4f_4f4b_5550_4d58;
/// Rules resident throughout (shadow + main).
pub const ENTRIES: usize = 1_500;
/// Ops (lookups + updates) per full-size repetition.
pub const OPS: usize = 800_000;
/// Mean update arrival rate, sim-Hz; half are inserts (12.5/s, inside the
/// ~23/s the Gate Keeper admits).
const UPDATE_RATE_HZ: f64 = 25.0;
/// /24 slots of 10.0.0.0/8 the disjoint rules live in; 11.0.0.0/8 always misses.
const SLOTS: u32 = 1 << 16;

/// One op, packed: the stream is millions long.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Destination address looked up (lookups only).
    pub addr: u32,
    /// Expected output port (`0`: miss); `u8::MAX` marks an update, whose
    /// payload is the next entry of [`Input::updates`].
    pub want: u8,
}

const UPDATE: u8 = u8::MAX;

/// One update.
#[derive(Clone, Copy, Debug)]
pub struct Update {
    /// Arrival instant (sim time).
    pub at: SimTime,
    /// Insert or delete.
    pub action: ControlAction,
}

/// Generated inputs.
#[derive(Clone, Debug)]
pub struct Input {
    /// Rules installed before the measured region.
    pub preload: Vec<Rule>,
    /// The op stream.
    pub ops: Vec<Op>,
    /// Update payloads, in stream order.
    pub updates: Vec<Update>,
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
        for o in &self.ops {
            h.u64(u64::from(o.addr) << 8 | u64::from(o.want));
        }
        for u in &self.updates {
            h.u64(u.at.as_nanos());
            h.action(&u.action);
        }
        for p in &self.packets {
            h.u128(*p);
        }
        h.finish()
    }
}

fn slot_rule(id: u64, slot: u32, rng: &mut StdRng) -> (Rule, Ipv4Prefix) {
    let prio = rng.gen_range(10..=1000u32);
    let prefix = Ipv4Prefix::new((10u32 << 24) | (slot << 8), rng.gen_range(24..=28u8));
    (
        Rule::new(id, prefix.to_key(), Priority(prio), action_for(prio)),
        prefix,
    )
}

fn port(r: &Rule) -> u8 {
    match r.action {
        Action::Forward(p) => p as u8,
        _ => 0,
    }
}

/// Generates the inputs.
pub fn generate(seed: u64, scale: Scale) -> Input {
    let mut rng = StdRng::seed_from_u64(seed ^ LOOKUP_STREAM_SALT);
    let mut deck: Vec<u32> = (0..SLOTS).collect();
    rng.shuffle(&mut deck);
    let mut next_id = 0u64;
    let mut live: Vec<(Rule, Ipv4Prefix, u32)> = deck[..ENTRIES]
        .iter()
        .map(|&slot| {
            let (r, p) = slot_rule(next_id, slot, &mut rng);
            next_id += 1;
            (r, p, slot)
        })
        .collect();
    let mut free: Vec<u32> = deck[ENTRIES..].to_vec();
    let preload: Vec<Rule> = live.iter().map(|e| e.0).collect();

    // Zipf(1) over ranks 1..=ENTRIES, as a cumulative table.
    let mut cdf = Vec::with_capacity(ENTRIES);
    let mut acc = 0.0;
    for rank in 1..=ENTRIES {
        acc += 1.0 / rank as f64;
        cdf.push(acc);
    }

    let n = scale.of(OPS, 20_000);
    // An update pair may carry the stream one past `n`.
    let mut ops = Vec::with_capacity(n + 1);
    let mut updates = Vec::with_capacity(n / 16);
    let mut now_s = 0.0f64;
    while ops.len() < n {
        let u: f64 = rng.gen();
        if u < 0.025 {
            // One update pair (5 % of ops): install a fresh rule, retire
            // an old one; the population stays at ENTRIES.
            let slot = free.swap_remove(rng.gen_range(0..free.len()));
            let (r, p) = slot_rule(next_id, slot, &mut rng);
            next_id += 1;
            now_s += rng.exp(1.0 / UPDATE_RATE_HZ);
            updates.push(Update {
                at: SimTime::from_secs(now_s),
                action: ControlAction::Insert(r),
            });
            let (old, _, old_slot) = live.swap_remove(rng.gen_range(0..live.len()));
            live.push((r, p, slot));
            free.push(old_slot);
            now_s += rng.exp(1.0 / UPDATE_RATE_HZ);
            updates.push(Update {
                at: SimTime::from_secs(now_s),
                action: ControlAction::Delete(old.id),
            });
            ops.push(Op {
                addr: 0,
                want: UPDATE,
            });
            ops.push(Op {
                addr: 0,
                want: UPDATE,
            });
        } else if rng.gen_bool(0.70) {
            let x = rng.gen_range(0.0..acc);
            let rank = cdf.partition_point(|c| *c <= x).min(live.len() - 1);
            let (r, p, _) = live[rank];
            ops.push(Op {
                addr: p.addr() | (rng.gen::<u32>() & !p.netmask()),
                want: port(&r),
            });
        } else {
            ops.push(Op {
                addr: (11u32 << 24) | rng.gen_range(0..1u32 << 24),
                want: 0,
            });
        }
    }

    let packets = (0..1_000)
        .map(|i| {
            let addr = if i % 2 == 0 {
                let p = live[rng.gen_range(0..live.len())].1;
                p.addr() | (rng.gen::<u32>() & !p.netmask())
            } else {
                (10u32 << 24) | rng.gen_range(0..1u32 << 24)
            };
            PacketHeader::to_dst(addr).to_word()
        })
        .collect();
    Input {
        preload,
        ops,
        updates,
        final_live: live.into_iter().map(|e| e.0).collect(),
        packets,
    }
}

fn build(input: &Input) -> HermesSwitch {
    let mut sw = HermesSwitch::new(SwitchModel::pica8_p3290(), HermesConfig::default())
        // INVARIANT: the default 5 ms guarantee is feasible on the Pica8 model.
        .expect("feasible config");
    for chunk in input.preload.chunks(128) {
        // INVARIANT: preload ids are unique and fit the table; a failure
        // here would surface in the population check after the run.
        let _ = sw.admit_batch(chunk, SimTime::ZERO);
        sw.tick(SimTime::ZERO);
        sw.end_warmup();
    }
    sw.tick(SimTime::ZERO);
    sw.end_warmup();
    sw
}

/// One repetition.
pub fn run_rep(input: &Input, rec: &mut Recorder) -> RepOutcome {
    let mut out = RepOutcome::default();
    let setup = rec.enter(Sp::Setup);
    let mut sw = build(input);
    out.setup_s = rec.exit(setup, 1) as f64 / 1e9;

    let tick = SimDuration::from_ms(100.0);
    let mut next_tick = SimTime::ZERO + tick;
    let mut model = Model::default();
    let mut updates = input.updates.iter();
    let (mut wrong, mut errored) = (0u64, 0u64);
    model.rit_ns.reserve(input.updates.len());
    rec.expect_calls(Sp::CoreLookup, input.ops.len());
    rec.expect_calls(Sp::CoreInsert, input.updates.len());
    rec.expect_calls(Sp::CoreDelete, input.updates.len());
    let sim_end = input.updates.last().map_or(SimTime::ZERO, |u| u.at);
    rec.expect_calls(Sp::CoreTick, (sim_end.as_secs() * 10.0) as usize + 8);
    // Counts cover the measured region only, not the preload.
    hermes_telemetry::reset();
    let measured = rec.enter(Sp::Measured);
    for op in &input.ops {
        if op.want != UPDATE {
            let packet = PacketHeader::to_dst(op.addr).to_word();
            let got = rec.time(Sp::CoreLookup, || sw.lookup(packet));
            let got_port = match got.action() {
                Some(Action::Forward(p)) => p as u8,
                _ => 0,
            };
            wrong += u64::from(got_port != op.want);
            continue;
        }
        let Some(u) = updates.next() else {
            errored += 1;
            continue;
        };
        while next_tick <= u.at {
            rec.time(Sp::CoreTick, || sw.tick(next_tick));
            next_tick += tick;
        }
        match u.action {
            ControlAction::Insert(_) => {
                match rec.time(Sp::CoreInsert, || sw.submit(&u.action, u.at)) {
                    Ok(rep) => {
                        model.inserts += 1;
                        model.violations += u64::from(rep.violated());
                        model.rit_ns.push(rep.latency.as_nanos());
                    }
                    Err(_) => errored += 1,
                }
            }
            _ => {
                if rec
                    .time(Sp::CoreDelete, || sw.submit(&u.action, u.at))
                    .is_err()
                {
                    errored += 1;
                }
            }
        }
    }
    for _ in 0..2 {
        rec.time(Sp::CoreTick, || sw.tick(next_tick));
        next_tick += tick;
    }
    out.measured_s = rec.exit(measured, 1) as f64 / 1e9;
    out.ops = input.ops.len() as u64;

    let verify = rec.enter(Sp::Verify);
    out.failed += wrong + errored;
    out.checks.push(Check::new(
        "every_lookup_result_expected",
        wrong == 0 && errored == 0,
        format!("{wrong} lookups returned the wrong action, {errored} updates errored"),
    ));
    out.failed += verify::switch_checks(&sw, &input.final_live, &mut out.checks);
    out.checks
        .push(verify::oracle_check(&sw, &input.final_live, &input.packets));
    let stats = sw.stats();
    let tables = |i: usize| sw.device().slice(i).table.stats();
    out.digest = vec![
        ("inserts", stats.inserts),
        ("shadow_inserts", stats.shadow_inserts),
        ("main_inserts", stats.main_inserts),
        ("violations", stats.violations),
        ("deletes", stats.deletes),
        ("migrations", stats.migrations),
        ("rules_migrated", stats.rules_migrated),
        ("shadow_lookups", tables(SHADOW).lookups),
        ("main_lookups", tables(MAIN).lookups),
        ("shadow_shifts", tables(SHADOW).total_shifts),
        ("main_shifts", tables(MAIN).total_shifts),
        ("logical_len", sw.logical_len() as u64),
        ("rit_ns_sum", model.rit_ns.iter().sum()),
    ];
    out.model = model;
    rec.exit(verify, 1);
    out
}

/// Probes at this workload's occupancy (~1 500 entries): `peek` hit/miss
/// and the single-op write cost an index would have to absorb.
pub fn probes(seed: u64, scale: Scale) -> BTreeMap<&'static str, f64> {
    let input = generate(seed, scale);
    let sw = build(&input);
    let inserts: Vec<Rule> = input
        .updates
        .iter()
        .filter_map(|u| match u.action {
            ControlAction::Insert(r) => Some(r),
            _ => None,
        })
        .collect();
    let misses: Vec<u128> = input
        .ops
        .iter()
        .filter(|o| o.want == 0)
        .take(1_000)
        .map(|o| PacketHeader::to_dst(o.addr).to_word())
        .collect();
    probes::at_switch(&sw, &inserts, &misses)
}

//! Property-based tests for the Hermes framework: the §4 correctness
//! guarantee under arbitrary operation sequences (a twin of the directed
//! lockstep oracle), partition soundness, and predictor/corrector laws.
//! Runs under the in-tree `hermes_util::check!` harness with pinned seeds.

use hermes_core::gatekeeper::Route;
use hermes_core::partition::{partition_new_rule, verify_partition};
use hermes_core::predict::{Corrector, PredictorKind};
use hermes_core::prelude::*;
use hermes_rules::fields::DST_SHIFT;
use hermes_rules::overlap::OverlapIndex;
use hermes_rules::prelude::*;
use hermes_tcam::{
    FaultPlan, LookupResult, PlacementStrategy, SimDuration, SimTime, SwitchModel, TcamTable,
};
use hermes_util::check::{arb, just, range, vec_of, weighted, zip2, zip3, Gen};

fn prefix() -> Gen<Ipv4Prefix> {
    zip2(arb::<u32>(), range(8u8..=26))
        .map(|(a, len)| Ipv4Prefix::new(0x0a00_0000 | (a >> 8), len))
}

#[derive(Clone, Debug)]
enum Op {
    Insert { pfx: Ipv4Prefix, prio: u32 },
    Delete { idx: usize },
    ModifyPrio { idx: usize, prio: u32 },
    Tick,
    Migrate,
}

fn op() -> Gen<Op> {
    weighted(vec![
        (
            5,
            zip2(prefix(), range(1u32..30)).map(|(pfx, prio)| Op::Insert { pfx, prio }),
        ),
        (2, arb::<usize>().map(|idx| Op::Delete { idx })),
        (
            1,
            zip2(arb::<usize>(), range(1u32..30))
                .map(|(idx, prio)| Op::ModifyPrio { idx, prio }),
        ),
        (1, just(Op::Tick)),
        (1, just(Op::Migrate)),
    ])
}

fn action_of(result: LookupResult) -> Option<Action> {
    result.rule().map(|r| r.action)
}

/// Which id an [`AdmitStep::Insert`] submits.
#[derive(Clone, Debug)]
enum IdPick {
    Fresh,
    /// The id of an earlier insert step (installed or not) — a duplicate
    /// when that rule is still live.
    Reuse(usize),
    /// Inside the physical-id space: must be rejected.
    OutOfRange,
}

#[derive(Clone, Debug)]
enum AdmitStep {
    Insert {
        pfx: Ipv4Prefix,
        prio: u32,
        id: IdPick,
    },
    Delete {
        idx: usize,
    },
    Migrate,
    Tick,
}

fn admit_step() -> Gen<AdmitStep> {
    let id = weighted(vec![
        (8, just(IdPick::Fresh)),
        (1, arb::<usize>().map(IdPick::Reuse)),
        (1, just(IdPick::OutOfRange)),
    ]);
    weighted(vec![
        (
            6,
            zip3(prefix(), range(1u32..30), id).map(|(pfx, prio, id)| AdmitStep::Insert {
                pfx,
                prio,
                id,
            }),
        ),
        (2, arb::<usize>().map(|idx| AdmitStep::Delete { idx })),
        (1, just(AdmitStep::Migrate)),
        (1, just(AdmitStep::Tick)),
    ])
}

type InsertOutcome = Result<Option<Route>, HermesError>;

/// Drives one switch through `stream` beside a flat table of the rules it
/// acknowledged, and returns every insert's outcome in stream order. Each
/// run of consecutive inserts goes in rule by rule through `insert`
/// (`chunks` = `None`) or through `admit_batch` in the given chunk
/// lengths, cycled. At every quiescent point — each tick and the end of
/// the stream, after the audit has converged with the fault plan lifted
/// when one is armed — the pair must classify like the flat table, the
/// intent store must hold exactly the logical rules, and both TCAM slices
/// must be structurally sound.
fn drive_admissions(
    stream: &[AdmitStep],
    chunks: Option<&[usize]>,
    fault_seed: Option<u64>,
) -> Vec<InsertOutcome> {
    let config = HermesConfig {
        rate_limit: Some(f64::INFINITY),
        // The bypass reads a pre-batch priority snapshot and the trigger
        // fires once per batch — the two documented batching deviations.
        // The clean-channel twins must route identically, so there the
        // bypass is off and migrations happen only at `Migrate` steps; the
        // faulted run keeps the default trigger to cover the inline check.
        low_priority_bypass: false,
        trigger: match fault_seed {
            None => MigrationTrigger::Threshold { fraction: 2.0 },
            Some(_) => MigrationTrigger::default(),
        },
        // Small enough that MainShadowFull and evictions occur.
        shadow_size: Some(16),
        ..Default::default()
    };
    let mut hermes = HermesSwitch::new(SwitchModel::pica8_p3290(), config).unwrap();
    hermes.install_fault_plan(fault_seed.map(FaultPlan::seeded));
    let mut flat = TcamTable::new(1 << 14, PlacementStrategy::PackedLow);
    let mut submitted: Vec<RuleId> = Vec::new();
    let mut live: Vec<RuleId> = Vec::new();
    let mut outcomes: Vec<InsertOutcome> = Vec::new();
    let mut chunk_lens = chunks.map(|c| c.iter().copied().cycle());
    let mut now = SimTime::ZERO;
    let mut quiesced = 0u64;

    let mut i = 0;
    while i <= stream.len() {
        // A run of consecutive inserts shares one arrival instant.
        let mut run: Vec<Rule> = Vec::new();
        while let Some(AdmitStep::Insert { pfx, prio, id }) = stream.get(i) {
            let id = match id {
                IdPick::Reuse(k) if !submitted.is_empty() => submitted[k % submitted.len()],
                IdPick::OutOfRange => RuleId((1 << 62) | i as u64),
                _ => RuleId(i as u64),
            };
            submitted.push(id);
            let action = Action::Forward(prio % 5);
            run.push(Rule::new(id.0, pfx.to_key(), Priority(*prio), action));
            i += 1;
        }
        let mut rest = run.as_slice();
        while !rest.is_empty() {
            let next_len = chunk_lens.as_mut().map_or(1, |c| c.next().unwrap_or(1));
            let take = next_len.min(rest.len());
            let (chunk, tail) = rest.split_at(take);
            rest = tail;
            let reports = match chunks {
                Some(_) => hermes.admit_batch(chunk, now),
                None => chunk.iter().map(|r| hermes.insert(*r, now)).collect(),
            };
            for (rule, rep) in chunk.iter().zip(reports) {
                if rep.is_ok() {
                    assert!(!live.contains(&rule.id), "duplicate {:?} acked", rule.id);
                    flat.insert(*rule).unwrap();
                    live.push(rule.id);
                }
                outcomes.push(rep.map(|r| r.route()));
            }
        }

        now += SimDuration::from_ms(3.0);
        let quiescent = match stream.get(i) {
            Some(AdmitStep::Delete { idx }) => {
                if !live.is_empty() {
                    let id = live.swap_remove(idx % live.len());
                    hermes.delete(id, now).unwrap();
                    flat.delete(id).unwrap();
                }
                false
            }
            Some(AdmitStep::Migrate) => {
                hermes.migrate(now);
                false
            }
            Some(AdmitStep::Tick) => {
                hermes.tick(now);
                true
            }
            Some(AdmitStep::Insert { .. }) => unreachable!("runs consume every insert"),
            None => true,
        };
        i += 1;
        if !quiescent {
            continue;
        }

        if fault_seed.is_some() {
            hermes.install_fault_plan(None);
            let converged = (0..16).any(|_| {
                now += SimDuration::from_ms(5.0);
                hermes.audit(now).clean()
            });
            assert!(converged, "audit failed to converge with the faults lifted");
        }
        assert_eq!(hermes.intent_len(), hermes.logical_len());
        assert_eq!(hermes.logical_len(), live.len());
        for slice in [SHADOW, MAIN] {
            assert!(hermes.device().slice(slice).table.check_invariants());
        }
        for k in 0..256u32 {
            let pkt = ((0x0a00_0000 | (k.wrapping_mul(2654435761) >> 8)) as u128) << DST_SHIFT;
            assert_eq!(
                action_of(hermes.peek(pkt)),
                flat.peek(pkt).map(|m| m.action),
                "sprayed packet {k} at quiescent point {quiesced}"
            );
        }
        quiesced += 1;
        hermes.install_fault_plan(fault_seed.map(|s| FaultPlan::seeded(s.wrapping_add(quiesced))));
    }
    outcomes
}

hermes_util::check! {
    #![cases = 256]

    /// `insert` and `admit_batch` are two drivers over one admission path:
    /// the same rule stream — overlapping prefixes, mixed priorities,
    /// duplicate and out-of-range ids, interleaved deletes, migrations and
    /// ticks — fed rule by rule to one switch and in arbitrary chunkings
    /// (length 1 included) to a twin must route every rule identically on
    /// a clean channel, and each must hold the flat-table, intent-store and
    /// TCAM invariants at every quiescent point, faults or not.
    fn insert_and_admit_batch_share_one_admission_path(
        stream in vec_of(admit_step(), 1..80),
        chunks in vec_of(range(1usize..6), 1..8),
        fault_seed in arb::<u64>(),
    ) {
        let singly = drive_admissions(&stream, None, None);
        let batched = drive_admissions(&stream, Some(&chunks), None);
        assert_eq!(singly, batched, "routes diverge on a clean channel");
        drive_admissions(&stream, None, Some(fault_seed));
        drive_admissions(&stream, Some(&chunks), Some(fault_seed));
    }

    /// The monolithic-equivalence guarantee, property-tested: any sequence
    /// of inserts/deletes/priority-modifies/ticks/migrations leaves the
    /// shadow+main pair classifying identically to one big table. (Actions
    /// are tied to priorities so same-priority overlap — undefined even in
    /// OpenFlow — cannot confound the oracle.)
    fn lockstep_equivalence(ops in vec_of(op(), 1..80)) {
        let config = HermesConfig {
            // Everything through the shadow path where possible.
            rate_limit: Some(f64::INFINITY),
            ..Default::default()
        };
        let mut hermes = HermesSwitch::new(SwitchModel::pica8_p3290(), config).unwrap();
        let mut oracle = TcamTable::new(1 << 14, PlacementStrategy::PackedLow);
        let mut live: Vec<Rule> = Vec::new();
        let mut next = 0u64;
        let mut now = SimTime::ZERO;

        for o in ops {
            now += SimDuration::from_ms(3.0);
            match o {
                Op::Insert { pfx, prio } => {
                    let r = Rule::new(next, pfx.to_key(), Priority(prio), Action::Forward(prio % 5));
                    next += 1;
                    hermes.insert(r, now).unwrap();
                    oracle.insert(r).unwrap();
                    live.push(r);
                }
                Op::Delete { idx } => {
                    if live.is_empty() { continue; }
                    let r = live.swap_remove(idx % live.len());
                    hermes.delete(r.id, now).unwrap();
                    oracle.delete(r.id).unwrap();
                }
                Op::ModifyPrio { idx, prio } => {
                    if live.is_empty() { continue; }
                    let i = idx % live.len();
                    let id = live[i].id;
                    let action = Action::Forward(prio % 5);
                    hermes
                        .modify(id, Some(action), Some(Priority(prio)), now)
                        .unwrap();
                    let old = *oracle.get(id).unwrap();
                    oracle.delete(id).unwrap();
                    oracle
                        .insert(Rule { priority: Priority(prio), action, ..old })
                        .unwrap();
                    live[i].priority = Priority(prio);
                    live[i].action = action;
                }
                Op::Tick => { hermes.tick(now); }
                Op::Migrate => { hermes.migrate(now); }
            }
            // Probe points: inside each live rule + random.
            for (k, r) in live.iter().enumerate() {
                if let Some(dst) = hermes_rules::fields::FlowMatch::dst_prefix_of_key(&r.key) {
                    let pkt = ((dst.addr() | (k as u32 & 0x3f)) as u128) << DST_SHIFT;
                    assert_eq!(
                        action_of(hermes.peek(pkt)),
                        oracle.peek(pkt).map(|m| m.action),
                        "probe in rule {:?}",
                        r.id
                    );
                }
            }
        }
    }

    /// Algorithm 1 soundness against random main tables (sampled oracle).
    fn partition_soundness(
        main_rules in vec_of(zip2(prefix(), range(5u32..40)), 0..25),
        new_pfx in prefix(),
        new_prio in range(1u32..5),
    ) {
        let mut main = OverlapIndex::new();
        for (i, (p, prio)) in main_rules.iter().enumerate() {
            main.insert(Rule::new(i as u64, p.to_key(), Priority(*prio), Action::Drop));
        }
        let new = Rule::new(10_000, new_pfx.to_key(), Priority(new_prio), Action::Forward(1));
        let outcome = partition_new_rule(&new, &main);
        let span = 32 - new_pfx.len();
        let samples: Vec<u128> = (0..512u32)
            .map(|i| {
                let host = if span >= 9 { i << (span - 9) } else { i & ((1u32 << span) - 1) };
                ((new_pfx.addr() | host) as u128) << DST_SHIFT
            })
            .collect();
        assert!(verify_partition(&new, &outcome, &main, &samples));
    }

    /// Correctors only ever inflate non-negative predictions, and Slack
    /// scales linearly.
    fn corrector_laws(
        args in zip3(range(0.0f64..1e6), range(0.0f64..2.0), range(0.0f64..1e4)),
    ) {
        let (pred, slack, dz) = args;
        assert!(Corrector::Slack(slack).apply(pred) >= pred);
        assert!(Corrector::Deadzone(dz).apply(pred) >= pred);
        assert_eq!(Corrector::None.apply(pred), pred);
        let a = Corrector::Slack(slack).apply(pred);
        assert!((a - pred * (1.0 + slack)).abs() < 1e-6);
    }

    /// Every predictor returns finite non-negative predictions on
    /// arbitrary non-negative series.
    fn predictors_are_total(series in vec_of(range(0.0f64..1e5), 0..64)) {
        for kind in PredictorKind::all() {
            let mut p = kind.build();
            for &v in &series {
                p.observe(v);
                let pred = p.predict();
                assert!(pred.is_finite() && pred >= 0.0, "{:?} produced {}", kind, pred);
            }
        }
    }

    /// Token bucket: cumulative admissions over any request pattern never
    /// exceed burst + rate·elapsed.
    fn token_bucket_never_over_admits(
        gaps_ms in vec_of(range(0.0f64..100.0), 1..100),
        rate in range(1.0f64..1000.0),
        burst in range(1.0f64..100.0),
    ) {
        let mut bucket = TokenBucket::new(rate, burst);
        let mut now = SimTime::ZERO;
        let mut admitted = 0.0;
        for gap in gaps_ms {
            now += SimDuration::from_ms(gap);
            if bucket.try_take(now, 1.0) {
                admitted += 1.0;
            }
            let bound = burst + rate * now.as_secs() + 1e-6;
            assert!(admitted <= bound, "admitted {} > bound {}", admitted, bound);
        }
    }

    /// Sizing: the shadow never exceeds half the TCAM and the configured
    /// guarantee is honoured by the worst-case single insert.
    fn shadow_sizing_laws(g_ms in range(0.5f64..50.0)) {
        for model in SwitchModel::paper_models() {
            let config = HermesConfig::with_guarantee(SimDuration::from_ms(g_ms));
            match HermesSwitch::new(model.clone(), config) {
                Ok(sw) => {
                    assert!(sw.shadow_capacity() <= model.capacity / 2);
                    assert!(
                        model.worst_insert_latency(sw.shadow_capacity())
                            <= SimDuration::from_ms(g_ms)
                            || sw.shadow_capacity() == 1
                    );
                }
                Err(HermesError::InfeasibleGuarantee) => {
                    assert!(SimDuration::from_ms(g_ms) < model.base + model.base);
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
    }
}

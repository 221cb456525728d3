//! **§2.1 takeaways** — the TCAM behaviours that motivate Hermes:
//!
//! 1. insertion time grows (roughly linearly) with the number of rules;
//! 2. rules with priorities are ~5× slower than rules without;
//! 3. insertion order matters (ascending vs descending priority can
//!    differ by ~10× depending on the switch's entry packing);
//! 4. deletion is fast and occupancy-independent;
//! 5. action modification is constant time.

#![forbid(unsafe_code)]

use hermes_bench::Table;
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SwitchModel, TcamDevice};
use hermes_util::rng::{stream, Rng, Salt};

/// Insert probes per occupancy point at scale 1.
const PROBES: usize = 100;

fn rule(id: u64, i: u32, prio: u32) -> Rule {
    Rule::new(
        id,
        Ipv4Prefix::new(i << 8, 24).to_key(),
        Priority(prio),
        Action::Forward(1),
    )
}

/// Mean insert latency of `n` probes at a pinned occupancy.
fn probe_insert(
    model: &SwitchModel,
    occupancy: usize,
    with_priority: bool,
    n: usize,
) -> SimDuration {
    let mut dev = TcamDevice::monolithic(model.clone());
    let mut rng = stream(0, Salt::EXP_TCAM_MICRO);
    for i in 0..occupancy {
        dev.apply(
            0,
            &ControlAction::Insert(rule(i as u64, i as u32, rng.gen_range(1..10_000))),
        )
        .expect("INVARIANT: fault-free device with capacity sized for the fill");
    }
    let mut total = SimDuration::ZERO;
    for p in 0..n {
        let id = (occupancy + p) as u64;
        let prio = if with_priority {
            rng.gen_range(1..10_000)
        } else {
            0
        };
        let r = rule(id, (occupancy + p) as u32, prio);
        total += dev
            .apply(0, &ControlAction::Insert(r))
            .expect("INVARIANT: fault-free device with one reserved probe slot")
            .latency;
        dev.apply(0, &ControlAction::Delete(r.id)).expect("INVARIANT: deleting the probe rule installed above");
    }
    total / n as u64
}

/// Total time to install `n` rules in ascending vs descending priority
/// order.
fn ordered_install(model: &SwitchModel, n: usize, ascending: bool) -> SimDuration {
    let mut dev = TcamDevice::monolithic(model.clone());
    let mut total = SimDuration::ZERO;
    for i in 0..n {
        let prio = if ascending {
            10 + i as u32
        } else {
            10 + (n - i) as u32
        };
        total += dev
            .apply(0, &ControlAction::Insert(rule(i as u64, i as u32, prio)))
            .expect("INVARIANT: fault-free device with capacity sized for the fill")
            .latency;
    }
    total
}

fn main() -> std::process::ExitCode {
    hermes_bench::run_experiment("exp_tcam_micro", run)
}

fn run() {
    let n = PROBES * hermes_bench::scale();
    hermes_bench::report_meta("n", &(n as u64));
    println!("== §2.1 microbenchmarks: TCAM behaviour ==\n");

    println!("-- (1) Insert latency vs occupancy (random priorities) --");
    let mut t = Table::new(&[
        "Occupancy",
        "Pica8 P-3290 (ms)",
        "Dell 8132F (ms)",
        "HP 5406zl (ms)",
    ]);
    for occ in [0usize, 100, 250, 500, 1000, 1500] {
        let mut cells = vec![occ.to_string()];
        for m in SwitchModel::paper_models() {
            if occ >= m.capacity {
                cells.push("-".into());
                continue;
            }
            cells.push(format!("{:.3}", probe_insert(&m, occ, true, n).as_ms()));
        }
        t.row(&cells);
    }
    t.print();

    println!("\n-- (2) Priority vs no-priority insertions --");
    let mut t = Table::new(&["Switch", "with prio (ms)", "without prio (ms)", "slowdown"]);
    for m in SwitchModel::paper_models() {
        let with = probe_insert(&m, 500, true, n).as_ms();
        let without = probe_insert(&m, 500, false, n).as_ms();
        t.row(&[
            m.name.clone(),
            format!("{with:.3}"),
            format!("{without:.3}"),
            format!("{:.1}x", with / without),
        ]);
    }
    t.print();
    println!("(paper: \"rules with priorities are five times slower than rules without\")");

    println!("\n-- (3) Insertion-order effects ({n} rules) --");
    let mut t = Table::new(&["Switch", "ascending (ms)", "descending (ms)", "ratio"]);
    for m in SwitchModel::paper_models() {
        let asc = ordered_install(&m, n, true).as_ms();
        let desc = ordered_install(&m, n, false).as_ms();
        let ratio = if asc > desc { asc / desc } else { desc / asc };
        t.row(&[
            m.name.clone(),
            format!("{asc:.1}"),
            format!("{desc:.1}"),
            format!("{ratio:.1}x"),
        ]);
    }
    t.print();
    println!("(paper: \"installing rules in ascending order of priorities is ten-times faster\n than descending order\" — direction depends on the switch's entry packing)");

    println!("\n-- (4,5) Deletion and modification vs occupancy --");
    let mut t = Table::new(&[
        "Switch",
        "delete @100 (ms)",
        "delete @1000",
        "modify @100",
        "modify @1000",
    ]);
    for m in SwitchModel::paper_models() {
        let mut cells = vec![m.name.clone()];
        for occ in [100usize, 1000] {
            let mut dev = TcamDevice::monolithic(m.clone());
            for i in 0..occ.min(m.capacity - 1) {
                dev.apply(
                    0,
                    &ControlAction::Insert(rule(i as u64, i as u32, 5 + i as u32)),
                )
                .expect("INVARIANT: fault-free device with capacity sized for the fill");
            }
            let d = dev
                .apply(0, &ControlAction::Delete(RuleId(0)))
                .expect("INVARIANT: deleting a rule installed above")
                .latency;
            cells.push(format!("{:.3}", d.as_ms()));
        }
        for occ in [100usize, 1000] {
            let mut dev = TcamDevice::monolithic(m.clone());
            for i in 0..occ.min(m.capacity - 1) {
                dev.apply(
                    0,
                    &ControlAction::Insert(rule(i as u64, i as u32, 5 + i as u32)),
                )
                .expect("INVARIANT: fault-free device with capacity sized for the fill");
            }
            let d = dev
                .apply(
                    0,
                    &ControlAction::Modify {
                        id: RuleId(1),
                        action: Some(Action::Drop),
                        priority: None,
                    },
                )
                .expect("INVARIANT: modifying a rule installed above")
                .latency;
            cells.push(format!("{:.3}", d.as_ms()));
        }
        // Reorder cells: name, del@100, del@1000, mod@100, mod@1000.
        t.row(&cells);
    }
    t.print();
    println!("(both constant — independent of occupancy, far cheaper than insertion)");
}

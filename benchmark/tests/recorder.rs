//! Span bookkeeping: indexes, nesting, and self-time arithmetic.

use hermes_perf_ledger::recorder::{self_times, Recorder, Sp, Span, ALL_SPANS, NO_PARENT};

fn span(name: Sp, start_ns: u64, end_ns: u64, parent: u32) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        rep: 0,
    }
}

#[test]
fn span_kinds_index_their_own_slot() {
    for (i, sp) in ALL_SPANS.iter().enumerate() {
        assert_eq!(*sp as usize, i, "{}", sp.name());
    }
    let mut names: Vec<&str> = ALL_SPANS.iter().map(|s| s.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), ALL_SPANS.len(), "span names are unique");
}

#[test]
fn self_time_is_duration_minus_children() {
    // rep[0,100] { measured[10,90] { insert[20,30], insert[40,70] } }
    let spans = [
        span(Sp::Rep, 0, 100, NO_PARENT),
        span(Sp::Measured, 10, 90, 0),
        span(Sp::CoreInsert, 20, 30, 1),
        span(Sp::CoreInsert, 40, 70, 1),
    ];
    let own = self_times(&spans);
    assert_eq!(own[&Sp::Rep], 20);
    assert_eq!(own[&Sp::Measured], 40);
    assert_eq!(own[&Sp::CoreInsert], 40);
    assert_eq!(
        own.values().sum::<u64>(),
        100,
        "self times partition the root"
    );
}

#[test]
fn self_time_never_underflows_on_overlong_children() {
    // Clock granularity can make a child read longer than its parent.
    let spans = [
        span(Sp::Measured, 0, 10, NO_PARENT),
        span(Sp::CoreTick, 0, 12, 0),
    ];
    assert_eq!(self_times(&spans)[&Sp::Measured], 0);
}

#[test]
fn traced_recorder_nests_and_untraced_keeps_durations_only() {
    let mut rec = Recorder::new();
    rec.begin_rep(0, true);
    let outer = rec.enter(Sp::Measured);
    rec.time(Sp::CoreInsert, || std::hint::black_box(1 + 1));
    let batch = rec.enter(Sp::CoreBatch);
    rec.exit(batch, 512);
    rec.exit(outer, 1);
    let spans = rec.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[0].parent, NO_PARENT);
    assert_eq!((spans[1].parent, spans[2].parent), (0, 0));
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
    assert_eq!(rec.calls(Sp::CoreBatch)[0].weight, 512);

    // An untraced repetition records durations but no further spans.
    rec.begin_rep(1, false);
    rec.time(Sp::CoreInsert, || ());
    assert_eq!(rec.spans().len(), 3);
    assert_eq!(rec.calls(Sp::CoreInsert).len(), 1);
    assert!(
        rec.calls(Sp::CoreBatch).is_empty(),
        "durations reset per repetition"
    );
}

#[test]
fn steps_cut_the_measured_region_at_its_direct_calls() {
    let mut rec = Recorder::new();
    rec.begin_rep(0, false);
    rec.time(Sp::Generate, || ());
    let measured = rec.enter(Sp::Measured);
    rec.time(Sp::CoreTick, || ());
    // A nested call ends no step of its own.
    let txn = rec.enter(Sp::FleetTxn);
    rec.time(Sp::FleetInstallPath, || std::hint::black_box(2 + 2));
    rec.exit(txn, 1);
    let region_ns = rec.exit(measured, 1);
    rec.time(Sp::Verify, || ());
    // Two direct calls, then the tail up to the region's end.
    assert_eq!(rec.steps().len(), 3);
    let sum: f64 = rec.steps().iter().map(|s| f64::from(*s)).sum();
    assert!(
        (sum - region_ns as f64).abs() <= 2.0,
        "{sum} vs {region_ns}"
    );

    rec.begin_rep(1, false);
    assert!(rec.steps().is_empty(), "steps reset per repetition");
}

fn spin_ms(ms: u64) {
    let w = hermes_util::bench::Stopwatch::start();
    while w.elapsed().as_millis() < u128::from(ms) {
        std::hint::black_box(0u64);
    }
}

#[test]
fn spans_add_up_across_clock_segments() {
    // Each child outlasts the 2 ms calibration period, and the first opens
    // after a long untimed stretch: whatever the kernel timings in between,
    // no child may read empty or outgrow the span around it.
    let mut rec = Recorder::new();
    rec.begin_rep(0, false);
    spin_ms(30);
    let outer = rec.enter(Sp::Setup);
    for _ in 0..8 {
        rec.time(Sp::CoreTick, || spin_ms(3));
    }
    let outer_ns = rec.exit(outer, 1);
    let ticks = rec.calls(Sp::CoreTick);
    for c in ticks {
        let ratio = c.ns as f64 / c.raw_ns as f64;
        assert!(c.raw_ns >= 3_000_000 && (0.2..5.0).contains(&ratio), "{c:?}");
    }
    let inner: u64 = ticks.iter().map(|c| c.ns).sum();
    assert!(inner <= outer_ns + 8, "{inner} inside {outer_ns}");
}

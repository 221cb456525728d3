//! # hermes-telemetry — deterministic tracing and metrics
//!
//! The workspace's observability substrate (DESIGN.md "Observability"):
//!
//! * a **span/event tracer** keyed on simulated time — nested scoped spans
//!   with static labels in a bounded ring buffer ([`trace`]);
//! * a **metrics registry** — counters, gauges, log-linear histograms and
//!   bounded time series ([`metrics`]);
//! * a **report writer** emitting the versioned, schema-stable
//!   `BENCH_<exp>.json` document ([`mod@report`]).
//!
//! Determinism is the design constraint: every timestamp is sim-time
//! nanoseconds (never wall clock), every export iterates sorted maps, so a
//! seeded run's telemetry JSON is byte-identical across executions.
//!
//! ## Hot-path cost
//!
//! Recording is gated on one thread-local `Cell<bool>` with a `const`
//! initializer — no lazy-init check, so with telemetry disabled (the
//! default) every recording call is one thread-local load and a branch, a
//! few nanoseconds. Enable with [`set_enabled`]; the crate never reads
//! the process environment (`hermes_bench` maps `HERMES_TRACE` to it).
//!
//! ## Threading model
//!
//! Everything is per thread: the enabled flag, the registry and the
//! tracer. The simulators are single-threaded, and per-thread state keeps
//! parallel test runners from interleaving — or switching off — each
//! other's recording. A thread records only after it calls
//! [`set_enabled`] itself.
//!
//! ```
//! use hermes_telemetry as telemetry;
//! telemetry::set_enabled(true);
//! telemetry::reset();
//! telemetry::counter("tcam.ops", 1);
//! telemetry::observe("tcam.op_ns", 1_500);
//! let span = telemetry::span_enter("netsim", "te_tick", 1_000);
//! span.end(2_000);
//! let doc = telemetry::report("doctest", "unknown");
//! assert_eq!(doc.get("counters").unwrap().get("tcam.ops").unwrap().as_f64(), Some(1.0));
//! telemetry::set_enabled(false);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod metrics;
pub mod report;
pub mod trace;

use hermes_util::json::Json;
use metrics::Registry;
use std::cell::{Cell, RefCell};
use trace::Tracer;

struct State {
    registry: Registry,
    tracer: Tracer,
    meta: Vec<(String, Json)>,
}

impl State {
    fn new() -> Self {
        State {
            registry: Registry::default(),
            tracer: Tracer::default(),
            meta: Vec::new(),
        }
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<State> = RefCell::new(State::new());
}

/// `true` while this thread is recording. One thread-local load — cheap
/// enough for any hot path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Turns recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Clears this thread's registry, tracer and report metadata (the enabled
/// flag is untouched). Call at the start of a measured run.
pub fn reset() {
    STATE.with(|s| *s.borrow_mut() = State::new());
}

/// Adds `delta` to a counter. No-op while disabled.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    STATE.with(|s| s.borrow_mut().registry.counter_add(name, delta));
}

/// Sets a gauge to its latest value. No-op while disabled.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    STATE.with(|s| s.borrow_mut().registry.gauge_set(name, value));
}

/// Records a value into a log-linear histogram (nanoseconds for `_ns`
/// metrics, raw counts otherwise). No-op while disabled.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    STATE.with(|s| s.borrow_mut().registry.observe(name, value));
}

/// Appends a `(sim-time ns, value)` point to a bounded time series.
/// No-op while disabled.
#[inline]
pub fn series(name: &'static str, t_ns: u64, value: f64) {
    if !enabled() {
        return;
    }
    STATE.with(|s| s.borrow_mut().registry.series_push(name, t_ns, value));
}

/// Records an already-measured span (start + duration in sim-time ns) at
/// the current nesting depth. No-op while disabled.
#[inline]
pub fn span(subsystem: &'static str, name: &'static str, at_ns: u64, dur_ns: u64) {
    if !enabled() {
        return;
    }
    STATE.with(|s| s.borrow_mut().tracer.span_at(subsystem, name, at_ns, dur_ns));
}

/// RAII handle for a scoped span opened by [`span_enter`]. Close it with
/// [`end`](SpanGuard::end) and the sim-time end; a guard dropped without
/// `end` closes its span with zero duration.
#[must_use = "close the span with .end(now_ns)"]
#[derive(Debug)]
pub struct SpanGuard {
    armed: bool,
}

impl SpanGuard {
    /// Closes the span at `end_ns` sim-time nanoseconds.
    pub fn end(mut self, end_ns: u64) {
        if self.armed {
            self.armed = false;
            STATE.with(|s| s.borrow_mut().tracer.exit(end_ns));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            STATE.with(|s| s.borrow_mut().tracer.exit_abandoned());
        }
    }
}

/// Opens a nested scoped span at `at_ns` sim-time nanoseconds. While
/// disabled the returned guard is inert.
#[inline]
pub fn span_enter(subsystem: &'static str, name: &'static str, at_ns: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard { armed: false };
    }
    STATE.with(|s| s.borrow_mut().tracer.enter(subsystem, name, at_ns));
    SpanGuard { armed: true }
}

/// Registers (or replaces, keeping position) a report metadata entry —
/// the experiment's seed, scale, config knobs. Always recorded, even
/// while disabled, so reports stay self-describing.
pub fn set_meta(key: &str, value: Json) {
    STATE.with(|s| {
        let meta = &mut s.borrow_mut().meta;
        if let Some(slot) = meta.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            meta.push((key.to_string(), value));
        }
    });
}

/// Snapshot of this thread's metrics + trace as one deterministic JSON
/// object (no report envelope — use `report()` for the full document).
pub fn snapshot() -> Json {
    STATE.with(|s| {
        let s = s.borrow();
        let (counters, gauges, histograms, series) = s.registry.to_json_parts();
        let (spans, trace) = s.tracer.to_json_parts();
        Json::obj([
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
            ("series", series),
            ("spans", spans),
            ("trace", trace),
        ])
    })
}

/// Builds the full `BENCH_<exp>.json` report document for this thread's
/// recorded state, stamped with the caller's `git_rev` (see
/// [`report::SCHEMA`] for the layout contract).
pub fn report(experiment: &str, git_rev: &str) -> Json {
    STATE.with(|s| {
        let s = s.borrow();
        report::build(experiment, git_rev, enabled(), &s.meta, &s.registry, &s.tracer)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The crate's thread-local state plus cargo's parallel test threads
    // means each test must fully own its state: reset + enable at the
    // start, disable at the end.
    fn scoped<T>(body: impl FnOnce() -> T) -> T {
        set_enabled(true);
        reset();
        let out = body();
        set_enabled(false);
        out
    }

    /// Distinct subsystems that contributed any metric or span, derived
    /// from the `<subsystem>.` name prefix (and span labels).
    fn contributing_subsystems() -> Vec<String> {
        STATE.with(|s| {
            let s = s.borrow();
            let (counters, gauges, histograms, series) = s.registry.to_json_parts();
            let mut subs: Vec<String> = Vec::new();
            for part in [&counters, &gauges, &histograms, &series] {
                if let Json::Obj(pairs) = part {
                    subs.extend(pairs.iter().filter_map(|(k, _)| Some(k.split_once('.')?.0.to_string())));
                }
            }
            subs.extend(s.tracer.subsystems().iter().map(|x| x.to_string()));
            subs.sort();
            subs.dedup();
            subs
        })
    }

    #[test]
    fn disabled_calls_are_no_ops() {
        set_enabled(false);
        reset();
        counter("x.c", 1);
        observe("x.h", 5);
        series("x.s", 1, 1.0);
        span("x", "s", 0, 1);
        span_enter("x", "s", 0).end(5);
        let doc = snapshot();
        assert_eq!(doc.get("counters").unwrap().to_string(), "{}");
        assert_eq!(doc.get("spans").unwrap().to_string(), "[]");
    }

    #[test]
    fn enabled_calls_record_and_reset_clears() {
        scoped(|| {
            counter("tcam.ops", 2);
            counter("tcam.ops", 3);
            gauge("manager.occupancy", 0.5);
            observe("tcam.op_ns", 1000);
            series("netsim.active_flows", 10, 4.0);
            span("recovery", "audit", 5, 10);
            let doc = snapshot();
            assert_eq!(
                doc.get("counters").unwrap().get("tcam.ops").unwrap().as_f64(),
                Some(5.0)
            );
            let subs = contributing_subsystems();
            assert_eq!(subs, vec!["manager", "netsim", "recovery", "tcam"]);
            reset();
            assert_eq!(snapshot().get("counters").unwrap().to_string(), "{}");
        });
    }

    #[test]
    fn meta_replaces_in_place() {
        scoped(|| {
            set_meta("seed", Json::Int(1));
            set_meta("scale", Json::Int(2));
            set_meta("seed", Json::Int(9));
            let doc = report("unit", "unknown");
            assert_eq!(
                doc.get("meta").unwrap().to_string(),
                "{\"seed\":9,\"scale\":2}",
                "replacement keeps original position"
            );
        });
    }

    #[test]
    fn identical_recording_is_byte_identical() {
        let run = || {
            scoped(|| {
                for i in 0..100u64 {
                    counter("tcam.ops", 1);
                    observe("tcam.op_ns", i * 37 % 9000);
                    span("gatekeeper", "admit", i * 10, i % 7);
                }
                snapshot().to_string()
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn guard_nesting_and_abandonment() {
        scoped(|| {
            let outer = span_enter("netsim", "te_tick", 100);
            let inner = span_enter("manager", "migrate", 110);
            inner.end(150);
            drop(outer); // abandoned: closes at start with zero duration
            let doc = snapshot();
            let spans = doc.get("spans").unwrap().as_arr().unwrap();
            assert_eq!(spans.len(), 2);
        });
    }
}

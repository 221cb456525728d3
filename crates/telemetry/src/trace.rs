//! The span/event tracer: nested scoped spans keyed on simulated time.
//!
//! Spans carry two static labels — `subsystem` and `name` — and integer
//! sim-time nanosecond timestamps, so the trace of a seeded run is
//! byte-identical across executions. Completed spans land in a bounded
//! ring buffer (the most recent `cap` survive; older ones are counted in
//! `dropped`) and fold into per-`(subsystem, name)` rollups that never
//! drop anything.

use hermes_util::json::{Json, ToJson};
use std::collections::BTreeMap;

/// One completed span (or instantaneous event, `dur_ns == 0`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sim-time start, nanoseconds.
    pub at_ns: u64,
    /// Duration in sim nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth at record time (0 = top level).
    pub depth: u32,
    /// Owning subsystem (`tcam`, `gatekeeper`, `manager`, …).
    pub subsystem: &'static str,
    /// Span label within the subsystem.
    pub name: &'static str,
}

/// Lossless per-label aggregate over every span ever recorded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Rollup {
    /// Spans recorded under this label.
    pub count: u64,
    /// Sum of durations, sim nanoseconds.
    pub total_ns: u128,
    /// Longest single span, sim nanoseconds.
    pub max_ns: u64,
}

/// The per-thread trace store (see the crate root for the recording API).
#[derive(Debug)]
pub struct Tracer {
    cap: usize,
    events: Vec<TraceEvent>,
    head: usize,
    dropped: u64,
    stack: Vec<(&'static str, &'static str, u64)>,
    rollups: BTreeMap<(&'static str, &'static str), Rollup>,
}

impl Tracer {
    /// Default ring-buffer capacity.
    pub const DEFAULT_CAP: usize = 4096;

    /// An empty tracer bounded at `cap` events.
    pub fn new(cap: usize) -> Self {
        Tracer {
            cap: cap.max(1),
            events: Vec::new(),
            head: 0,
            dropped: 0,
            stack: Vec::new(),
            rollups: BTreeMap::new(),
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        let roll = self
            .rollups
            .entry((ev.subsystem, ev.name))
            .or_default();
        roll.count += 1;
        roll.total_ns += u128::from(ev.dur_ns);
        roll.max_ns = roll.max_ns.max(ev.dur_ns);
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Records an already-measured span at the current nesting depth.
    pub fn span_at(&mut self, subsystem: &'static str, name: &'static str, at_ns: u64, dur_ns: u64) {
        let depth = self.stack.len() as u32;
        self.push(TraceEvent {
            at_ns,
            dur_ns,
            depth,
            subsystem,
            name,
        });
    }

    /// Opens a nested span; pair with [`exit`](Self::exit).
    pub fn enter(&mut self, subsystem: &'static str, name: &'static str, at_ns: u64) {
        self.stack.push((subsystem, name, at_ns));
    }

    /// Closes the innermost open span at `end_ns` (clamped to the start —
    /// durations never go negative even if a caller passes a stale clock).
    pub fn exit(&mut self, end_ns: u64) {
        if let Some((subsystem, name, at_ns)) = self.stack.pop() {
            let depth = self.stack.len() as u32;
            self.push(TraceEvent {
                at_ns,
                dur_ns: end_ns.saturating_sub(at_ns),
                depth,
                subsystem,
                name,
            });
        }
    }

    /// Closes the innermost open span with zero duration (guard dropped
    /// without an explicit end time).
    pub fn exit_abandoned(&mut self) {
        if let Some((_, _, at)) = self.stack.last().copied() {
            self.exit(at);
        }
    }

    /// Completed events, oldest first.
    pub fn events_chronological(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-label rollups (deterministically ordered).
    pub fn rollups(&self) -> &BTreeMap<(&'static str, &'static str), Rollup> {
        &self.rollups
    }

    /// Distinct subsystems that recorded at least one span.
    pub fn subsystems(&self) -> Vec<&'static str> {
        let mut subs: Vec<&'static str> = self.rollups.keys().map(|(s, _)| *s).collect();
        subs.dedup();
        subs
    }

    /// `true` when no span was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.rollups.is_empty()
    }

    /// Deterministic JSON export: `(spans rollup array, trace object)`.
    pub fn to_json_parts(&self) -> (Json, Json) {
        let spans: Vec<Json> = self
            .rollups
            .iter()
            .map(|((sub, name), r)| {
                Json::obj([
                    ("subsystem", sub.to_json()),
                    ("name", name.to_json()),
                    ("count", r.count.to_json()),
                    ("total_ns", Json::Int(r.total_ns as i128)),
                    ("max_ns", r.max_ns.to_json()),
                ])
            })
            .collect();
        let events: Vec<Json> = self
            .events_chronological()
            .into_iter()
            .map(|e| {
                Json::obj([
                    ("at", e.at_ns.to_json()),
                    ("dur", e.dur_ns.to_json()),
                    ("depth", e.depth.to_json()),
                    ("subsystem", e.subsystem.to_json()),
                    ("name", e.name.to_json()),
                ])
            })
            .collect();
        let trace = Json::obj([
            ("cap", (self.cap as u64).to_json()),
            ("dropped", self.dropped.to_json()),
            ("events", Json::Arr(events)),
        ]);
        (Json::Arr(spans), trace)
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(Self::DEFAULT_CAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_depth() {
        let mut t = Tracer::default();
        t.enter("netsim", "te_tick", 100);
        t.span_at("tcam", "apply", 110, 5);
        t.enter("manager", "migrate", 120, );
        t.exit(150);
        t.exit(200);
        let evs = t.events_chronological();
        assert_eq!(evs.len(), 3);
        // Innermost events carry their nesting depth at record time.
        assert_eq!((evs[0].subsystem, evs[0].depth), ("tcam", 1));
        assert_eq!((evs[1].subsystem, evs[1].depth, evs[1].dur_ns), ("manager", 1, 30));
        assert_eq!((evs[2].subsystem, evs[2].depth, evs[2].dur_ns), ("netsim", 0, 100));
    }

    #[test]
    fn ring_bounds_and_rollups_do_not() {
        let mut t = Tracer::new(4);
        for i in 0..10u64 {
            t.span_at("tcam", "apply", i, 1);
        }
        assert_eq!(t.events_chronological().len(), 4);
        assert_eq!(t.dropped(), 6);
        let r = t.rollups()[&("tcam", "apply")];
        assert_eq!((r.count, r.total_ns, r.max_ns), (10, 10, 1));
    }

    #[test]
    fn exit_clamps_backwards_clock() {
        let mut t = Tracer::default();
        t.enter("a", "b", 100);
        t.exit(50);
        assert_eq!(t.events_chronological()[0].dur_ns, 0);
    }

    #[test]
    fn abandoned_span_closes_with_zero_duration() {
        let mut t = Tracer::default();
        t.enter("a", "b", 7);
        t.exit_abandoned();
        let e = t.events_chronological()[0];
        assert_eq!((e.at_ns, e.dur_ns), (7, 0));
    }
}

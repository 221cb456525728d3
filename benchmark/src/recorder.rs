//! Host-time recording: one [`Stopwatch`]-backed clock, per-kind call
//! durations (always on — the end-to-end percentiles come from them), and
//! an in-memory span store (traced runs only).
//!
//! Spans wrap only calls the benchmark itself issues into a layer's public
//! API; nothing inside the crates is instrumented. A span's *self time* is
//! its duration minus the part its child spans cover ([`self_times`]).

use hermes_util::bench::Stopwatch;
use std::collections::BTreeMap;

/// What a timed call was, named `<layer>.<call>` after the crate whose
/// public function the benchmark invoked.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Sp {
    /// One fresh-state repetition (root span).
    Rep,
    /// Input generation (`hermes_workloads` or the benchmark's own
    /// generators), once per run before the first repetition.
    Generate,
    /// State build + preload before the measured region.
    Setup,
    /// The measured region.
    Measured,
    /// Output verification after the measured region.
    Verify,
    /// `CpQueue::submit` of one insert.
    CoreInsert,
    /// `CpQueue::submit` of one delete.
    CoreDelete,
    /// `CpQueue::submit` of one modify.
    CoreModify,
    /// `HermesPlane::tick` / `HermesSwitch::tick`.
    CoreTick,
    /// `HermesPlane::apply_batch` of a multi-action batch.
    CoreBatch,
    /// Crash → `tick` loop until the switch is back up (resync).
    CoreResync,
    /// `HermesSwitch::lookup`.
    CoreLookup,
    /// `HermesSwitch::audit` (quiesce sweeps).
    CoreAudit,
    /// One path transaction: steer + `install_path`.
    FleetTxn,
    /// `Fleet::member_health` + `Rebalancer::{scores, pick_slice}`.
    FleetSteer,
    /// `Fleet::install_path`.
    FleetInstallPath,
    /// `Fleet::submit` (background churn, teardown).
    FleetSubmit,
    /// `Fleet::tick_all`.
    FleetTickAll,
    /// `Rebalancer::plan_moves` + `Fleet::migrate_rules`.
    FleetMigrateRules,
    /// `Varys::register_jobs`.
    NetsimRegister,
    /// `Varys::run`.
    NetsimRun,
    /// `Varys::run` of the same jobs on `SwitchKind::Ideal`.
    NetsimIdealRun,
}

/// Every span kind, in declaration order (indexes the duration store).
pub const ALL_SPANS: [Sp; 22] = [
    Sp::Rep,
    Sp::Generate,
    Sp::Setup,
    Sp::Measured,
    Sp::Verify,
    Sp::CoreInsert,
    Sp::CoreDelete,
    Sp::CoreModify,
    Sp::CoreTick,
    Sp::CoreBatch,
    Sp::CoreResync,
    Sp::CoreLookup,
    Sp::CoreAudit,
    Sp::FleetTxn,
    Sp::FleetSteer,
    Sp::FleetInstallPath,
    Sp::FleetSubmit,
    Sp::FleetTickAll,
    Sp::FleetMigrateRules,
    Sp::NetsimRegister,
    Sp::NetsimRun,
    Sp::NetsimIdealRun,
];

impl Sp {
    /// The span's printed name.
    pub fn name(self) -> &'static str {
        match self {
            Sp::Rep => "bench.rep",
            Sp::Generate => "workloads.generate",
            Sp::Setup => "bench.setup",
            Sp::Measured => "bench.measured",
            Sp::Verify => "bench.verify",
            Sp::CoreInsert => "core.submit.insert",
            Sp::CoreDelete => "core.submit.delete",
            Sp::CoreModify => "core.submit.modify",
            Sp::CoreTick => "core.tick",
            Sp::CoreBatch => "core.apply_batch",
            Sp::CoreResync => "core.resync",
            Sp::CoreLookup => "core.lookup",
            Sp::CoreAudit => "core.audit",
            Sp::FleetTxn => "fleet.txn",
            Sp::FleetSteer => "fleet.steer",
            Sp::FleetInstallPath => "fleet.install_path",
            Sp::FleetSubmit => "fleet.submit",
            Sp::FleetTickAll => "fleet.tick_all",
            Sp::FleetMigrateRules => "fleet.migrate_rules",
            Sp::NetsimRegister => "netsim.register",
            Sp::NetsimRun => "netsim.run",
            Sp::NetsimIdealRun => "netsim.ideal_run",
        }
    }
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span (traced runs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: Sp,
    /// Start, ns on the recorder's clock.
    pub start_ns: u64,
    /// End, ns on the recorder's clock.
    pub end_ns: u64,
    /// Index of the enclosing span in the store, or [`NO_PARENT`].
    pub parent: u32,
    /// Repetition the span belongs to.
    pub rep: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One timed call: host ns and the number of workload ops it carried
/// (1 except for batch calls, reported as ns ÷ weight).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Call {
    /// Host nanoseconds on the speed-normalised clock (see [`Recorder`]).
    pub ns: u64,
    /// Host nanoseconds as the wall clock read them.
    pub raw_ns: u64,
    /// Workload ops carried by the call.
    pub weight: u32,
}

/// Opaque handle returned by [`Recorder::enter`].
#[derive(Debug)]
#[must_use = "close the span with Recorder::exit"]
pub struct Open {
    name: Sp,
    start_raw: u64,
    start_norm: f64,
    idx: u32,
}

/// Wall-clock ns the calibration kernel takes at *reference speed*: every
/// duration the recorder reports is scaled to the speed at which the
/// kernel runs in exactly this long.
pub const KERNEL_REF_NS: f64 = 10_000.0;
/// The kernel is re-timed whenever this much wall time has passed.
const SAMPLE_PERIOD_NS: u64 = 2_000_000;
/// Dependent multiply-load-store steps per kernel run.
const KERNEL_STEPS: usize = 2_048;

/// The calibration kernel, two halves timed as one: a chain of dependent
/// multiply-load-store steps over 4 KiB (latency-bound, L1-resident, like
/// the tree walks in `core` and `rules`) and a compare-and-count scan over
/// 128 KiB (throughput-bound, L2-resident, like `TcamTable`'s match loop).
/// On the 2-core box the pair tracked the workloads' slowdowns about twice
/// as well as either half alone.
#[derive(Debug)]
struct Kernel {
    chain: [u64; 512],
    scan: Box<[u64; 16384]>,
    state: u64,
}

impl Kernel {
    fn new() -> Self {
        let mut k = Kernel {
            chain: [0; 512],
            scan: Box::new([1; 16384]),
            state: 0x9e37_79b9_7f4a_7c15,
        };
        k.run();
        k
    }

    fn run(&mut self) -> u64 {
        let mut x = self.state;
        for _ in 0..KERNEL_STEPS {
            let i = (x >> 55) as usize;
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(self.chain[i]);
            self.chain[i] = x ^ (x >> 29);
        }
        let mut hits = 0u64;
        for w in self.scan.iter() {
            hits += u64::from((*w ^ x) & 0xff == 0);
        }
        x = x.wrapping_add(hits);
        self.scan[(x >> 50) as usize] = x | 1;
        self.state = x;
        x
    }
}

/// The benchmark's clock, duration store and span store.
///
/// # The speed-normalised clock
///
/// The sandboxes this benchmark runs in deliver a CPU whose speed moves by
/// tens of percent from one second to the next (a fixed spin loop was
/// measured between 75 and 145 ms on the 2-core box, in regimes lasting
/// 1–3 s, with no steal time reported) — wider than any bound worth
/// gating on, and not averaged out by a 10 s run. So the recorder re-times
/// a small fixed calibration kernel every 2 ms of wall time and advances
/// a second clock by `wall × KERNEL_REF_NS ÷ kernel ns`: time as it would
/// have read had the host run at reference speed throughout. Every
/// duration reported (`ns`) is on that clock; `raw_ns` keeps the wall
/// reading, and the ratio of the two over a measured region is printed as
/// `bench.speed_factor`. The kernel's own run time is on neither clock.
/// A call longer than the sampling period (one `Varys::run`) is scaled by
/// the mean of the kernel timings just before and just after it — a much
/// weaker correction, which is why `varys_fattree` is sized for many
/// short repetitions instead of a few long ones.
#[derive(Debug)]
pub struct Recorder {
    clock: Stopwatch,
    traced: bool,
    rep: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    calls: Vec<Vec<Call>>,
    kernel: Kernel,
    /// Last three kernel timings (their median damps a preempted sample).
    recent: [f64; 3],
    samples: u64,
    /// Median of `recent`.
    kernel_ns: f64,
    /// Wall ns at which the open segment began (after the last kernel run).
    segment_start_raw: u64,
    /// Normalised ns accumulated up to `segment_start_raw`.
    norm_base: f64,
    /// Open spans (counted traced or not).
    depth: u32,
    /// Depth of the measured region's direct children (0: outside one).
    step_depth: u32,
    /// Normalised time at which the last step of the measured region ended.
    last_step: f64,
    /// See [`steps`](Self::steps).
    steps: Vec<f32>,
    /// Calls announced through `expect_calls` this repetition.
    expected: usize,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder; [`begin_rep`](Self::begin_rep) says whether the
    /// repetition that follows keeps its spans in memory.
    pub fn new() -> Self {
        let mut r = Recorder {
            clock: Stopwatch::start(),
            traced: false,
            rep: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            calls: ALL_SPANS.iter().map(|_| Vec::new()).collect(),
            kernel: Kernel::new(),
            recent: [KERNEL_REF_NS; 3],
            samples: 0,
            kernel_ns: KERNEL_REF_NS,
            segment_start_raw: 0,
            norm_base: 0.0,
            depth: 0,
            step_depth: 0,
            last_step: 0.0,
            steps: Vec::new(),
            expected: 0,
        };
        for _ in 0..3 {
            r.time_kernel();
        }
        r.segment_start_raw = r.raw_now();
        r
    }

    /// Whether spans are being kept.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Starts a repetition: clears the per-kind durations (spans persist
    /// across reps, tagged with the rep id) and switches span keeping.
    pub fn begin_rep(&mut self, rep: u32, traced: bool) {
        self.rep = rep;
        self.traced = traced;
        self.stack.clear();
        for v in &mut self.calls {
            v.clear();
        }
        self.depth = 0;
        self.step_depth = 0;
        self.steps.clear();
        self.expected = 0;
    }

    fn raw_now(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Times the kernel and updates the smoothed timing. The kernel runs
    /// twice and only the second run is timed: the first pulls its buffers
    /// back into cache after whatever the workload evicted, so the reading
    /// is the host's speed and not the workload's cache footprint (hot,
    /// the chain half repeats to within 0.5 %).
    fn time_kernel(&mut self) {
        std::hint::black_box(self.kernel.run());
        let t0 = self.raw_now();
        std::hint::black_box(self.kernel.run());
        let ns = self.raw_now().saturating_sub(t0).max(1);
        self.recent[(self.samples % 3) as usize] = ns as f64;
        self.samples += 1;
        let [a, b, c] = self.recent;
        self.kernel_ns = a.max(b).min(a.min(b).max(c));
    }

    /// Closes the open segment at wall time `raw`, re-times the kernel, and
    /// opens the next segment after it. Returns the normalised time at
    /// `raw`.
    ///
    /// A segment that closes on time is scaled by the kernel timing it
    /// opened with, the scale [`norm_in_segment`](Self::norm_in_segment)
    /// already gave every reading taken inside it: a span that starts in
    /// one segment and ends in a later one is then the exact sum of its
    /// parts. (Scaling a closing segment by anything else moves its end
    /// against the starts already handed out; `lookup_mix` read `setup_s`
    /// = 0 for one repetition in ten that way.) A segment that ran long is
    /// one call that could not be interrupted: it is scaled by the mean of
    /// the timings on either side of it.
    fn sample(&mut self, raw: u64) -> f64 {
        let before = self.kernel_ns;
        let seg = raw.saturating_sub(self.segment_start_raw) as f64;
        let long = seg >= 10.0 * SAMPLE_PERIOD_NS as f64;
        // After a long call every remembered timing predates it: refill
        // the whole window so the "after" reading is really after.
        for _ in 0..if long { 3 } else { 1 } {
            self.time_kernel();
        }
        let scale_ns = if long {
            (before + self.kernel_ns) / 2.0
        } else {
            before
        };
        self.norm_base += seg * KERNEL_REF_NS / scale_ns;
        self.segment_start_raw = self.raw_now();
        self.norm_base
    }

    /// Normalised time at wall time `raw`, inside the open segment.
    fn norm_in_segment(&self, raw: u64) -> f64 {
        let open = raw.saturating_sub(self.segment_start_raw);
        self.norm_base + open as f64 * KERNEL_REF_NS / self.kernel_ns
    }

    /// Normalised time at wall time `raw`, sampling first when the open
    /// segment has run its period.
    fn norm_at(&mut self, raw: u64) -> f64 {
        if raw.saturating_sub(self.segment_start_raw) >= SAMPLE_PERIOD_NS {
            self.sample(raw)
        } else {
            self.norm_in_segment(raw)
        }
    }

    /// Opens a span (for phases too long-lived for a closure).
    pub fn enter(&mut self, name: Sp) -> Open {
        let mut idx = NO_PARENT;
        if self.traced {
            idx = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied().unwrap_or(NO_PARENT),
                rep: self.rep,
            });
            self.stack.push(idx);
        }
        // A span that opens after a long untimed stretch (set-up after the
        // bookkeeping between repetitions) starts in a fresh segment.
        let now = self.raw_now();
        if now.saturating_sub(self.segment_start_raw) >= SAMPLE_PERIOD_NS {
            self.sample(now);
        }
        let start_raw = self.raw_now();
        let start_norm = self.norm_in_segment(start_raw);
        self.depth += 1;
        if name == Sp::Measured {
            self.step_depth = self.depth + 1;
            self.last_step = start_norm;
        }
        Open {
            name,
            idx,
            start_raw,
            start_norm,
        }
    }

    /// Closes a span opened by [`enter`](Self::enter); returns its
    /// speed-normalised ns.
    pub fn exit(&mut self, open: Open, weight: u32) -> u64 {
        let end_raw = self.raw_now();
        let end_norm = self.norm_at(end_raw);
        let ns = (end_norm - open.start_norm).max(0.0).round() as u64;
        if self.depth == self.step_depth || open.name == Sp::Measured {
            self.steps.push((end_norm - self.last_step).max(0.0) as f32);
            self.last_step = end_norm;
        }
        if open.name == Sp::Measured {
            self.step_depth = 0;
        }
        self.depth = self.depth.saturating_sub(1);
        self.calls[open.name as usize].push(Call {
            ns,
            raw_ns: end_raw.saturating_sub(open.start_raw),
            weight,
        });
        if open.idx != NO_PARENT {
            let s = &mut self.spans[open.idx as usize];
            s.start_ns = open.start_norm.round() as u64;
            s.end_ns = end_norm.round() as u64;
            self.stack.pop();
        }
        ns
    }

    /// Pre-sizes the stores for `n` more calls of one kind. A store that
    /// grows inside a measured region costs time there, and how the
    /// allocator happens to move it makes the process's peak RSS differ
    /// from run to run (53 vs 59 MiB was seen on `lookup_mix`).
    pub fn expect_calls(&mut self, name: Sp, n: usize) {
        self.calls[name as usize].reserve(n);
        self.expected += n;
        self.steps
            .reserve(self.expected.saturating_sub(self.steps.len()));
        if self.traced {
            self.spans.reserve(n);
        }
    }

    /// Times one call carrying one workload op.
    #[inline]
    pub fn time<T>(&mut self, name: Sp, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open, 1);
        out
    }

    /// The measured region of this repetition cut into *steps*: normalised
    /// ns from the end of one call made directly inside it to the end of
    /// the next (the first step starts with the region, the last entry
    /// runs to its end), so the steps add up to the region, the
    /// workload's own loop between calls included. A workload issues the
    /// same calls in the same order every repetition, so step `i` of one
    /// repetition did the same work as step `i` of any other.
    pub fn steps(&self) -> &[f32] {
        &self.steps
    }

    /// The calls of one kind recorded this repetition, in issue order.
    pub fn calls(&self, name: Sp) -> &[Call] {
        &self.calls[name as usize]
    }

    /// Total (speed-normalised) host seconds spent in calls of one kind
    /// this repetition.
    pub fn busy_s(&self, name: Sp) -> f64 {
        self.calls(name).iter().map(|c| c.ns).sum::<u64>() as f64 / 1e9
    }

    /// Total wall seconds spent in calls of one kind this repetition.
    pub fn raw_busy_s(&self, name: Sp) -> f64 {
        self.calls(name).iter().map(|c| c.raw_ns).sum::<u64>() as f64 / 1e9
    }

    /// Every span kept so far (all traced reps), on the normalised clock.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span kind: each span's duration minus the durations of
/// its direct children, summed by name. Children are assumed to lie
/// inside their parent and not to overlap each other (true for spans a
/// single thread opens and closes in stack order).
pub fn self_times(spans: &[Span]) -> BTreeMap<Sp, u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *out.entry(s.name).or_insert(0) += ns;
    }
    out
}

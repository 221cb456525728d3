//! Varys: the flow-level network simulator (§8.1.1).
//!
//! A discrete-event simulation over a [`Topology`], with:
//!
//! * max-min fair bandwidth sharing between events ([`FlowTable`]);
//! * a per-switch TCAM control plane — raw switch, Hermes, Tango, ESPRES
//!   or an ideal zero-latency switch — each a member of one [`Fleet`]
//!   with its own dedicated worker lane, so per-flow rules along a path
//!   go out as one two-phase fleet transaction;
//! * the proactive traffic-engineering SDNApp of §8.1.1: every interval
//!   it moves the biggest flows off congested links onto alternate
//!   shortest paths, which requires installing per-flow rules along the
//!   new path — *the flow only switches after every installation
//!   completes*, so slow control planes directly inflate FCT and JCT.
//!
//! The simulation is deterministic given the seed (BTreeMap state, seeded
//! RNG, integer-nanosecond clock).

use crate::flow::{ActiveFlow, FlowId, FlowTable, JobId};
use crate::metrics::RunMetrics;
use crate::topology::{LinkId, NodeId, Topology};
use hermes_baselines::{ControlPlane, EspresSwitch, HermesPlane, RawSwitch, TangoSwitch};
use hermes_core::config::HermesConfig;
use hermes_fleet::{Fleet, FleetConfig};
use hermes_rules::prelude::*;
use hermes_tcam::{FaultPlan, SimDuration, SimTime, SwitchModel};
use hermes_telemetry::names;
use hermes_util::rng::rngs::StdRng;
use hermes_util::rng::{stream, Salt};
use hermes_workloads::facebook::JobSpec;
use hermes_workloads::gravity::TimedFlow;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Which control plane runs on every switch.
#[derive(Clone, Debug)]
pub enum SwitchKind {
    /// Zero-latency control plane (the paper's no-latency comparison
    /// point).
    Ideal,
    /// Unmodified switch with the given empirical model.
    Raw(SwitchModel),
    /// Hermes on the given model.
    Hermes(SwitchModel, HermesConfig),
    /// Tango baseline on the given model.
    Tango(SwitchModel),
    /// ESPRES baseline on the given model.
    Espres(SwitchModel),
}

impl SwitchKind {
    /// Display name for experiment output.
    pub fn label(&self) -> String {
        match self {
            SwitchKind::Ideal => "Ideal".into(),
            SwitchKind::Raw(m) => m.name.clone(),
            SwitchKind::Hermes(_, _) => "Hermes".into(),
            SwitchKind::Tango(m) => format!("Tango ({})", m.name),
            SwitchKind::Espres(m) => format!("ESPRES ({})", m.name),
        }
    }

    /// The control plane for one switch. A `fault_seed` arms
    /// [`FaultPlan::seeded`] on Hermes planes; the other kinds stay
    /// fault-free.
    fn build(&self, fault_seed: Option<u64>) -> Box<dyn ControlPlane> {
        match self {
            SwitchKind::Ideal => Box::new(RawSwitch::new(SwitchModel::ideal())),
            SwitchKind::Raw(m) => Box::new(RawSwitch::new(m.clone())),
            SwitchKind::Hermes(m, c) => {
                let mut plane = HermesPlane::with_config(m.clone(), c.clone()).expect(
                    "INVARIANT: scenario constructors pair each Hermes config with a model \
                     that admits it; an infeasible pair is a bug in the experiment definition",
                );
                plane
                    .switch_mut()
                    .install_fault_plan(fault_seed.map(FaultPlan::seeded));
                Box::new(plane)
            }
            SwitchKind::Tango(m) => Box::new(TangoSwitch::new(m.clone())),
            SwitchKind::Espres(m) => Box::new(EspresSwitch::new(m.clone())),
        }
    }
}

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct VarysConfig {
    /// The control plane on every switch.
    pub switch: SwitchKind,
    /// TE app period, seconds.
    pub te_interval_s: f64,
    /// Links above this utilization are congested.
    pub congestion_threshold: f64,
    /// Reroutes attempted per TE tick.
    pub max_reroutes_per_tick: usize,
    /// Rules preloaded per switch before the workload (sets the starting
    /// TCAM occupancy; Table 1 shows occupancy dominates insert latency).
    pub base_rules_per_switch: usize,
    /// RNG seed.
    pub seed: u64,
    /// Arms [`FaultPlan::seeded`] with this seed on every Hermes switch
    /// before the preload; `None` runs fault-free.
    pub fault_seed: Option<u64>,
}

impl Default for VarysConfig {
    fn default() -> Self {
        VarysConfig {
            switch: SwitchKind::Ideal,
            te_interval_s: 1.0,
            congestion_threshold: 0.8,
            max_reroutes_per_tick: 16,
            base_rules_per_switch: 200,
            seed: 1,
            fault_seed: None,
        }
    }
}

/// Rule-manager tick, seconds: how often every control plane is ticked
/// (Hermes migrates shadow→main on these ticks).
const MANAGER_TICK_S: f64 = 0.1;

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    FlowArrive {
        job: JobId,
        src: usize,
        dst: usize,
        bytes: u64,
    },
    FlowStart {
        flow: FlowId,
        job: JobId,
        src: usize,
        dst: usize,
        bytes: u64,
        path: Vec<LinkId>,
    },
    FlowComplete {
        flow: FlowId,
    },
    TeTick,
    MgrTick,
    PathSwitch {
        flow: FlowId,
        path: Vec<LinkId>,
    },
    End,
}

/// One event. The derived order is by `(at, seq)`: `seq` is unique, so
/// `kind` never decides.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

/// A flow's scheduled completion. The derived order is by `(at, seq)`:
/// `seq` is unique, so `flow` never decides.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Due {
    at: SimTime,
    seq: u64,
    flow: FlowId,
}

/// [`EventQueue::pos`] of a flow with no scheduled completion.
const UNSCHEDULED: u32 = u32::MAX;

/// The event queue. A flow has at most one scheduled completion: the
/// completions form an indexed binary min-heap of [`Due`] entries, and
/// `pos` holds each flow's place in it (by flow id: ids count up from 0,
/// one per arrival), so a rate change re-keys the flow's entry in place
/// and a rate of 0 cancels it. Every other kind waits in a plain
/// `BinaryHeap` keyed `(at, seq)`. One `seq` counter, drawn on every push
/// and re-key, serves both heaps, and `pop` takes the smaller `(at, seq)`
/// of the two heads: keys are unique, and events at one instant pop first
/// in, first out.
#[derive(Default)]
struct EventQueue {
    completions: Vec<Due>,
    pos: Vec<u32>,
    others: BinaryHeap<Reverse<Event>>,
    seq: u64,
}

impl EventQueue {
    /// Queues `kind` at `at`. A `FlowComplete` replaces the flow's
    /// scheduled completion, if it has one.
    fn push(&mut self, at: SimTime, kind: EventKind) {
        match kind {
            EventKind::FlowComplete { flow } => self.schedule(flow, at),
            kind => {
                self.seq += 1;
                self.others.push(Reverse(Event {
                    at,
                    seq: self.seq,
                    kind,
                }));
            }
        }
    }

    /// Schedules `flow`'s completion at `at`, re-keying the entry it
    /// already has.
    fn schedule(&mut self, flow: FlowId, at: SimTime) {
        self.seq += 1;
        let due = Due {
            at,
            seq: self.seq,
            flow,
        };
        if flow >= self.pos.len() {
            self.pos.resize(flow + 1, UNSCHEDULED);
        }
        match self.pos[flow] {
            UNSCHEDULED => {
                self.completions.push(due);
                self.sift_up(self.completions.len() - 1);
            }
            i => {
                let i = i as usize;
                let old = std::mem::replace(&mut self.completions[i], due);
                if due < old {
                    self.sift_up(i);
                } else {
                    self.sift_down(i);
                }
            }
        }
    }

    /// Drops `flow`'s scheduled completion, if it has one.
    fn cancel(&mut self, flow: FlowId) {
        match self.pos.get(flow) {
            Some(&i) if i != UNSCHEDULED => {
                self.remove_at(i as usize);
            }
            _ => {}
        }
    }

    /// The earliest event, if any.
    fn pop(&mut self) -> Option<Event> {
        let other = self.others.peek().map(|Reverse(e)| (e.at, e.seq));
        match self.completions.first() {
            Some(d) if other.is_none_or(|o| (d.at, d.seq) < o) => {
                let d = self.remove_at(0);
                Some(Event {
                    at: d.at,
                    seq: d.seq,
                    kind: EventKind::FlowComplete { flow: d.flow },
                })
            }
            _ => self.others.pop().map(|Reverse(e)| e),
        }
    }

    /// Takes the completion at heap index `i` out; the last entry fills
    /// the hole and moves to its place.
    fn remove_at(&mut self, i: usize) -> Due {
        let gone = self.completions.swap_remove(i);
        self.pos[gone.flow] = UNSCHEDULED;
        if i < self.completions.len() {
            // A promoted child is no smaller than the removed entry, so
            // at most one of the two sifts moves anything.
            self.sift_down(i);
            self.sift_up(i);
        }
        gone
    }

    /// Moves the completion at `i` up to its place, keeping `pos` in step.
    fn sift_up(&mut self, mut i: usize) {
        let due = self.completions[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.completions[parent] <= due {
                break;
            }
            self.place(i, self.completions[parent]);
            i = parent;
        }
        self.place(i, due);
    }

    /// Moves the completion at `i` down to its place, keeping `pos` in
    /// step.
    fn sift_down(&mut self, mut i: usize) {
        let due = self.completions[i];
        let n = self.completions.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.completions[child + 1] < self.completions[child] {
                child += 1;
            }
            if due <= self.completions[child] {
                break;
            }
            self.place(i, self.completions[child]);
            i = child;
        }
        self.place(i, due);
    }

    fn place(&mut self, i: usize, due: Due) {
        self.completions[i] = due;
        self.pos[due.flow] = i as u32;
    }
}

struct JobState {
    arrival: SimTime,
    flows_left: usize,
    total_bytes: u64,
}

/// The simulator.
pub struct Varys {
    topo: Topology,
    config: VarysConfig,
    fleet: Fleet<Box<dyn ControlPlane>>,
    flows: FlowTable,
    queue: EventQueue,
    /// Hop distances to each destination a path pick has asked for, by
    /// node id; filled on first use (the topology never changes).
    dist: Vec<Option<Box<[usize]>>>,
    now: SimTime,
    last_advance: SimTime,
    jobs: BTreeMap<JobId, JobState>,
    /// Per-flow custom rules currently installed: (switch, rule id).
    flow_rules: BTreeMap<FlowId, Vec<(NodeId, RuleId)>>,
    /// Arrival instants of flows still waiting for rule installation.
    flow_arrivals: BTreeMap<FlowId, SimTime>,
    rerouting: BTreeSet<FlowId>,
    next_flow: FlowId,
    next_rule: u64,
    rng: StdRng,
    /// Collected metrics.
    pub metrics: RunMetrics,
    end: SimTime,
    /// Record per-job JCTs: job id → (jct seconds, total bytes).
    pub jct_by_job: BTreeMap<JobId, (f64, u64)>,
}

impl Varys {
    /// Builds a simulator over the topology. Every switch's control plane
    /// is owned by the fleet controller, each on a dedicated worker lane.
    pub fn new(topo: Topology, config: VarysConfig) -> Self {
        let members: Vec<(NodeId, Box<dyn ControlPlane>)> = topo
            .switches()
            .into_iter()
            .map(|sw| (sw, config.switch.build(config.fault_seed)))
            .collect();
        let fleet = Fleet::new(
            members,
            FleetConfig {
                seed: config.seed,
                ..FleetConfig::default()
            },
        );
        let rng = stream(config.seed, Salt::CALLER);
        let mut sim = Varys {
            topo,
            config,
            fleet,
            flows: FlowTable::new(),
            queue: EventQueue::default(),
            dist: Vec::new(),
            now: SimTime::ZERO,
            last_advance: SimTime::ZERO,
            jobs: BTreeMap::new(),
            flow_rules: BTreeMap::new(),
            flow_arrivals: BTreeMap::new(),
            rerouting: BTreeSet::new(),
            next_flow: 0,
            next_rule: 0,
            rng,
            metrics: RunMetrics::default(),
            end: SimTime::MAX,
            jct_by_job: BTreeMap::new(),
        };
        sim.preload_base_rules();
        sim
    }

    /// Preloads `base_rules_per_switch` disjoint FIB-style rules into every
    /// switch (not counted in metrics). For Hermes these go through the
    /// normal path followed by a forced migration, leaving the shadow
    /// empty.
    fn preload_base_rules(&mut self) {
        let n = self.config.base_rules_per_switch;
        if n == 0 {
            return;
        }
        let switches: Vec<NodeId> = self.fleet.switch_ids();
        for sw in switches {
            let mut actions = Vec::with_capacity(n);
            for i in 0..n {
                let addr = (0b11u32 << 30) | ((i as u32) << 12);
                // Priorities spread across the whole usable range so later
                // TE insertions land mid-table (shifting real numbers of
                // entries on every placement strategy).
                let rule = Rule::new(
                    self.next_rule,
                    Ipv4Prefix::new(addr, 24).to_key(),
                    Priority(10 + ((i as u32).wrapping_mul(37)) % 1980),
                    Action::Forward((i % 48) as u32),
                );
                self.next_rule += 1;
                actions.push(ControlAction::Insert(rule));
            }
            let p = self.fleet.plane_mut(sw);
            p.apply_batch(&actions, SimTime::ZERO);
            // Drain Hermes's shadow so the workload starts clean, then
            // reset time-dependent state (admission bucket, busy windows)
            // — preloading happens conceptually before the simulation.
            p.tick(SimTime::ZERO);
            p.end_warmup();
            // A second drain pass for rules that arrived while the first
            // migration was notionally busy.
            p.tick(SimTime::ZERO);
            p.end_warmup();
        }
        // Preloading bypassed the lanes; reset their horizons to the epoch.
        self.fleet.end_warmup_all();
    }

    /// [`Topology::random_shortest_path`] over the cached distances to
    /// `dst`: the same path and the same RNG draws.
    fn random_shortest_path(
        &mut self,
        src: NodeId,
        dst: NodeId,
        avoid: Option<LinkId>,
    ) -> Option<Vec<LinkId>> {
        if self.dist.is_empty() {
            self.dist.resize(self.topo.node_count(), None);
        }
        let dist =
            self.dist[dst].get_or_insert_with(|| self.topo.distances_to(dst).into_boxed_slice());
        self.topo
            .pick_shortest_path(src, dst, dist, avoid, &mut self.rng)
    }

    /// Registers MapReduce jobs (the Facebook workload).
    pub fn register_jobs(&mut self, jobs: &[JobSpec]) {
        for job in jobs {
            let at = SimTime::from_secs(job.arrival_s);
            self.jobs.insert(
                job.id,
                JobState {
                    arrival: at,
                    flows_left: job.flows.len(),
                    total_bytes: job.total_bytes(),
                },
            );
            for f in &job.flows {
                self.queue.push(
                    at,
                    EventKind::FlowArrive {
                        job: job.id,
                        src: f.src,
                        dst: f.dst,
                        bytes: f.bytes,
                    },
                );
            }
        }
    }

    /// Registers independent flows (ISP workloads); each flow is its own
    /// job.
    pub fn register_flows(&mut self, flows: &[TimedFlow], first_job_id: JobId) {
        for (i, tf) in flows.iter().enumerate() {
            let job = first_job_id + i;
            let at = SimTime::from_secs(tf.arrival_s);
            self.jobs.insert(
                job,
                JobState {
                    arrival: at,
                    flows_left: 1,
                    total_bytes: tf.flow.bytes,
                },
            );
            self.queue.push(
                at,
                EventKind::FlowArrive {
                    job,
                    src: tf.flow.src,
                    dst: tf.flow.dst,
                    bytes: tf.flow.bytes,
                },
            );
        }
    }

    /// Runs until all flows complete or `horizon_s` elapses. Returns the
    /// final simulated time.
    pub fn run(&mut self, horizon_s: f64) -> SimTime {
        self.end = SimTime::from_secs(horizon_s);
        self.queue.push(
            SimTime::from_secs(self.config.te_interval_s),
            EventKind::TeTick,
        );
        self.queue
            .push(SimTime::from_secs(MANAGER_TICK_S), EventKind::MgrTick);
        self.queue.push(self.end, EventKind::End);

        while let Some(ev) = self.queue.pop() {
            if ev.at > self.end {
                break;
            }
            self.advance_to(ev.at);
            match ev.kind {
                EventKind::FlowArrive {
                    job,
                    src,
                    dst,
                    bytes,
                } => self.on_flow_arrive(job, src, dst, bytes),
                EventKind::FlowStart {
                    flow,
                    job,
                    src,
                    dst,
                    bytes,
                    path,
                } => self.on_flow_start(flow, job, src, dst, bytes, path),
                EventKind::FlowComplete { flow } => self.on_flow_complete(flow),
                EventKind::TeTick => self.on_te_tick(),
                EventKind::MgrTick => self.on_mgr_tick(),
                EventKind::PathSwitch { flow, path } => self.on_path_switch(flow, path),
                EventKind::End => break,
            }
            // Stop early once all work is done and only periodic ticks
            // remain.
            if self.flows.is_empty() && self.jobs.is_empty() {
                break;
            }
        }
        self.collect_health();
        self.now
    }

    /// Snapshots control-plane health counters into the metric bundle
    /// (overwrites, so repeated `run` calls stay consistent).
    fn collect_health(&mut self) {
        let (mut retries, mut failures, mut diffs, mut degraded_ns) = (0u64, 0u64, 0u64, 0u64);
        for (_, p) in self.fleet.planes() {
            if let Some(rs) = p.recovery_stats() {
                retries += rs.retries;
                failures += rs.permanent_failures;
                diffs += rs.audit_diffs;
                degraded_ns += rs.degraded_ns;
            }
        }
        self.metrics.device_retries = retries;
        self.metrics.device_failures = failures;
        self.metrics.audit_diffs = diffs;
        self.metrics.degraded_ms = degraded_ns as f64 / 1e6;
        let fs = self.fleet.stats();
        self.metrics.path_txns = fs.txns;
        self.metrics.path_rollbacks = fs.txn_rollbacks;
        self.metrics.coalesced_pieces = fs.coalesced_pieces;
    }

    fn advance_to(&mut self, t: SimTime) {
        let dt = t.since(self.last_advance).as_secs();
        self.flows.advance(dt);
        self.last_advance = t;
        self.now = t;
    }

    fn reallocate_and_reschedule(&mut self) {
        let changed = self.flows.allocate_max_min(&self.topo);
        for id in changed {
            let f = self
                .flows
                .get(id)
                .expect("INVARIANT: allocate_max_min returns ids of live flows");
            if f.rate_bps > 0.0 {
                // +2 ns guard: `from_secs` rounds to integer nanoseconds
                // and rounding *down* would leave a few bytes unfinished
                // at the event — with no further rate change ever
                // rescheduling it (observed at 40 Gbps where 1 ns ≈ 5
                // bytes). Overshooting by 2 ns is harmless: `advance`
                // clamps remaining at zero.
                let at = self.now
                    + SimDuration::from_secs(f.remaining_bytes * 8.0 / f.rate_bps)
                    + SimDuration::from_nanos(2);
                self.queue.schedule(id, at);
            } else {
                self.queue.cancel(id);
            }
        }
    }

    /// Proactive placement (the paper's proactive SDNApp: no packet-in
    /// round trip): the flow's rules are installed along one sampled
    /// shortest path when it arrives, and it starts transmitting once the
    /// *last* switch finishes installing.
    fn on_flow_arrive(&mut self, job: JobId, src: usize, dst: usize, bytes: u64) {
        let id = self.next_flow;
        self.next_flow += 1;
        let path = self
            .random_shortest_path(src, dst, None)
            .unwrap_or_default();
        let ready = self.install_path_rules(id, src, dst, &path);
        self.flow_arrivals.insert(id, self.now);
        self.queue.push(
            ready,
            EventKind::FlowStart {
                flow: id,
                job,
                src,
                dst,
                bytes,
                path,
            },
        );
    }

    fn on_flow_start(
        &mut self,
        id: FlowId,
        job: JobId,
        src: usize,
        dst: usize,
        bytes: u64,
        path: Vec<LinkId>,
    ) {
        self.flows.insert(ActiveFlow {
            id,
            job,
            src,
            dst,
            remaining_bytes: bytes as f64,
            rate_bps: 0.0,
            path,
            // FCT measured from job-visible arrival: the installation wait
            // is part of the completion time (this is where control-plane
            // latency lands on applications).
            started: self.flow_arrivals.remove(&id).unwrap_or(self.now),
            version: 0,
        });
        self.reallocate_and_reschedule();
    }

    /// Builds the per-flow rule set for `path`: one rule per on-path
    /// switch, all sharing one priority draw from the TE band.
    fn path_pieces(&mut self, src: usize, dst: usize, path: &[LinkId]) -> Vec<(NodeId, Rule)> {
        let switches = self.topo.switches_on_path(src, path);
        let priority =
            Priority(200 + (hermes_util::rng::Rng::gen_range(&mut self.rng, 0..1600u32)));
        let mut pieces = Vec::with_capacity(switches.len());
        for sw in switches {
            let rule = Rule::new(
                self.next_rule,
                FlowMatch::any()
                    .with_dst(Ipv4Prefix::host(dst as u32))
                    .with_src(Ipv4Prefix::host(src as u32))
                    .to_key(),
                priority,
                Action::Forward((sw % 48) as u32),
            );
            self.next_rule += 1;
            pieces.push((sw, rule));
        }
        pieces
    }

    /// Pushes RIT/install/violation samples for every staged piece of a
    /// path transaction (the stage writes consume control-channel time
    /// even when the transaction later rolls back).
    fn record_path_metrics(&mut self, outcome: &hermes_fleet::PathOutcome) {
        for op in &outcome.ops {
            self.metrics.rit_ms.push(op.done.since(self.now).as_ms());
            self.metrics.installs += 1;
            if op.violated {
                self.metrics.violations += 1;
            }
            if hermes_telemetry::enabled() {
                hermes_telemetry::counter(names::NETSIM_RULE_INSTALLS, 1);
                hermes_telemetry::observe(names::NETSIM_RIT_NS, op.done.since(self.now).as_nanos());
            }
        }
    }

    /// Installs one per-flow rule on every switch along `path` as a
    /// two-phase fleet transaction, recording RIT samples, and returns
    /// the instant the flow may start. If a member fails staging (its
    /// piece never became live, e.g. a full table), the fleet rolls the
    /// staged pieces back everywhere and the install degrades to
    /// best-effort per-switch submissions — the flow still starts once
    /// every write lands.
    fn install_path_rules(
        &mut self,
        fid: FlowId,
        src: usize,
        dst: usize,
        path: &[LinkId],
    ) -> SimTime {
        let pieces = self.path_pieces(src, dst, path);
        let rules: Vec<(NodeId, RuleId)> = pieces.iter().map(|(sw, r)| (*sw, r.id)).collect();
        let outcome = self.fleet.install_path(&pieces, self.now);
        self.record_path_metrics(&outcome);
        let mut ready = outcome.ready;
        if !outcome.committed {
            // The degraded fallback is a distinct health signal from the
            // rollback itself: the transaction aborted *and* the flow's
            // rules went out without atomicity cover.
            self.metrics.path_degraded += 1;
            if hermes_telemetry::enabled() {
                hermes_telemetry::counter(names::FLEET_PATH_DEGRADED, 1);
            }
            for (sw, rule) in &pieces {
                let (start, bo) =
                    self.fleet
                        .submit(*sw, &[ControlAction::Insert(*rule)], outcome.ready);
                let op = bo
                    .ops
                    .last()
                    .expect("INVARIANT: submit of one action reports at least one op");
                let done = start + op.completed_at;
                if done > ready {
                    ready = done;
                }
            }
        }
        if let Some(old) = self.flow_rules.insert(fid, rules) {
            for (sw, rid) in old {
                self.fleet.submit(sw, &[ControlAction::Delete(rid)], ready);
            }
        }
        ready
    }

    fn on_flow_complete(&mut self, id: FlowId) {
        // The popped completion is the flow's only one, so it is current;
        // a flow short of its last bytes waits for its next rate change.
        let done = self.flows.get(id).is_some_and(|f| f.remaining_bytes <= 1.0);
        if !done {
            return;
        }
        let flow = self
            .flows
            .remove(id)
            .expect("INVARIANT: flow presence validated above");
        let fct = self.now.since(flow.started).as_secs();
        self.metrics.fct_s.push(fct);
        if hermes_telemetry::enabled() {
            hermes_telemetry::counter(names::NETSIM_FLOWS_COMPLETED, 1);
            hermes_telemetry::observe(
                names::NETSIM_FCT_NS,
                self.now.since(flow.started).as_nanos(),
            );
        }
        // Fig. 9(b) plots the FCT of flows belonging to *short jobs*
        // (total job size under 1 GB).
        if let Some(js) = self.jobs.get(&flow.job) {
            if js.total_bytes < 1_000_000_000 {
                self.metrics.fct_short_s.push(fct);
            }
        }
        self.rerouting.remove(&id);
        // Tear down any custom rules (deletions are cheap; not part of the
        // flow's critical path).
        if let Some(rules) = self.flow_rules.remove(&id) {
            for (sw, rid) in rules {
                self.fleet
                    .submit(sw, &[ControlAction::Delete(rid)], self.now);
            }
        }
        // Job accounting.
        if let Some(js) = self.jobs.get_mut(&flow.job) {
            js.flows_left -= 1;
            if js.flows_left == 0 {
                let jct = self.now.since(js.arrival).as_secs();
                self.metrics.jct_s.push(jct);
                if js.total_bytes < 1_000_000_000 {
                    self.metrics.jct_short_s.push(jct);
                } else {
                    self.metrics.jct_long_s.push(jct);
                }
                self.jct_by_job.insert(flow.job, (jct, js.total_bytes));
                self.jobs.remove(&flow.job);
            }
        }
        self.reallocate_and_reschedule();
    }

    /// The proactive TE SDNApp: move the biggest flows off congested links.
    fn on_te_tick(&mut self) {
        let span = hermes_telemetry::span_enter(names::NETSIM_TE_TICK, self.now.as_nanos());
        let util = self.flows.link_utilization(&self.topo);
        // Congested links, most loaded first.
        let mut congested: Vec<(f64, LinkId)> = util
            .iter()
            .enumerate()
            .filter(|&(_, &u)| u > self.config.congestion_threshold)
            .map(|(l, &u)| (u, l))
            .collect();
        congested.sort_by(|a, b| b.0.total_cmp(&a.0));

        let mut rerouted = 0usize;
        for (_, link) in congested {
            if rerouted >= self.config.max_reroutes_per_tick {
                break;
            }
            // The biggest not-already-rerouting flow on the link; equal
            // rates go to the highest flow id.
            let candidate = self
                .flows
                .flows_on(link)
                .filter(|f| !self.rerouting.contains(&f.id))
                .max_by(|a, b| a.rate_bps.total_cmp(&b.rate_bps).then(a.id.cmp(&b.id)))
                .map(|f| (f.id, f.src, f.dst, f.path.clone()));
            let Some((fid, src, dst, old_path)) = candidate else {
                continue;
            };
            // Sample a handful of alternate shortest paths and take the
            // least-loaded one — the TE app must actually improve placement
            // for control-plane speed to matter.
            let path_load = |p: &[LinkId]| p.iter().map(|&l| util[l]).fold(0.0f64, f64::max);
            let old_load = path_load(&old_path);
            let mut best: Option<(f64, Vec<LinkId>)> = None;
            for _ in 0..4 {
                let Some(cand) = self.random_shortest_path(src, dst, Some(link)) else {
                    continue;
                };
                if cand == old_path || cand.contains(&link) {
                    continue;
                }
                let load = path_load(&cand);
                if best.as_ref().map(|(b, _)| load < *b).unwrap_or(true) {
                    best = Some((load, cand));
                }
            }
            let Some((new_load, new_path)) = best else {
                continue;
            };
            if new_load + 0.1 >= old_load {
                continue; // not meaningfully better
            }
            self.reroute(fid, src, dst, new_path);
            rerouted += 1;
        }
        if hermes_telemetry::enabled() {
            hermes_telemetry::counter(names::NETSIM_REROUTES, rerouted as u64);
            hermes_telemetry::series(
                names::NETSIM_ACTIVE_FLOWS,
                self.now.as_nanos(),
                self.flows.len() as f64,
            );
        }
        // The TE pass itself consumes no simulated time; the span still
        // records the tick (and its nesting) in the rollups.
        span.end(self.now.as_nanos());
        let next = self.now + SimDuration::from_secs(self.config.te_interval_s);
        self.queue.push(next, EventKind::TeTick);
    }

    /// Issues the rule installations for a new path as a two-phase fleet
    /// transaction and schedules the switch-over for when the *last*
    /// switch finishes installing. An aborted transaction (a member
    /// failed staging) leaves the flow on its current path and
    /// rules — the fleet already rolled the staged pieces back everywhere
    /// and a later TE tick may retry the move.
    fn reroute(&mut self, fid: FlowId, src: usize, dst: usize, new_path: Vec<LinkId>) {
        let pieces = self.path_pieces(src, dst, &new_path);
        let new_rules: Vec<(NodeId, RuleId)> = pieces.iter().map(|(sw, r)| (*sw, r.id)).collect();
        let outcome = self.fleet.install_path(&pieces, self.now);
        self.record_path_metrics(&outcome);
        if !outcome.committed {
            return;
        }
        let ready = outcome.ready;
        // Replace any previously installed custom rules on switch-over;
        // remember the new ones now so completion can clean them up.
        self.rerouting.insert(fid);
        let old = self.flow_rules.insert(fid, new_rules);
        if let Some(old_rules) = old {
            for (sw, rid) in old_rules {
                self.fleet.submit(sw, &[ControlAction::Delete(rid)], ready);
            }
        }
        self.queue.push(
            ready,
            EventKind::PathSwitch {
                flow: fid,
                path: new_path,
            },
        );
    }

    fn on_path_switch(&mut self, fid: FlowId, path: Vec<LinkId>) {
        self.rerouting.remove(&fid);
        if !self.flows.set_path(fid, path) {
            return;
        }
        // The flow's scheduled completion stays: if the reallocation below
        // leaves its rate unchanged, that completion is still exactly
        // right. Any rate that does change is re-keyed by
        // `reallocate_and_reschedule`.
        self.reallocate_and_reschedule();
    }

    fn on_mgr_tick(&mut self) {
        // Ticks every plane (migrations) and re-drives any rollback
        // deletes a member previously swallowed.
        self.fleet.tick_all(self.now);
        let next = self.now + SimDuration::from_secs(MANAGER_TICK_S);
        self.queue.push(next, EventKind::MgrTick);
    }

    /// The topology under simulation.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Total occupancy across all switch control planes.
    pub fn total_occupancy(&self) -> usize {
        self.fleet.occupancy()
    }

    /// The fleet controller owning the switch control planes.
    pub fn fleet(&self) -> &Fleet<Box<dyn ControlPlane>> {
        &self.fleet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_util::check::Gen;
    use hermes_util::rng::Rng;
    use hermes_workloads::facebook::{FacebookWorkload, FlowSpec};

    fn tiny_jobs(n: usize) -> Vec<JobSpec> {
        // n jobs of one 100 MB flow each, arriving 50 ms apart.
        (0..n)
            .map(|i| JobSpec {
                id: i,
                arrival_s: i as f64 * 0.05,
                flows: vec![FlowSpec {
                    src: i % 4,
                    dst: (i + 7) % 16,
                    bytes: 100_000_000,
                }],
            })
            .collect()
    }

    #[test]
    fn flows_complete_and_fct_recorded() {
        let topo = Topology::fat_tree(4, 10e9);
        let mut sim = Varys::new(topo, VarysConfig::default());
        sim.register_jobs(&tiny_jobs(10));
        sim.run(60.0);
        assert_eq!(sim.metrics.fct_s.len(), 10);
        assert_eq!(sim.metrics.jct_s.len(), 10);
        // 100 MB at 10 Gbps is 80 ms minimum.
        let mut fct = sim.metrics.fct_s.clone();
        assert!(fct.percentile(0.0) >= 0.08);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let topo = Topology::fat_tree(4, 10e9);
            let mut sim = Varys::new(
                topo,
                VarysConfig {
                    seed: 9,
                    ..Default::default()
                },
            );
            let jobs = FacebookWorkload {
                jobs: 30,
                hosts: 16,
                duration_s: 2.0,
                seed: 5,
            }
            .generate();
            sim.register_jobs(&jobs);
            sim.run(120.0);
            (
                sim.metrics.fct_s.values().to_vec(),
                sim.metrics.jct_s.values().to_vec(),
                sim.metrics.installs,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn congestion_triggers_te_and_rule_installs() {
        // Many large flows to the same destination host: its access link
        // saturates; the TE app must attempt reroutes (even though the
        // access link itself has no alternative, intermediate links do).
        let topo = Topology::fat_tree(4, 10e9);
        let model = SwitchModel::pica8_p3290();
        let cfg = VarysConfig {
            switch: SwitchKind::Raw(model),
            congestion_threshold: 0.5,
            base_rules_per_switch: 50,
            ..Default::default()
        };
        let mut sim = Varys::new(topo, cfg);
        // One full-rate flow per host pair: every inter-pod link each flow
        // crosses runs at 100% utilization, and the congested edge→agg and
        // agg→core links all have ECMP alternatives the TE app can use.
        let jobs: Vec<JobSpec> = (0..4)
            .map(|i| JobSpec {
                id: i,
                arrival_s: 0.0,
                flows: vec![FlowSpec {
                    src: i,
                    dst: 12 + i,
                    bytes: 2_000_000_000,
                }],
            })
            .collect();
        sim.register_jobs(&jobs);
        sim.run(120.0);
        assert_eq!(sim.metrics.fct_s.len(), 4, "all flows complete");
        assert!(sim.metrics.installs > 0, "TE app should install rules");
        assert!(!sim.metrics.rit_ms.is_empty());
    }

    #[test]
    fn hermes_switches_work_in_sim() {
        let topo = Topology::fat_tree(4, 10e9);
        let cfg = VarysConfig {
            switch: SwitchKind::Hermes(SwitchModel::pica8_p3290(), HermesConfig::default()),
            congestion_threshold: 0.5,
            base_rules_per_switch: 100,
            ..Default::default()
        };
        let mut sim = Varys::new(topo, cfg);
        let jobs: Vec<JobSpec> = (0..12)
            .map(|i| JobSpec {
                id: i,
                arrival_s: 0.0,
                flows: vec![FlowSpec {
                    src: i,
                    dst: 15,
                    bytes: 1_000_000_000,
                }],
            })
            .collect();
        sim.register_jobs(&jobs);
        sim.run(120.0);
        assert_eq!(sim.metrics.fct_s.len(), 12);
    }

    #[test]
    fn fault_seed_arms_hermes_switches_reproducibly() {
        let run = |fault_seed: Option<u64>| {
            let topo = Topology::fat_tree(4, 10e9);
            let cfg = VarysConfig {
                switch: SwitchKind::Hermes(SwitchModel::pica8_p3290(), HermesConfig::default()),
                congestion_threshold: 0.5,
                base_rules_per_switch: 100,
                fault_seed,
                ..Default::default()
            };
            let mut sim = Varys::new(topo, cfg);
            sim.register_jobs(&tiny_jobs(12));
            sim.run(120.0);
            sim.metrics
        };
        let recovered = |m: &RunMetrics| m.device_retries + m.device_failures + m.audit_diffs;
        let a = run(Some(7));
        assert!(
            recovered(&a) > 0,
            "a seeded plan draws faults the planes recover from"
        );
        assert_eq!(
            format!("{a:?}"),
            format!("{:?}", run(Some(7))),
            "same seed, same run"
        );
        assert_eq!(recovered(&run(None)), 0, "no seed, no faults");
    }

    #[test]
    fn ideal_is_no_slower_than_raw() {
        let jobs: Vec<JobSpec> = (0..16)
            .map(|i| JobSpec {
                id: i,
                arrival_s: (i % 4) as f64 * 0.01,
                flows: vec![FlowSpec {
                    src: i % 8,
                    dst: 15,
                    bytes: 1_500_000_000,
                }],
            })
            .collect();
        let run = |kind: SwitchKind| {
            let topo = Topology::fat_tree(4, 10e9);
            let cfg = VarysConfig {
                switch: kind,
                congestion_threshold: 0.5,
                base_rules_per_switch: 400,
                ..Default::default()
            };
            let mut sim = Varys::new(topo, cfg);
            sim.register_jobs(&jobs);
            sim.run(240.0);
            sim.metrics.jct_s.mean()
        };
        let ideal = run(SwitchKind::Ideal);
        let raw = run(SwitchKind::Raw(SwitchModel::pica8_p3290()));
        assert!(
            raw >= ideal * 0.99,
            "raw ({raw}) should not beat ideal ({ideal})"
        );
    }

    #[test]
    fn degraded_installs_are_counted_apart_from_rollbacks() {
        // An arrival install that aborts on a member whose table is full
        // (the piece never becomes live) degrades to best-effort
        // per-switch submissions; that fallback must land in
        // `path_degraded`, not be folded into `path_rollbacks` (reroute
        // aborts roll back WITHOUT degrading, so the two counters answer
        // different questions).
        let topo = Topology::fat_tree(4, 10e9);
        // The preload leaves five free entries per switch.
        let mut model = SwitchModel::pica8_p3290();
        model.capacity = 250;
        let cfg = VarysConfig {
            switch: SwitchKind::Hermes(model, HermesConfig::default()),
            base_rules_per_switch: 245,
            seed: 3,
            ..Default::default()
        };
        let mut sim = Varys::new(topo, cfg);
        // Many concurrent long flows: their per-flow rules outgrow the
        // headroom the preload left.
        let jobs: Vec<JobSpec> = (0..40)
            .map(|i| JobSpec {
                id: i,
                arrival_s: i as f64 * 0.002,
                flows: vec![FlowSpec {
                    src: i % 8,
                    dst: 8 + (i % 8),
                    bytes: 200_000_000,
                }],
            })
            .collect();
        sim.register_jobs(&jobs);
        sim.run(240.0);
        assert!(
            sim.metrics.path_degraded > 0,
            "full members produced degraded installs"
        );
        assert!(
            sim.metrics.path_rollbacks >= sim.metrics.path_degraded,
            "every degraded install implies a rollback ({} rollbacks, {} degraded)",
            sim.metrics.path_rollbacks,
            sim.metrics.path_degraded,
        );
        assert_eq!(
            sim.metrics.path_rollbacks,
            sim.fleet().stats().txn_rollbacks,
            "path_rollbacks mirrors the fleet's counter exactly — degraded \
             installs are not folded in"
        );
    }

    /// One step of a queue history.
    #[derive(Clone, Debug)]
    enum QueueOp {
        /// Any kind; a `FlowComplete` schedules or re-keys its flow.
        Push(SimTime, EventKind),
        Cancel(FlowId),
        Pop,
    }

    /// Random histories over every `EventKind` plus cancels, most pushes
    /// on one of four instants so that `seq` decides the order, and
    /// completions on eight flows so that most of them re-key.
    fn queue_ops() -> Gen<Vec<QueueOp>> {
        Gen::from_fn(|rng, size| {
            let path = |rng: &mut StdRng| -> Vec<LinkId> {
                let n = rng.gen_range(0..5usize);
                (0..n).map(|_| rng.gen_range(0..48usize)).collect()
            };
            (0..rng.gen_range(0..=size * 4))
                .map(|_| {
                    let flow = rng.gen_range(0..8usize);
                    match rng.gen_range(0..10u32) {
                        0..=2 => return QueueOp::Pop,
                        3 => return QueueOp::Cancel(flow),
                        _ => {}
                    }
                    let at = if rng.gen_bool(0.8) {
                        rng.gen_range(0..4u64)
                    } else {
                        rng.gen_range(0..1u64 << 40)
                    };
                    let kind = match rng.gen_range(0..9u32) {
                        0 => EventKind::FlowArrive {
                            job: rng.gen_range(0..4usize),
                            src: rng.gen_range(0..16usize),
                            dst: rng.gen_range(0..16usize),
                            bytes: rng.gen(),
                        },
                        1 => EventKind::FlowStart {
                            flow,
                            job: rng.gen_range(0..4usize),
                            src: rng.gen_range(0..16usize),
                            dst: rng.gen_range(0..16usize),
                            bytes: rng.gen(),
                            path: path(rng),
                        },
                        2 => EventKind::PathSwitch {
                            flow,
                            path: path(rng),
                        },
                        3 => EventKind::TeTick,
                        4 => EventKind::MgrTick,
                        5 => EventKind::End,
                        _ => EventKind::FlowComplete { flow },
                    };
                    QueueOp::Push(SimTime::from_nanos(at), kind)
                })
                .collect()
        })
    }

    /// The reference queue: every event under its `(at, seq)` key, and
    /// each flow's scheduled completion key.
    #[derive(Default)]
    struct ModelQueue {
        events: BTreeMap<(SimTime, u64), EventKind>,
        due: BTreeMap<FlowId, (SimTime, u64)>,
        seq: u64,
    }

    impl ModelQueue {
        fn push(&mut self, at: SimTime, kind: EventKind) {
            self.seq += 1;
            if let EventKind::FlowComplete { flow } = kind {
                self.cancel(flow);
                self.due.insert(flow, (at, self.seq));
            }
            self.events.insert((at, self.seq), kind);
        }

        fn cancel(&mut self, flow: FlowId) {
            if let Some(key) = self.due.remove(&flow) {
                self.events.remove(&key);
            }
        }

        fn pop(&mut self) -> Option<Event> {
            let ((at, seq), kind) = self.events.pop_first()?;
            if let EventKind::FlowComplete { flow } = kind {
                self.due.remove(&flow);
            }
            Some(Event { at, seq, kind })
        }
    }

    /// `pos` and the completion heap describe the same entries, and they
    /// are the model's scheduled completions.
    fn assert_positions_agree(queue: &EventQueue, model: &ModelQueue) {
        for (i, d) in queue.completions.iter().enumerate() {
            assert_eq!(queue.pos[d.flow] as usize, i, "pos of flow {}", d.flow);
        }
        let scheduled: BTreeMap<FlowId, (SimTime, u64)> = queue
            .pos
            .iter()
            .enumerate()
            .filter(|&(_, &i)| i != UNSCHEDULED)
            .map(|(flow, &i)| {
                let d = queue.completions[i as usize];
                assert_eq!(d.flow, flow, "heap entry {i} belongs to flow {flow}");
                (flow, (d.at, d.seq))
            })
            .collect();
        assert_eq!(scheduled, model.due);
    }

    hermes_util::check! {
        #![cases = 256]

        /// The queue pops the same `(at, seq, kind)` sequence as a
        /// `BTreeMap` of whole events keyed by `(at, seq)` in which a
        /// flow's new completion replaces its old one and a cancel drops
        /// it; after every step its position map agrees with its heap.
        fn event_queue_matches_reference_model(ops in queue_ops()) {
            let mut queue = EventQueue::default();
            let mut model = ModelQueue::default();
            for op in ops {
                match op {
                    QueueOp::Push(at, kind) => {
                        model.push(at, kind.clone());
                        queue.push(at, kind);
                    }
                    QueueOp::Cancel(flow) => {
                        model.cancel(flow);
                        queue.cancel(flow);
                    }
                    QueueOp::Pop => assert_eq!(queue.pop(), model.pop()),
                }
                assert_positions_agree(&queue, &model);
            }
            loop {
                let (got, want) = (queue.pop(), model.pop());
                assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
            assert!(queue.completions.is_empty() && queue.others.is_empty());
            assert!(queue.pos.iter().all(|&i| i == UNSCHEDULED), "a drained queue schedules no flow");
        }
    }

    #[test]
    fn isp_flows_via_register_flows() {
        use hermes_workloads::gravity::{flows_from_matrix, TrafficMatrix};
        let topo = Topology::abilene();
        let tm = TrafficMatrix::gravity(11, 2e9, 3);
        let flows = flows_from_matrix(&tm, 2.0, 50e6, 4);
        let mut sim = Varys::new(topo, VarysConfig::default());
        sim.register_flows(&flows, 0);
        sim.run(120.0);
        assert_eq!(sim.metrics.fct_s.len(), flows.len());
    }
}

//! Varys: the flow-level network simulator (§8.1.1).
//!
//! A discrete-event simulation over a [`Topology`], with:
//!
//! * max-min fair bandwidth sharing between events ([`FlowTable`]);
//! * a per-switch TCAM control plane — raw switch, Hermes, Tango, ESPRES
//!   or an ideal zero-latency switch — behind a serial control channel
//!   ([`CpQueue`]);
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
use hermes_fleet::{Fleet, FleetConfig, LaneSched, RebalancePolicy, Rebalancer};
use hermes_rules::prelude::*;
use hermes_tcam::{CrashKind, SimDuration, SimTime, SwitchModel};
use hermes_workloads::facebook::JobSpec;
use hermes_workloads::gravity::TimedFlow;
use hermes_util::rng::rngs::StdRng;
use hermes_util::rng::SeedableRng;
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

    fn build(&self) -> Box<dyn ControlPlane> {
        match self {
            SwitchKind::Ideal => Box::new(RawSwitch::new(SwitchModel::ideal())),
            SwitchKind::Raw(m) => Box::new(RawSwitch::new(m.clone())),
            // INVARIANT: scenario constructors pair each Hermes config
            // with a model that admits it; an infeasible pair is a bug in
            // the experiment definition, not a runtime input.
            SwitchKind::Hermes(m, c) => Box::new(
                HermesPlane::with_config(m.clone(), c.clone()).expect("INVARIANT: feasible Hermes config"),
            ),
            SwitchKind::Tango(m) => Box::new(TangoSwitch::new(m.clone())),
            SwitchKind::Espres(m) => Box::new(EspresSwitch::new(m.clone())),
        }
    }
}

/// A deterministic switch-crash schedule: every `period_s` one switch
/// (seeded pick) suffers a crash, cycling wipe → partial retention →
/// disconnect. Flows crossing the victim are rerouted around it; the
/// switch rejoins once its control plane finishes resyncing.
#[derive(Clone, Debug)]
pub struct CrashProfile {
    /// First crash instant, seconds.
    pub first_s: f64,
    /// Gap between consecutive crashes, seconds.
    pub period_s: f64,
    /// Per-entry survival probability for partial-retention crashes.
    pub survivor_prob: f64,
    /// Reconnect attempts the dead switch rejects before accepting one.
    pub reconnect_denials: u32,
}

impl Default for CrashProfile {
    fn default() -> Self {
        CrashProfile {
            first_s: 0.5,
            period_s: 1.0,
            survivor_prob: 0.5,
            reconnect_denials: 1,
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
    /// Rule-manager tick, seconds (Hermes only).
    pub manager_tick_s: f64,
    /// Proactive flow placement: each flow's path rules are installed when
    /// the flow arrives and the flow starts transmitting once the *last*
    /// switch finishes installing (the paper's proactive SDNApp model — no
    /// packet-in round trip, but rule installation gates the start).
    /// Disabled: flows start instantly on pre-installed routing.
    pub gate_flow_start: bool,
    /// Optional switch-crash schedule (chaos scenarios). `None`: no
    /// crashes, behaviour identical to before the fault domain existed.
    pub crash: Option<CrashProfile>,
    /// Controller worker lanes the switch control channels shard across.
    /// `0` gives every switch a dedicated lane — the historical fully
    /// parallel dispatch; `1` serializes every device op in the fleet
    /// through one driver thread.
    pub lanes: usize,
    /// Lane-scheduling mode for the fleet's worker lanes (phase 2).
    /// `Pinned` is the phase-1 static sharding; with `lanes = 0` every
    /// mode is identical (dedicated lanes have nothing to schedule).
    pub sched: LaneSched,
    /// TE-driven rebalancing policy. `Some`: new-flow placement picks
    /// among candidate paths by member health, and every TE tick may
    /// reroute flows off pressure-hot switches. `None`: placement draws
    /// exactly as before phase 2 existed (same RNG stream).
    pub rebalance: Option<RebalancePolicy>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for VarysConfig {
    fn default() -> Self {
        VarysConfig {
            switch: SwitchKind::Ideal,
            te_interval_s: 1.0,
            congestion_threshold: 0.8,
            max_reroutes_per_tick: 16,
            base_rules_per_switch: 200,
            manager_tick_s: 0.1,
            gate_flow_start: true,
            crash: None,
            lanes: 0,
            sched: LaneSched::Pinned,
            rebalance: None,
            seed: 1,
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
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
        version: u64,
    },
    TeTick,
    MgrTick,
    SwitchCrash {
        index: u64,
    },
    PathSwitch {
        flow: FlowId,
        path: Vec<LinkId>,
    },
    End,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Event {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
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
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
    now: SimTime,
    last_advance: SimTime,
    jobs: BTreeMap<JobId, JobState>,
    /// Per-flow custom rules currently installed: (switch, rule id).
    flow_rules: BTreeMap<FlowId, Vec<(NodeId, RuleId)>>,
    /// Arrival instants of flows still waiting for rule installation.
    flow_arrivals: BTreeMap<FlowId, SimTime>,
    rerouting: BTreeSet<FlowId>,
    /// Switches whose control session is currently dead (crash window
    /// open); pruned on manager ticks once resync completes.
    down: BTreeSet<NodeId>,
    /// TE-driven placement policy (`config.rebalance`); `None` keeps the
    /// phase-1 placement and RNG stream untouched.
    rebalancer: Option<Rebalancer>,
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
    /// is owned by the fleet controller, sharded over `config.lanes`
    /// worker lanes.
    pub fn new(topo: Topology, config: VarysConfig) -> Self {
        let members: Vec<(NodeId, Box<dyn ControlPlane>)> = topo
            .switches()
            .into_iter()
            .map(|sw| (sw, config.switch.build()))
            .collect();
        let fleet = Fleet::new(
            members,
            FleetConfig {
                lanes: config.lanes,
                seed: config.seed,
                sched: config.sched,
                ..FleetConfig::default()
            },
        );
        let rebalancer = config.rebalance.map(Rebalancer::new);
        let rng = StdRng::seed_from_u64(config.seed);
        let mut sim = Varys {
            topo,
            config,
            fleet,
            flows: FlowTable::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            last_advance: SimTime::ZERO,
            jobs: BTreeMap::new(),
            flow_rules: BTreeMap::new(),
            flow_arrivals: BTreeMap::new(),
            rerouting: BTreeSet::new(),
            down: BTreeSet::new(),
            rebalancer,
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

    fn push(&mut self, at: SimTime, kind: EventKind) {
        self.seq += 1;
        self.queue.push(Reverse(Event {
            at,
            seq: self.seq,
            kind,
        }));
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
                self.push(
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
            self.push(
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
        self.push(
            SimTime::from_secs(self.config.te_interval_s),
            EventKind::TeTick,
        );
        self.push(
            SimTime::from_secs(self.config.manager_tick_s),
            EventKind::MgrTick,
        );
        if let Some(profile) = &self.config.crash {
            self.push(
                SimTime::from_secs(profile.first_s),
                EventKind::SwitchCrash { index: 0 },
            );
        }
        self.push(self.end, EventKind::End);

        while let Some(Reverse(ev)) = self.queue.pop() {
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
                EventKind::FlowComplete { flow, version } => self.on_flow_complete(flow, version),
                EventKind::TeTick => self.on_te_tick(),
                EventKind::MgrTick => self.on_mgr_tick(),
                EventKind::SwitchCrash { index } => self.on_switch_crash(index),
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
        let (mut resyncs, mut reinstalled, mut gap_ns) = (0u64, 0u64, 0u64);
        for (_, p) in self.fleet.planes() {
            if let Some(rs) = p.resync_stats() {
                resyncs += rs.resyncs_completed;
                reinstalled += rs.rules_reinstalled;
                gap_ns += rs.guarantee_gap_ns;
            }
        }
        self.metrics.resyncs = resyncs;
        self.metrics.resync_reinstalled = reinstalled;
        self.metrics.guarantee_gap_ns = gap_ns;
        let fs = self.fleet.stats();
        self.metrics.path_txns = fs.txns;
        self.metrics.path_rollbacks = fs.txn_rollbacks;
        self.metrics.lane_steals = fs.steals;
        self.metrics.coalesced_pieces = fs.coalesced_pieces;
        if let Some(rb) = &self.rebalancer {
            self.metrics.rebalance_steers = rb.stats().steered;
        }
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
            let (version, eta) = {
                let f = self.flows.get(id).expect("INVARIANT: allocate_max_min returns ids of live flows");
                let eta = if f.rate_bps > 0.0 {
                    // +2 ns guard: `from_secs` rounds to integer nanoseconds
                    // and rounding *down* would leave a few bytes unfinished
                    // at the event — with no further rate change ever
                    // rescheduling it (observed at 40 Gbps where 1 ns ≈ 5
                    // bytes). Overshooting by 2 ns is harmless: `advance`
                    // clamps remaining at zero.
                    Some(
                        self.now
                            + SimDuration::from_secs(f.remaining_bytes * 8.0 / f.rate_bps)
                            + SimDuration::from_nanos(2),
                    )
                } else {
                    None
                };
                (f.version, eta)
            };
            if let Some(at) = eta {
                self.push(at, EventKind::FlowComplete { flow: id, version });
            }
        }
    }

    /// Does `path` traverse a switch whose control session is down?
    fn crosses_down(&self, src: usize, path: &[LinkId]) -> bool {
        !self.down.is_empty()
            && self
                .topo
                .switches_on_path(src, path)
                .iter()
                .any(|sw| self.down.contains(sw))
    }

    /// Samples a path for a new flow. Without a rebalancer, resamples a
    /// few times to route around switches currently in a crash window
    /// (rules submitted to a dead control session would stall until
    /// resync) and draws exactly one path when no switch is down, so
    /// crash-free phase-1 runs keep the historical RNG stream. With a
    /// rebalancer, placement is health-steered: three candidate draws,
    /// scored by their worst member's pressure ([`Rebalancer::pick_slice`]
    /// — a down or crash-looping switch repels the whole path).
    fn pick_arrival_path(&mut self, src: usize, dst: usize) -> Vec<LinkId> {
        if let Some(rb) = self.rebalancer.as_mut() {
            let mut cands: Vec<Vec<LinkId>> = Vec::with_capacity(3);
            for _ in 0..3 {
                if let Some(cand) = self.topo.random_shortest_path(src, dst, None, &mut self.rng)
                {
                    cands.push(cand);
                }
            }
            if cands.is_empty() {
                return Vec::new();
            }
            let health = self.fleet.member_health(self.now);
            let scores = rb.scores(&health);
            let slices: Vec<Vec<NodeId>> = cands
                .iter()
                .map(|p| self.topo.switches_on_path(src, p))
                .collect();
            let pick = rb.pick_slice(&slices, &scores);
            return cands.swap_remove(pick);
        }
        let mut path = self
            .topo
            .random_shortest_path(src, dst, None, &mut self.rng)
            .unwrap_or_default();
        if !self.down.is_empty() {
            for _ in 0..6 {
                if !self.crosses_down(src, &path) {
                    break;
                }
                match self.topo.random_shortest_path(src, dst, None, &mut self.rng) {
                    Some(cand) => path = cand,
                    None => break,
                }
            }
        }
        path
    }

    /// Injects one scheduled crash: a seeded victim switch suffers the
    /// next fault in the wipe → partial → disconnect cycle, live flows
    /// crossing it are rerouted, and the next crash is scheduled.
    fn on_switch_crash(&mut self, index: u64) {
        let Some(profile) = self.config.crash.clone() else {
            return;
        };
        let switches: Vec<NodeId> = self.fleet.switch_ids();
        if switches.is_empty() {
            return;
        }
        let pick = hermes_util::rng::Rng::gen_range(&mut self.rng, 0..switches.len());
        let victim = switches[pick];
        let kind = match index % 3 {
            0 => CrashKind::Wipe,
            1 => CrashKind::Partial {
                survivor_prob: profile.survivor_prob,
            },
            _ => CrashKind::Disconnect,
        };
        self.fleet.plane_mut(victim).inject_crash(
            kind,
            self.config.seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            profile.reconnect_denials,
            self.now,
        );
        self.metrics.crashes += 1;
        if hermes_telemetry::enabled() {
            hermes_telemetry::counter("netsim.crashes", 1);
        }
        if self.fleet.is_down(victim) {
            self.down.insert(victim);
            // Reroute live flows off the dead switch; data-plane state on
            // the victim is suspect (wipes drop its forwarding entries).
            let affected: Vec<(FlowId, usize, usize, Vec<LinkId>)> = self
                .flows
                .iter()
                .filter(|f| !self.rerouting.contains(&f.id))
                .filter(|f| self.topo.switches_on_path(f.src, &f.path).contains(&victim))
                .map(|f| (f.id, f.src, f.dst, f.path.clone()))
                .collect();
            for (fid, src, dst, old_path) in affected {
                let mut alt = None;
                for _ in 0..6 {
                    let Some(cand) =
                        self.topo.random_shortest_path(src, dst, None, &mut self.rng)
                    else {
                        break;
                    };
                    if cand != old_path
                        && !self.topo.switches_on_path(src, &cand).contains(&victim)
                    {
                        alt = Some(cand);
                        break;
                    }
                }
                // Edge switches have no bypass: a flow whose only path
                // crosses the victim stays put and rides out the window.
                if let Some(path) = alt {
                    self.reroute(fid, src, dst, path);
                }
            }
        }
        self.push(
            self.now + SimDuration::from_secs(profile.period_s),
            EventKind::SwitchCrash { index: index + 1 },
        );
    }

    fn on_flow_arrive(&mut self, job: JobId, src: usize, dst: usize, bytes: u64) {
        let id = self.next_flow;
        self.next_flow += 1;
        let path = self.pick_arrival_path(src, dst);
        if self.config.gate_flow_start {
            // Proactive placement: install the flow's rules along the path;
            // the flow starts once the slowest switch finishes.
            let ready = self.install_path_rules(id, src, dst, &path);
            self.flow_arrivals.insert(id, self.now);
            self.push(
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
        } else {
            self.start_flow(id, job, src, dst, bytes, path);
        }
    }

    fn on_flow_start(
        &mut self,
        flow: FlowId,
        job: JobId,
        src: usize,
        dst: usize,
        bytes: u64,
        path: Vec<LinkId>,
    ) {
        self.start_flow(flow, job, src, dst, bytes, path);
    }

    fn start_flow(
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
        let priority = Priority(200 + (hermes_util::rng::Rng::gen_range(&mut self.rng, 0..1600u32)));
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
                hermes_telemetry::counter("netsim.rule_installs", 1);
                hermes_telemetry::observe("netsim.rit_ns", op.done.since(self.now).as_nanos());
            }
        }
    }

    /// Installs one per-flow rule on every switch along `path` as a
    /// two-phase fleet transaction, recording RIT samples, and returns
    /// the instant the flow may start. If a member inside a crash window
    /// aborts the transaction, the fleet rolls the staged pieces back
    /// everywhere and the install degrades to best-effort per-switch
    /// submissions — the flow still starts once every surviving write
    /// lands (a down member defers the write and lands it after resync),
    /// mirroring how flows rode out crash windows before transactions.
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
                hermes_telemetry::counter("fleet.path_degraded", 1);
            }
            for (sw, rule) in &pieces {
                let (start, bo) = self
                    .fleet
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

    fn on_flow_complete(&mut self, id: FlowId, version: u64) {
        let valid = self
            .flows
            .get(id)
            .map(|f| f.version == version && f.remaining_bytes <= 1.0)
            .unwrap_or(false);
        if !valid {
            return; // stale event
        }
        let flow = self.flows.remove(id).expect("INVARIANT: flow presence validated above");
        let fct = self.now.since(flow.started).as_secs();
        self.metrics.fct_s.push(fct);
        if hermes_telemetry::enabled() {
            hermes_telemetry::counter("netsim.flows_completed", 1);
            hermes_telemetry::observe("netsim.fct_ns", self.now.since(flow.started).as_nanos());
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
                self.fleet.submit(sw, &[ControlAction::Delete(rid)], self.now);
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
        let span = hermes_telemetry::span_enter("netsim", "te_tick", self.now.as_nanos());
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
                let Some(cand) =
                    self.topo
                        .random_shortest_path(src, dst, Some(link), &mut self.rng)
                else {
                    continue;
                };
                if cand == old_path || cand.contains(&link) || self.crosses_down(src, &cand) {
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
        if self.rebalancer.is_some() {
            self.rebalance_pass();
        }
        if hermes_telemetry::enabled() {
            hermes_telemetry::counter("netsim.reroutes", rerouted as u64);
            hermes_telemetry::series(
                "netsim.active_flows",
                self.now.as_nanos(),
                self.flows.len() as f64,
            );
        }
        // The TE pass itself consumes no simulated time; the span still
        // records the tick (and its nesting) in the rollups.
        span.end(self.now.as_nanos());
        let next = self.now + SimDuration::from_secs(self.config.te_interval_s);
        self.push(next, EventKind::TeTick);
    }

    /// TE-driven rebalancing pass (runs on every TE tick when a
    /// [`RebalancePolicy`] is configured): scores the fleet's members,
    /// and for each member the [`Rebalancer`] flags as pressure-hot,
    /// moves the biggest flow crossing it onto a sampled alternate path
    /// that avoids it — the netsim realization of draining rule load off
    /// hot members (the flow's next path transaction lands elsewhere and
    /// its old rules are torn down on switch-over).
    fn rebalance_pass(&mut self) {
        let health = self.fleet.member_health(self.now);
        let Some(rb) = self.rebalancer.as_mut() else {
            return;
        };
        let plan = rb.plan_moves(&health);
        for (hot, _cold) in plan {
            let candidate = self
                .flows
                .iter()
                .filter(|f| !self.rerouting.contains(&f.id))
                .filter(|f| self.topo.switches_on_path(f.src, &f.path).contains(&hot))
                .max_by(|a, b| a.rate_bps.total_cmp(&b.rate_bps))
                .map(|f| (f.id, f.src, f.dst, f.path.clone()));
            let Some((fid, src, dst, old_path)) = candidate else {
                continue;
            };
            let mut alt = None;
            for _ in 0..4 {
                let Some(cand) = self.topo.random_shortest_path(src, dst, None, &mut self.rng)
                else {
                    break;
                };
                if cand != old_path
                    && !self.topo.switches_on_path(src, &cand).contains(&hot)
                    && !self.crosses_down(src, &cand)
                {
                    alt = Some(cand);
                    break;
                }
            }
            let Some(path) = alt else {
                continue;
            };
            self.reroute(fid, src, dst, path);
            self.metrics.rebalance_moves += 1;
            if hermes_telemetry::enabled() {
                hermes_telemetry::counter("netsim.rebalance_moves", 1);
            }
        }
    }

    /// Issues the rule installations for a new path as a two-phase fleet
    /// transaction and schedules the switch-over for when the *last*
    /// switch finishes installing. An aborted transaction (a member
    /// mid-crash failed staging) leaves the flow on its current path and
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
        self.push(
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
        // Do NOT bump the version here: if the reallocation below leaves
        // this flow's rate unchanged, its already-scheduled completion
        // event is still exactly right (bumping would orphan the flow).
        // Any rate that does change is re-versioned and rescheduled by
        // `reallocate_and_reschedule`.
        self.reallocate_and_reschedule();
    }

    fn on_mgr_tick(&mut self) {
        // Ticks every plane (migrations, reconnects) and re-drives any
        // rollback deletes a crash window previously swallowed.
        self.fleet.tick_all(self.now);
        // Ticks drive crashed planes through reconnect + resync; switches
        // whose session came back rejoin the routable set.
        if !self.down.is_empty() {
            let fleet = &self.fleet;
            self.down.retain(|sw| fleet.is_down(*sw));
        }
        let next = self.now + SimDuration::from_secs(self.config.manager_tick_s);
        self.push(next, EventKind::MgrTick);
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
    use hermes_util::json::ToJson;
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
    fn crash_storm_reroutes_and_resyncs() {
        let topo = Topology::fat_tree(4, 10e9);
        let cfg = VarysConfig {
            switch: SwitchKind::Hermes(SwitchModel::pica8_p3290(), HermesConfig::default()),
            congestion_threshold: 0.5,
            base_rules_per_switch: 100,
            crash: Some(CrashProfile {
                first_s: 0.1,
                period_s: 0.25,
                survivor_prob: 0.5,
                reconnect_denials: 1,
            }),
            seed: 3,
            ..Default::default()
        };
        let mut sim = Varys::new(topo, cfg);
        let jobs: Vec<JobSpec> = (0..12)
            .map(|i| JobSpec {
                id: i,
                arrival_s: (i % 4) as f64 * 0.05,
                flows: vec![FlowSpec {
                    src: i % 8,
                    dst: 8 + (i % 8),
                    bytes: 500_000_000,
                }],
            })
            .collect();
        sim.register_jobs(&jobs);
        sim.run(240.0);
        assert_eq!(sim.metrics.fct_s.len(), 12, "flows survive the storm");
        assert!(sim.metrics.crashes > 0, "crashes were injected");
        assert!(
            sim.metrics.resyncs > 0,
            "crashed planes resynced: {} crashes",
            sim.metrics.crashes
        );
        assert!(sim.metrics.resync_reinstalled > 0);
        assert!(sim.metrics.guarantee_gap_ns > 0);
        assert!(sim.down.is_empty(), "every crash window eventually closed");
    }

    #[test]
    fn crashes_on_raw_switches_are_inert() {
        // Raw planes have no fault domain: injections are ignored and the
        // run proceeds exactly as a crash-free one would.
        let topo = Topology::fat_tree(4, 10e9);
        let cfg = VarysConfig {
            switch: SwitchKind::Raw(SwitchModel::pica8_p3290()),
            crash: Some(CrashProfile {
                first_s: 0.05,
                period_s: 0.1,
                ..CrashProfile::default()
            }),
            ..Default::default()
        };
        let mut sim = Varys::new(topo, cfg);
        sim.register_jobs(&tiny_jobs(6));
        sim.run(60.0);
        assert_eq!(sim.metrics.fct_s.len(), 6);
        assert!(sim.metrics.crashes > 0);
        assert_eq!(sim.metrics.resyncs, 0);
        assert!(sim.down.is_empty());
    }

    #[test]
    fn crash_runs_are_deterministic_given_seed() {
        let run = || {
            let topo = Topology::fat_tree(4, 10e9);
            let cfg = VarysConfig {
                switch: SwitchKind::Hermes(SwitchModel::pica8_p3290(), HermesConfig::default()),
                crash: Some(CrashProfile {
                    first_s: 0.05,
                    period_s: 0.2,
                    survivor_prob: 0.4,
                    reconnect_denials: 2,
                }),
                seed: 11,
                ..Default::default()
            };
            let mut sim = Varys::new(topo, cfg);
            let jobs = FacebookWorkload {
                jobs: 20,
                hosts: 16,
                duration_s: 1.5,
                seed: 5,
            }
            .generate();
            sim.register_jobs(&jobs);
            sim.run(120.0);
            (
                sim.metrics.fct_s.values().to_vec(),
                sim.metrics.installs,
                sim.metrics.crashes,
                sim.metrics.resyncs,
                sim.metrics.resync_reinstalled,
                sim.metrics.guarantee_gap_ns,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.2 > 0, "storm actually fired");
    }

    #[test]
    fn degraded_installs_are_counted_apart_from_rollbacks() {
        // An arrival install that aborts on a crashed member degrades to
        // best-effort per-switch submissions; that fallback must land in
        // `path_degraded`, not be folded into `path_rollbacks` (reroute
        // aborts roll back WITHOUT degrading, so the two counters answer
        // different questions).
        let topo = Topology::fat_tree(4, 10e9);
        let cfg = VarysConfig {
            switch: SwitchKind::Hermes(SwitchModel::pica8_p3290(), HermesConfig::default()),
            base_rules_per_switch: 50,
            crash: Some(CrashProfile {
                first_s: 0.02,
                period_s: 0.08,
                survivor_prob: 0.5,
                reconnect_denials: 3,
            }),
            seed: 3,
            ..Default::default()
        };
        let mut sim = Varys::new(topo, cfg);
        // A steady arrival stream across the storm: some arrivals must
        // land on a switch inside a crash window.
        let jobs: Vec<JobSpec> = (0..40)
            .map(|i| JobSpec {
                id: i,
                arrival_s: i as f64 * 0.02,
                flows: vec![FlowSpec {
                    src: i % 8,
                    dst: 8 + (i % 8),
                    bytes: 20_000_000,
                }],
            })
            .collect();
        sim.register_jobs(&jobs);
        sim.run(240.0);
        assert!(sim.metrics.path_degraded > 0, "storm produced degraded installs");
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

    #[test]
    fn rebalancer_steers_and_moves_under_skew() {
        // Same skewed workload twice; the rebalanced run must actually
        // exercise steering (health-ranked candidate picks) and TE-tick
        // moves, and still complete every flow.
        let run = |rebalance: Option<RebalancePolicy>| {
            let topo = Topology::fat_tree(4, 10e9);
            let cfg = VarysConfig {
                switch: SwitchKind::Hermes(SwitchModel::pica8_p3290(), HermesConfig::default()),
                congestion_threshold: 0.5,
                base_rules_per_switch: 100,
                te_interval_s: 0.05,
                rebalance,
                seed: 5,
                ..Default::default()
            };
            let mut sim = Varys::new(topo, cfg);
            // Everything converges on host 15: its edge switch runs hot.
            let jobs: Vec<JobSpec> = (0..16)
                .map(|i| JobSpec {
                    id: i,
                    arrival_s: (i % 4) as f64 * 0.01,
                    flows: vec![FlowSpec {
                        src: i % 12,
                        dst: 15,
                        bytes: 800_000_000,
                    }],
                })
                .collect();
            sim.register_jobs(&jobs);
            sim.run(240.0);
            sim.metrics
        };
        let baseline = run(None);
        let rebalanced = run(Some(RebalancePolicy {
            hot_factor: 1.2,
            ..RebalancePolicy::default()
        }));
        assert_eq!(baseline.fct_s.len(), 16);
        assert_eq!(rebalanced.fct_s.len(), 16, "rebalancing never strands a flow");
        assert_eq!(baseline.rebalance_steers, 0);
        assert_eq!(baseline.rebalance_moves, 0);
        assert!(
            rebalanced.rebalance_steers > 0,
            "skewed load must overrule some default path draws"
        );
        assert!(
            rebalanced.rebalance_moves > 0,
            "the hot edge switch must shed at least one flow"
        );
    }

    #[test]
    fn rebalanced_runs_are_deterministic_given_seed() {
        let run = || {
            let topo = Topology::fat_tree(4, 10e9);
            let cfg = VarysConfig {
                switch: SwitchKind::Hermes(SwitchModel::pica8_p3290(), HermesConfig::default()),
                sched: LaneSched::Weighted,
                lanes: 4,
                rebalance: Some(RebalancePolicy::default()),
                seed: 13,
                ..Default::default()
            };
            let mut sim = Varys::new(topo, cfg);
            let jobs = FacebookWorkload {
                jobs: 20,
                hosts: 16,
                duration_s: 1.5,
                seed: 5,
            }
            .generate();
            sim.register_jobs(&jobs);
            sim.run(120.0);
            sim.metrics.to_json().to_string()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
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

//! The five workloads. Each module exposes `generate(seed, scale)` (inputs
//! are a pure function of the seed; a run generates them once and every
//! repetition reads the same ones), `run_rep` (build fresh state, drive
//! the measured region through a layer's public API, verify outputs) and
//! `probes` (traced runs: the workload's own inputs replayed straight into
//! lower layers).

pub mod batch_resync;
pub mod fleet_storm;
pub mod lookup_mix;
pub mod switch_churn;
pub mod varys_fattree;

use crate::recorder::{Recorder, Sp};
use crate::verify::Check;
use hermes_util::json::Json;
use std::collections::BTreeMap;

/// Workload names, in ledger order. Normative: BENCHMARK.json, the
/// pinned digests and committed ledger rows key on them.
pub const NAMES: [&str; 5] = [
    "switch_churn",
    "batch_resync",
    "lookup_mix",
    "varys_fattree",
    "fleet_storm",
];

/// Size of a run: `Full` is the ledger size, `Smoke` is 1/20 of it (one
/// repetition, every check still on).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Ledger size.
    Full,
    /// 1/20 size.
    Smoke,
}

impl Scale {
    /// Scales a full-size count (never below `floor`).
    pub fn of(self, full: usize, floor: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 20).max(floor),
        }
    }
}

/// Modeled (sim-time) outcome of a repetition — exact per seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Model {
    /// Rule insertions the modeled guarantee applied to.
    pub inserts: u64,
    /// Insertions that missed the configured guarantee.
    pub violations: u64,
    /// Modeled rule-installation times, ns.
    pub rit_ns: Vec<u64>,
}

impl Model {
    /// Violations as a percentage of inserts.
    pub fn violation_pct(&self) -> f64 {
        if self.inserts == 0 {
            0.0
        } else {
            self.violations as f64 * 100.0 / self.inserts as f64
        }
    }

    /// Nearest-rank p99 of the modeled RIT, sim-ms.
    pub fn rit_ms_p99(&self) -> f64 {
        let mut v = self.rit_ns.clone();
        v.sort_unstable();
        if v.is_empty() {
            return 0.0;
        }
        let rank = (0.99 * (v.len() - 1) as f64).round() as usize;
        v[rank] as f64 / 1e6
    }
}

/// What one repetition produced.
#[derive(Clone, Debug, Default)]
pub struct RepOutcome {
    /// Workload ops attempted in the measured region.
    pub ops: u64,
    /// Ops that errored, were refused, rolled back for good, or never
    /// completed — plus every failed output check.
    pub failed: u64,
    /// Host seconds of building and preloading fresh state, up to the
    /// start of the measured region.
    pub setup_s: f64,
    /// Host seconds of the measured region.
    pub measured_s: f64,
    /// Modeled outcome.
    pub model: Model,
    /// Modeled counters that must repeat exactly across reps, sets and
    /// the pinned `expected/<workload>.seed1.json`.
    pub digest: Vec<(&'static str, u64)>,
    /// Output checks.
    pub checks: Vec<Check>,
}

/// The span kinds whose calls are the workload's ops (end-to-end
/// `op_ns_*` are taken over them).
pub fn op_spans(workload: &str) -> &'static [Sp] {
    match workload {
        "switch_churn" => &[Sp::CoreInsert, Sp::CoreDelete, Sp::CoreModify],
        "batch_resync" => &[Sp::CoreBatch, Sp::CoreResync],
        "lookup_mix" => &[Sp::CoreLookup, Sp::CoreInsert, Sp::CoreDelete],
        "varys_fattree" => &[Sp::NetsimRun],
        "fleet_storm" => &[Sp::FleetTxn],
        _ => &[],
    }
}

/// Default fixed repetition count (used when neither `--reps` nor
/// `--seconds` is given).
pub fn default_reps(workload: &str) -> usize {
    if workload == "varys_fattree" {
        3
    } else {
        5
    }
}

/// One workload's generated inputs.
#[derive(Clone, Debug)]
pub enum Input {
    /// `switch_churn`.
    SwitchChurn(switch_churn::Input),
    /// `batch_resync`.
    BatchResync(batch_resync::Input),
    /// `lookup_mix`.
    LookupMix(lookup_mix::Input),
    /// `varys_fattree`.
    VarysFattree(varys_fattree::Input),
    /// `fleet_storm`.
    FleetStorm(fleet_storm::Input),
}

/// Generates the named workload's inputs.
pub fn generate(workload: &str, seed: u64, scale: Scale) -> Option<Input> {
    Some(match workload {
        "switch_churn" => Input::SwitchChurn(switch_churn::generate(seed, scale)),
        "batch_resync" => Input::BatchResync(batch_resync::generate(seed, scale)),
        "lookup_mix" => Input::LookupMix(lookup_mix::generate(seed, scale)),
        "varys_fattree" => Input::VarysFattree(varys_fattree::generate(seed, scale)),
        "fleet_storm" => Input::FleetStorm(fleet_storm::generate(seed, scale)),
        _ => return None,
    })
}

/// Runs one repetition on the given inputs.
pub fn run_rep(input: &Input, rec: &mut Recorder) -> RepOutcome {
    match input {
        Input::SwitchChurn(i) => switch_churn::run_rep(i, rec),
        Input::BatchResync(i) => batch_resync::run_rep(i, rec),
        Input::LookupMix(i) => lookup_mix::run_rep(i, rec),
        Input::VarysFattree(i) => varys_fattree::run_rep(i, rec),
        Input::FleetStorm(i) => fleet_storm::run_rep(i, rec),
    }
}

/// Runs the named workload's probes (traced runs only): the workload's
/// own inputs replayed straight into lower layers' public functions.
///
/// `snapshot` is the last traced repetition's telemetry: a probe may size
/// itself from what the run observed (e.g. active-flow counts).
pub fn probes(
    workload: &str,
    seed: u64,
    scale: Scale,
    snapshot: &Json,
) -> BTreeMap<&'static str, f64> {
    match workload {
        "switch_churn" => switch_churn::probes(seed, scale),
        "batch_resync" => batch_resync::probes(seed, scale),
        "lookup_mix" => lookup_mix::probes(seed, scale),
        "varys_fattree" => varys_fattree::probes(seed, scale, snapshot),
        "fleet_storm" => fleet_storm::probes(seed, scale),
        _ => BTreeMap::new(),
    }
}

/// Digest of the named workload's generated inputs (determinism tests).
pub fn input_digest(workload: &str, seed: u64, scale: Scale) -> Option<u64> {
    Some(match generate(workload, seed, scale)? {
        Input::SwitchChurn(i) => i.digest(),
        Input::BatchResync(i) => i.digest(),
        Input::LookupMix(i) => i.digest(),
        Input::VarysFattree(i) => i.digest(),
        Input::FleetStorm(i) => i.digest(),
    })
}

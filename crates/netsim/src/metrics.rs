//! Evaluation metrics (§8.1.2): rule installation time (RIT), flow
//! completion time (FCT), job completion time (JCT), plus CDF helpers for
//! rendering the paper's figures.

use hermes_util::json::{Json, ToJson};

/// An empirical distribution of latency/duration samples.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` with no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            hermes_util::stats::sort_samples(&mut self.values);
            self.sorted = true;
        }
    }

    /// The p-quantile (`0.0 ..= 1.0`) by nearest-rank (shared estimator,
    /// [`hermes_util::stats::quantile_sorted`]).
    pub fn percentile(&mut self, p: f64) -> f64 {
        self.ensure_sorted();
        hermes_util::stats::quantile_sorted(&self.values, p)
    }

    /// Median.
    pub fn median(&mut self) -> f64 {
        self.percentile(0.5)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Maximum.
    pub fn max(&mut self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.ensure_sorted();
        *self.values.last().expect("INVARIANT: emptiness checked at function entry")
    }

    /// Renders the CDF as `points` (value, cumulative-fraction) pairs —
    /// the series plotted in the paper's CDF figures.
    pub fn cdf(&mut self, points: usize) -> Vec<(f64, f64)> {
        if self.values.is_empty() {
            return Vec::new();
        }
        self.ensure_sorted();
        let n = self.values.len();
        (1..=points)
            .map(|i| {
                let frac = i as f64 / points as f64;
                let idx = ((frac * n as f64).ceil() as usize).clamp(1, n) - 1;
                (self.values[idx], frac)
            })
            .collect()
    }

    /// Fraction of samples at or below `x`.
    pub fn fraction_below(&mut self, x: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.ensure_sorted();
        let idx = self.values.partition_point(|&v| v <= x);
        idx as f64 / self.values.len() as f64
    }

    /// Raw samples (unsorted order not guaranteed).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl ToJson for Samples {
    /// Serializes as the raw value array (insertion order), so two
    /// identically-seeded runs produce byte-identical documents.
    fn to_json(&self) -> Json {
        self.values.to_json()
    }
}

/// The metric bundle a simulation run produces.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// Rule installation times, ms.
    pub rit_ms: Samples,
    /// Flow completion times, seconds.
    pub fct_s: Samples,
    /// Job completion times, seconds.
    pub jct_s: Samples,
    /// Short-job JCTs, seconds (paper's <1 GB split).
    pub jct_short_s: Samples,
    /// Long-job JCTs, seconds.
    pub jct_long_s: Samples,
    /// Short-flow FCTs, seconds.
    pub fct_short_s: Samples,
    /// Guarantee violations observed.
    pub violations: u64,
    /// Total rule installations.
    pub installs: u64,
    /// Migrations performed (Hermes only).
    pub migrations: u64,
    /// Device ops retried after transient control-channel failures
    /// (Hermes only; 0 without a fault plan).
    pub device_retries: u64,
    /// Device ops that exhausted their retry budget.
    pub device_failures: u64,
    /// Divergences found and repaired by reconciliation audits.
    pub audit_diffs: u64,
    /// Total simulated time the control planes spent in degraded mode, ms.
    pub degraded_ms: f64,
    /// Two-phase path-install transactions driven through the fleet.
    pub path_txns: u64,
    /// Path transactions rolled back because a member failed staging.
    pub path_rollbacks: u64,
    /// Aborted arrival installs that degraded to best-effort per-switch
    /// submissions (the flow's rules went out without atomicity cover —
    /// a distinct health signal from the rollback itself).
    pub path_degraded: u64,
    /// Path-transaction pieces that rode a shared per-member cut instead
    /// of their own submit.
    pub coalesced_pieces: u64,
}

impl ToJson for RunMetrics {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rit_ms", self.rit_ms.to_json()),
            ("fct_s", self.fct_s.to_json()),
            ("jct_s", self.jct_s.to_json()),
            ("jct_short_s", self.jct_short_s.to_json()),
            ("jct_long_s", self.jct_long_s.to_json()),
            ("fct_short_s", self.fct_short_s.to_json()),
            ("violations", self.violations.to_json()),
            ("installs", self.installs.to_json()),
            ("migrations", self.migrations.to_json()),
            ("device_retries", self.device_retries.to_json()),
            ("device_failures", self.device_failures.to_json()),
            ("audit_diffs", self.audit_diffs.to_json()),
            ("degraded_ms", self.degraded_ms.to_json()),
            ("path_txns", self.path_txns.to_json()),
            ("path_rollbacks", self.path_rollbacks.to_json()),
            ("path_degraded", self.path_degraded.to_json()),
            ("coalesced_pieces", self.coalesced_pieces.to_json()),
        ])
    }
}

/// Median improvement of `ours` over `baseline` as a fraction (the "%
/// improvement" numbers quoted in §8.2), computed on medians.
pub fn median_improvement(baseline: &mut Samples, ours: &mut Samples) -> f64 {
    let b = baseline.median();
    let o = ours.median();
    if b <= 0.0 || !b.is_finite() {
        return 0.0;
    }
    (b - o) / b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(vals: &[f64]) -> Samples {
        let mut s = Samples::new();
        for &v in vals {
            s.push(v);
        }
        s
    }

    #[test]
    fn percentiles() {
        let mut s = samples(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(1.0), 5.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn empty_is_nan() {
        let mut s = Samples::new();
        assert!(s.median().is_nan());
        assert!(s.mean().is_nan());
        assert!(s.cdf(10).is_empty());
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_max() {
        let mut s = samples(&[1.0, 10.0, 100.0, 2.0, 5.0, 7.0]);
        let cdf = s.cdf(20);
        assert_eq!(cdf.len(), 20);
        for w in cdf.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(cdf.last().unwrap().0, 100.0);
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }

    #[test]
    fn fraction_below() {
        let mut s = samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.fraction_below(2.5), 0.5);
        assert_eq!(s.fraction_below(0.5), 0.0);
        assert_eq!(s.fraction_below(10.0), 1.0);
    }

    #[test]
    fn improvement() {
        let mut base = samples(&[10.0, 10.0, 10.0]);
        let mut ours = samples(&[2.0, 2.0, 2.0]);
        assert!((median_improvement(&mut base, &mut ours) - 0.8).abs() < 1e-12);
    }
}

//! Median-of-reps and percentile summaries, on the workspace's one
//! nearest-rank estimator ([`hermes_util::stats`]) so a latency quoted here
//! means what the same latency means in a micro-bench or a netsim report.

use hermes_util::json::Json;
use hermes_util::stats::{quantile_sorted, sort_samples};

/// Median and quartiles of one metric across repetitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    /// Nearest-rank median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Quartiles {
    /// Summarises samples (any order). Empty input yields NaNs with `n = 0`.
    pub fn of(samples: &[f64]) -> Quartiles {
        let mut v = samples.to_vec();
        sort_samples(&mut v);
        Quartiles {
            median: quantile_sorted(&v, 0.5),
            q1: quantile_sorted(&v, 0.25),
            q3: quantile_sorted(&v, 0.75),
            n: v.len(),
        }
    }

    /// Interquartile distance as a share of the median (0 for a zero or
    /// missing median: an exact metric has no spread).
    pub fn spread(&self) -> f64 {
        if self.n == 0 || self.median == 0.0 || !self.median.is_finite() {
            0.0
        } else {
            ((self.q3 - self.q1) / self.median).abs()
        }
    }

    /// `{"median":…,"q1":…,"q3":…,"n":…}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("n", Json::Int(self.n as i128)),
        ])
    }

    /// Reads back [`to_json`](Self::to_json).
    pub fn from_json(j: &Json) -> Option<Quartiles> {
        Some(Quartiles {
            median: j.get("median")?.as_f64().unwrap_or(f64::NAN),
            q1: j.get("q1")?.as_f64().unwrap_or(f64::NAN),
            q3: j.get("q3")?.as_f64().unwrap_or(f64::NAN),
            n: j.get("n")?.as_f64()? as usize,
        })
    }
}

/// Nearest-rank `p`-quantile of unsorted samples (NaN when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    sort_samples(&mut v);
    quantile_sorted(&v, p)
}

/// Median of unsorted samples (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

//! The metrics registry: counters, gauges, log-linear histograms and
//! bounded time series.
//!
//! All metric names are `&'static str` in `<subsystem>.<metric>` form
//! (DESIGN.md "Observability"); the registry keeps them in `BTreeMap`s so
//! every export is deterministically ordered. Histogram values are plain
//! `u64`s — by convention nanoseconds for latency metrics (suffix `_ns`),
//! raw counts otherwise.

use hermes_util::json::{Json, ToJson};
use std::collections::BTreeMap;

/// Number of linear sub-buckets per power-of-two octave (8 ⇒ ≤ 12.5%
/// relative bucket width — plenty for latency distributions).
const SUB_BUCKETS: u64 = 8;

/// A log-linear histogram over `u64` values.
///
/// Values below 8 get exact singleton buckets; above that, each power-of-two
/// octave `[2^k, 2^(k+1))` splits into 8 linear sub-buckets.
/// The scheme covers the full `u64` range (1 ns to far past one second)
/// with at most 496 buckets, allocated lazily.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Bucket index for a value (monotone in `v`).
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        let k = 63 - v.leading_zeros() as u64; // most significant bit
        (SUB_BUCKETS * k - 3 * SUB_BUCKETS + (v >> (k - 3))) as usize
    }
}

/// Inclusive lower bound of a bucket (inverse of [`bucket_index`]).
fn bucket_lower(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB_BUCKETS {
        idx
    } else {
        let k = (idx + 2 * SUB_BUCKETS) / SUB_BUCKETS;
        let sub = idx + 3 * SUB_BUCKETS - SUB_BUCKETS * k;
        sub << (k - 3)
    }
}

impl Histogram {
    /// Records one value.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += u128::from(v);
    }

    /// Nearest-rank p-quantile, resolved to the lower bound of the bucket
    /// holding that rank (0 when empty).
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (p.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen > rank {
                return bucket_lower(i).max(self.min).min(self.max);
            }
        }
        self.max
    }
}

impl ToJson for Histogram {
    /// Schema-stable export: summary fields plus the sparse
    /// `[lower_bound, count]` bucket list in ascending order.
    fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Json::Arr(vec![bucket_lower(i).to_json(), c.to_json()]))
            .collect();
        Json::obj([
            ("count", self.count.to_json()),
            ("sum", Json::Int(self.sum as i128)),
            ("min", self.min.to_json()),
            ("max", self.max.to_json()),
            ("p50", self.quantile(0.50).to_json()),
            ("p95", self.quantile(0.95).to_json()),
            ("p99", self.quantile(0.99).to_json()),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

/// A bounded `(t_ns, value)` time series kept as a ring buffer: the most
/// recent `cap` points survive, older ones are counted in `dropped`.
#[derive(Clone, Debug)]
pub struct Series {
    cap: usize,
    points: Vec<(u64, f64)>,
    head: usize,
    dropped: u64,
}

impl Series {
    /// An empty series bounded at `cap` points.
    pub fn new(cap: usize) -> Self {
        Series {
            cap: cap.max(1),
            points: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// Appends a point, evicting the oldest when full.
    pub fn push(&mut self, t_ns: u64, value: f64) {
        if self.points.len() < self.cap {
            self.points.push((t_ns, value));
        } else {
            self.points[self.head] = (t_ns, value);
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Points in chronological order.
    pub fn points(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::with_capacity(self.points.len());
        out.extend_from_slice(&self.points[self.head..]);
        out.extend_from_slice(&self.points[..self.head]);
        out
    }
}

impl ToJson for Series {
    fn to_json(&self) -> Json {
        let pts: Vec<Json> = self
            .points()
            .into_iter()
            .map(|(t, v)| Json::Arr(vec![t.to_json(), v.to_json()]))
            .collect();
        Json::obj([
            ("dropped", self.dropped.to_json()),
            ("points", Json::Arr(pts)),
        ])
    }
}

/// The per-thread metric store (see the crate root for the recording API).
#[derive(Debug, Default)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    series: BTreeMap<&'static str, Series>,
}

impl Registry {
    /// Bound on each time series.
    pub const SERIES_CAP: usize = 4096;

    /// Adds to a counter.
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Sets a gauge to its latest value.
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Records a value into a histogram.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// Appends a time-series point.
    pub fn series_push(&mut self, name: &'static str, t_ns: u64, value: f64) {
        self.series
            .entry(name)
            .or_insert_with(|| Series::new(Self::SERIES_CAP))
            .push(t_ns, value);
    }

    /// Deterministic JSON snapshot: four name-sorted maps.
    pub fn to_json_parts(&self) -> (Json, Json, Json, Json) {
        (
            Json::obj(self.counters.iter().map(|(k, v)| (*k, v.to_json()))),
            Json::obj(self.gauges.iter().map(|(k, v)| (*k, v.to_json()))),
            Json::obj(self.histograms.iter().map(|(k, v)| (*k, v.to_json()))),
            Json::obj(self.series.iter().map(|(k, v)| (*k, v.to_json()))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_inverts() {
        let mut last = None;
        for v in (0..4096u64).chain([1 << 20, 1_000_000_007, 1 << 30, u64::MAX]) {
            let idx = bucket_index(v);
            if let Some((pv, pidx)) = last {
                assert!(idx >= pidx, "index not monotone at {pv} -> {v}");
            }
            let lower = bucket_lower(idx);
            assert!(lower <= v, "lower bound {lower} above value {v}");
            // The top bucket has no successor (its upper edge is 2^64).
            if idx < bucket_index(u64::MAX) {
                assert!(bucket_lower(idx + 1) > v, "value {v} not below next bucket");
            }
            last = Some((v, idx));
        }
    }

    #[test]
    fn histogram_summary_and_quantiles() {
        let mut h = Histogram::default();
        for v in [100u64, 200, 300, 400, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 101_000);
        // Nearest-rank p50 of 5 values is the 3rd; bucket lower bound of
        // 300 in the log-linear scheme is ≤ 300 and > 200.
        let p50 = h.quantile(0.5);
        assert!(p50 > 200 && p50 <= 300, "p50 {p50}");
        assert!(h.quantile(1.0) >= 96 * 1024 / 2);
        assert_eq!(h.quantile(0.0), 100);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.to_json().get("count").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn series_ring_keeps_most_recent() {
        let mut s = Series::new(3);
        for i in 0..5u64 {
            s.push(i, i as f64);
        }
        assert_eq!(s.dropped, 2);
        assert_eq!(
            s.points(),
            vec![(2, 2.0), (3, 3.0), (4, 4.0)],
            "chronological order, oldest evicted"
        );
    }

    #[test]
    fn registry_export_is_sorted() {
        let mut r = Registry::default();
        r.counter_add("z.second", 2);
        r.counter_add("a.first", 1);
        let (counters, _, _, _) = r.to_json_parts();
        assert_eq!(counters.to_string(), "{\"a.first\":1,\"z.second\":2}");
    }
}

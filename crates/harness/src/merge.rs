//! Merging per-repetition `BENCH_*.json` reports into one scenario view.
//!
//! Counters are kept per repetition (in rep order) and summarized with
//! nearest-rank percentiles; a scenario whose counters are identical
//! across repetitions is flagged `equal_across_reps` — the property the
//! counter-exact perf tier relies on. Histograms merge by summing their
//! sparse `[lower_bound, count]` bucket lists, so merged quantiles come
//! from the union distribution, not from averaging per-rep quantiles.

use hermes_util::json::Json;
use std::collections::BTreeMap;

/// A log-linear histogram reassembled from one or more report documents.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MergedHistogram {
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: i128,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Bucket lower bound → summed count.
    pub buckets: BTreeMap<u64, u64>,
}

impl MergedHistogram {
    /// Folds one report histogram (the `hermes-bench-report/1` shape:
    /// `{count, sum, min, max, …, buckets: [[lower, n], …]}`) in.
    pub fn absorb(&mut self, h: &Json) -> Result<(), String> {
        let num = |key: &str| -> Result<f64, String> {
            h.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("histogram missing numeric {key:?}"))
        };
        let count = num("count")? as u64;
        if count == 0 {
            return Ok(());
        }
        let (min, max) = (num("min")? as u64, num("max")? as u64);
        self.min = if self.count == 0 {
            min
        } else {
            self.min.min(min)
        };
        self.max = self.max.max(max);
        self.count += count;
        self.sum += num("sum")? as i128;
        let buckets = h
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or_else(|| "histogram missing buckets".to_string())?;
        for b in buckets {
            let pair = b.as_arr().filter(|p| p.len() == 2);
            let (lower, n) = match pair {
                Some(p) => match (p[0].as_f64(), p[1].as_f64()) {
                    (Some(l), Some(n)) => (l as u64, n as u64),
                    _ => return Err("non-numeric histogram bucket".into()),
                },
                None => return Err("malformed histogram bucket".into()),
            };
            *self.buckets.entry(lower).or_insert(0) += n;
        }
        Ok(())
    }

    /// Nearest-rank quantile over the merged buckets, clamped to the
    /// observed `[min, max]` (mirrors the telemetry histogram).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            // The top rank is the recorded maximum, which is tracked
            // exactly — no need to settle for its bucket's lower bound.
            return self.max;
        }
        let mut seen = 0u64;
        for (&lower, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return lower.max(self.min).min(self.max);
            }
        }
        self.max
    }
}

/// The merged, deterministic view of one scenario's repetitions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MergedScenario {
    /// Counter name → value per repetition, in rep order.
    pub counters: BTreeMap<String, Vec<i64>>,
    /// Histogram name → merged histogram.
    pub histograms: BTreeMap<String, MergedHistogram>,
    /// Reports folded in.
    pub reports: u64,
}

impl MergedScenario {
    /// Folds one parsed `hermes-bench-report/1` document in. Reports must
    /// be appended in repetition order.
    pub fn absorb(&mut self, doc: &Json) -> Result<(), String> {
        let schema = doc.get("schema").and_then(Json::as_str);
        if schema != Some("hermes-bench-report/1") {
            return Err(format!(
                "unsupported report schema {:?} (want hermes-bench-report/1)",
                schema.unwrap_or("<missing>")
            ));
        }
        let Some(Json::Obj(counters)) = doc.get("counters") else {
            return Err("report has no counters object".into());
        };
        for (name, v) in counters {
            let value = v
                .as_f64()
                .ok_or_else(|| format!("counter {name:?} is not numeric"))?;
            self.counters
                .entry(name.clone())
                .or_default()
                .push(value as i64);
        }
        let Some(Json::Obj(histograms)) = doc.get("histograms") else {
            return Err("report has no histograms object".into());
        };
        for (name, h) in histograms {
            self.histograms
                .entry(name.clone())
                .or_default()
                .absorb(h)
                .map_err(|e| format!("histogram {name:?}: {e}"))?;
        }
        self.reports += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_util::json::ToJson;

    fn hist(count: u64, sum: i64, min: u64, max: u64, buckets: &[(u64, u64)]) -> Json {
        Json::obj([
            ("count", count.to_json()),
            ("sum", Json::Int(sum as i128)),
            ("min", min.to_json()),
            ("max", max.to_json()),
            (
                "buckets",
                Json::Arr(
                    buckets
                        .iter()
                        .map(|&(l, n)| Json::Arr(vec![l.to_json(), n.to_json()]))
                        .collect(),
                ),
            ),
        ])
    }

    fn report(counters: &[(&str, i64)], histograms: &[(&str, Json)]) -> Json {
        Json::obj([
            ("schema", "hermes-bench-report/1".to_json()),
            (
                "counters",
                Json::obj(counters.iter().map(|&(k, v)| (k, Json::Int(v as i128)))),
            ),
            (
                "histograms",
                Json::obj(histograms.iter().map(|(k, v)| (*k, v.clone()))),
            ),
        ])
    }

    #[test]
    fn counters_collect_in_rep_order() {
        let mut m = MergedScenario::default();
        m.absorb(&report(&[("a", 10), ("b", 1)], &[])).unwrap();
        m.absorb(&report(&[("a", 12)], &[])).unwrap();
        assert_eq!(m.counters["a"], vec![10, 12]);
        assert_eq!(m.counters["b"], vec![1]);
        assert_eq!(m.reports, 2);
    }

    #[test]
    fn histograms_merge_by_bucket_sum() {
        let mut m = MergedScenario::default();
        let h1 = hist(3, 60, 10, 30, &[(8, 2), (24, 1)]);
        let h2 = hist(2, 50, 20, 30, &[(16, 1), (24, 1)]);
        m.absorb(&report(&[], &[("lat", h1)])).unwrap();
        m.absorb(&report(&[], &[("lat", h2)])).unwrap();
        let merged = &m.histograms["lat"];
        assert_eq!(merged.count, 5);
        assert_eq!(merged.sum, 110);
        assert_eq!((merged.min, merged.max), (10, 30));
        assert_eq!(merged.buckets[&24], 2);
        // Nearest-rank p50 of 5 values: rank 3 → second bucket (16),
        // clamped into [min, max].
        assert_eq!(merged.quantile(0.5), 16);
        assert_eq!(merged.quantile(1.0), 30);
        assert_eq!(merged.quantile(0.0), 10);
    }

    #[test]
    fn empty_histogram_reports_are_no_ops() {
        let mut m = MergedScenario::default();
        m.absorb(&report(&[], &[("lat", hist(0, 0, 0, 0, &[]))]))
            .unwrap();
        assert_eq!(m.histograms["lat"].count, 0);
        assert_eq!(m.histograms["lat"].quantile(0.5), 0);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let mut m = MergedScenario::default();
        let mut doc = report(&[], &[]);
        if let Json::Obj(pairs) = &mut doc {
            pairs[0].1 = "hermes-bench-report/9".to_json();
        }
        let e = m.absorb(&doc).unwrap_err();
        assert!(e.contains("unsupported report schema"), "{e}");
    }

    #[test]
    fn malformed_buckets_are_rejected() {
        let mut m = MergedScenario::default();
        let bad = Json::obj([
            ("count", 1u64.to_json()),
            ("sum", Json::Int(1)),
            ("min", 1u64.to_json()),
            ("max", 1u64.to_json()),
            ("buckets", Json::Arr(vec![Json::Str("x".into())])),
        ]);
        let e = m.absorb(&report(&[], &[("lat", bad)])).unwrap_err();
        assert!(e.contains("malformed histogram bucket"), "{e}");
    }
}

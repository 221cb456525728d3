//! Shared sample statistics: the workspace's one nearest-rank quantile.
//!
//! The scenario harness, the perf ledger and the netsim metric
//! distributions all compute percentiles; they must agree on the
//! estimator (nearest rank over `n` samples: index `round(p·(n−1))`) so a
//! latency quoted by a host-time report and by a simulation summary mean
//! the same thing.

/// Sorts samples into the total order quantile queries expect (`NaN`s
/// sort last, so they only surface at the extreme upper quantiles).
pub fn sort_samples(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// The nearest-rank p-quantile of a slice already ordered by
/// [`sort_samples`]. `p` is clamped to `[0, 1]`; an empty slice yields
/// `NaN`.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_yields_nan() {
        assert!(quantile_sorted(&[], 0.5).is_nan());
        assert!(quantile_sorted(&[], 0.0).is_nan());
    }

    #[test]
    fn single_sample_answers_every_quantile() {
        for p in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(quantile_sorted(&[42.0], p), 42.0);
        }
    }

    #[test]
    fn nearest_rank_on_five() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        sort_samples(&mut v);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 0.5), 3.0);
        assert_eq!(quantile_sorted(&v, 1.0), 5.0);
        // Out-of-range p clamps rather than panicking.
        assert_eq!(quantile_sorted(&v, -1.0), 1.0);
        assert_eq!(quantile_sorted(&v, 2.0), 5.0);
    }

    #[test]
    fn nans_sort_last_and_stay_contained() {
        let mut v = vec![2.0, f64::NAN, 1.0];
        sort_samples(&mut v);
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], 2.0);
        assert!(v[2].is_nan());
        // Mid quantiles are unaffected by the NaN tail…
        assert_eq!(quantile_sorted(&v, 0.5), 2.0);
        // …and only the extreme upper quantile surfaces it.
        assert!(quantile_sorted(&v, 1.0).is_nan());
    }

    #[test]
    fn negative_zero_orders_before_positive_zero() {
        let mut v = vec![0.0, -0.0];
        sort_samples(&mut v);
        assert!(v[0].is_sign_negative() && v[1].is_sign_positive());
    }
}

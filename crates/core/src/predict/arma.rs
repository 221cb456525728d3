//! Autoregressive moving-average predictor \[63\].
//!
//! A pragmatic ARMA(p, q≤1) over a sliding window: the AR coefficients are
//! re-fit on every prediction via Yule–Walker (Levinson–Durbin recursion on
//! the sample autocovariances), and the MA component is approximated by a
//! lag-1 residual correction with a moment-estimated θ. This matches how
//! ARMA is typically deployed for online rate prediction — a full MLE fit
//! per interval would dwarf the cost of the migration it schedules.

use super::Predictor;
use std::collections::VecDeque;

/// ARMA predictor over a sliding window.
#[derive(Clone, Debug)]
pub struct Arma {
    p: usize,
    q: usize,
    window: VecDeque<f64>,
    cap: usize,
}

impl Arma {
    /// Creates an ARMA(p, q) predictor with the given window capacity.
    ///
    /// # Panics
    /// Panics when `p == 0`, `q > 1`, or the window cannot hold `p + 2`
    /// points.
    pub fn new(p: usize, q: usize, window: usize) -> Self {
        assert!(p >= 1, "AR order must be >= 1");
        assert!(q <= 1, "only MA order 0 or 1 is supported");
        assert!(window >= p + 2, "window {window} too small for AR({p})");
        Arma {
            p,
            q,
            window: VecDeque::with_capacity(window + 1),
            cap: window,
        }
    }

    /// Sample autocovariance at lag `k` of mean-removed data.
    fn autocov(y: &[f64], mean: f64, k: usize) -> f64 {
        let n = y.len();
        (0..n - k)
            .map(|i| (y[i] - mean) * (y[i + k] - mean))
            .sum::<f64>()
            / n as f64
    }

    /// Levinson–Durbin recursion: AR(p) coefficients from autocovariances
    /// `r[0..=p]`. Returns `phi[1..=p]` as a vector of length `p`.
    fn levinson_durbin(r: &[f64], p: usize) -> Vec<f64> {
        let mut phi = vec![0.0; p + 1];
        let mut prev = vec![0.0; p + 1];
        let mut e = r[0];
        if e.abs() < 1e-12 {
            return vec![0.0; p];
        }
        for k in 1..=p {
            let mut acc = r[k];
            for j in 1..k {
                acc -= prev[j] * r[k - j];
            }
            let kappa = acc / e;
            phi[k] = kappa;
            for j in 1..k {
                phi[j] = prev[j] - kappa * prev[k - j];
            }
            e *= 1.0 - kappa * kappa;
            if e <= 1e-12 {
                e = 1e-12;
            }
            prev[..=k].copy_from_slice(&phi[..=k]);
        }
        phi[1..=p].to_vec()
    }

    /// One-step AR prediction at position `t` (uses `y[t-1]`, …, `y[t-p]`),
    /// in mean-removed space.
    fn ar_pred(y: &[f64], mean: f64, phi: &[f64], t: usize) -> f64 {
        phi.iter()
            .enumerate()
            .map(|(i, &c)| c * (y[t - 1 - i] - mean))
            .sum::<f64>()
    }
}

impl Predictor for Arma {
    fn observe(&mut self, value: f64) {
        self.window.push_back(value);
        while self.window.len() > self.cap {
            self.window.pop_front();
        }
    }

    fn predict(&self) -> f64 {
        let y: Vec<f64> = self.window.iter().copied().collect();
        let n = y.len();
        if n == 0 {
            return 0.0;
        }
        if n < self.p + 2 {
            return y[n - 1].max(0.0);
        }
        let mean = y.iter().sum::<f64>() / n as f64;
        let r: Vec<f64> = (0..=self.p).map(|k| Self::autocov(&y, mean, k)).collect();
        if r[0].abs() < 1e-12 {
            // Constant series.
            return mean.max(0.0);
        }
        let phi = Self::levinson_durbin(&r, self.p);
        let mut pred = mean + Self::ar_pred(&y, mean, &phi, n);

        if self.q == 1 && n > self.p + 2 {
            // Residuals of the fitted AR over the window.
            let resid: Vec<f64> = (self.p..n)
                .map(|t| (y[t] - mean) - Self::ar_pred(&y, mean, &phi, t))
                .collect();
            if resid.len() >= 3 {
                let rn = resid.len() as f64;
                let var = resid.iter().map(|e| e * e).sum::<f64>() / rn;
                if var > 1e-12 {
                    let cov1 = resid.windows(2).map(|w| w[0] * w[1]).sum::<f64>() / rn;
                    // Moment estimate of θ from lag-1 residual correlation,
                    // clamped for invertibility.
                    let theta = (cov1 / var).clamp(-0.9, 0.9);
                    pred += theta * resid[resid.len() - 1];
                }
            }
        }
        pred.max(0.0)
    }

    fn name(&self) -> &'static str {
        "ARMA"
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests pin streams by literal seed"
)]
mod tests {
    use super::*;

    #[test]
    fn empty_predicts_zero() {
        let a = Arma::new(2, 1, 16);
        assert_eq!(a.predict(), 0.0);
    }

    #[test]
    fn short_history_repeats_last() {
        let mut a = Arma::new(2, 1, 16);
        a.observe(4.0);
        a.observe(6.0);
        assert_eq!(a.predict(), 6.0);
    }

    #[test]
    fn constant_series_predicted() {
        let mut a = Arma::new(2, 1, 16);
        for _ in 0..16 {
            a.observe(20.0);
        }
        assert!((a.predict() - 20.0).abs() < 1e-6);
    }

    #[test]
    fn ar1_process_learned() {
        // Mean-reverting AR(1): y_{t+1} = μ + 0.8 (y_t − μ), μ = 50.
        let mut a = Arma::new(1, 0, 32);
        let mu = 50.0;
        let mut v = 100.0;
        for _ in 0..32 {
            a.observe(v);
            v = mu + 0.8 * (v - mu);
        }
        // The series has essentially converged to μ; the prediction must
        // land near it rather than near the early transient.
        let pred = a.predict();
        assert!((pred - v).abs() < 5.0, "pred {pred} vs truth {v}");
    }

    #[test]
    fn levinson_recovers_ar1_coefficient() {
        // For an AR(1) with coefficient φ, autocovariances satisfy
        // r[k] = φ^k r[0].
        let r = [1.0, 0.7, 0.49];
        let phi = Arma::levinson_durbin(&r, 1);
        assert!((phi[0] - 0.7).abs() < 1e-9);
        let phi2 = Arma::levinson_durbin(&r, 2);
        assert!((phi2[0] - 0.7).abs() < 1e-9);
        assert!(
            phi2[1].abs() < 1e-9,
            "AR(2) second coef should vanish: {}",
            phi2[1]
        );
    }

    #[test]
    fn prediction_is_finite_on_noisy_input() {
        use hermes_util::rng::{Rng, SeedableRng};
        let mut rng = hermes_util::rng::rngs::StdRng::seed_from_u64(5);
        let mut a = Arma::new(2, 1, 32);
        for _ in 0..200 {
            a.observe(rng.gen_range(0.0..1000.0));
            let p = a.predict();
            assert!(p.is_finite() && p >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "AR order")]
    fn rejects_zero_order() {
        Arma::new(0, 0, 8);
    }
}

//! Natural cubic-spline extrapolation predictor \[34\].
//!
//! Fits a natural cubic spline through the last `k` observations (at
//! abscissae 0..k−1) and evaluates the extension one step past the end.
//! Beyond the final knot a natural spline continues with the end slope, so
//! the prediction is `y_last + y'(last)` — a trend-following estimate that
//! reacts much faster than EWMA, which is why the paper's evaluation picks
//! Cubic Spline (+Slack) as the default (§8.6).

use super::Predictor;
use std::collections::VecDeque;

/// Cubic-spline predictor over a sliding window.
#[derive(Clone, Debug)]
pub struct CubicSpline {
    window: VecDeque<f64>,
    k: usize,
}

impl CubicSpline {
    /// Creates a predictor with a window of `k ≥ 3` points.
    ///
    /// # Panics
    /// Panics when `k < 3` (a cubic spline needs at least 3 knots).
    pub fn new(k: usize) -> Self {
        assert!(k >= 3, "spline window {k} < 3");
        CubicSpline {
            window: VecDeque::with_capacity(k + 1),
            k,
        }
    }

    /// The spline one step past the last knot of a window of `n ≥ 3`
    /// points at abscissae `0..n`: `y[n-1] + y'(n-1)`, unclamped. On the
    /// last interval `y'(n-1) = (y[n-1] - y[n-2]) + (M[n-2] + 2 M[n-1]) /
    /// 6`, where `M` are the second derivatives. The natural boundary pins
    /// `M[n-1] = 0`, and the Thomas solve of the interior equations
    /// `M[i-1] + 4 M[i] + M[i+1] = 6 (y[i-1] - 2 y[i] + y[i+1])` gives
    /// `M[n-2]` as its last forward-sweep value, so the sweep's two running
    /// scalars are all it keeps: no back substitution, no allocation.
    fn extrapolate(&self) -> f64 {
        let mut y = self.window.iter().copied();
        let mut prev = y.next().expect("INVARIANT: extrapolate needs 3 points");
        let mut last = y.next().expect("INVARIANT: extrapolate needs 3 points");
        // c' and d' of the sweep; the first step divides by 4 - 0 = 4.
        let (mut c, mut d) = (0.0, 0.0);
        for next in y {
            let rhs = 6.0 * (prev - 2.0 * last + next);
            let denom = 4.0 - c;
            c = 1.0 / denom;
            d = (rhs - d) / denom;
            (prev, last) = (last, next);
        }
        let (m_pen, m_last) = (d, 0.0);
        last + ((last - prev) + (m_pen + 2.0 * m_last) / 6.0)
    }
}

impl Predictor for CubicSpline {
    fn observe(&mut self, value: f64) {
        self.window.push_back(value);
        while self.window.len() > self.k {
            self.window.pop_front();
        }
    }

    fn predict(&self) -> f64 {
        match self.window.len() {
            0 => 0.0,
            1 => self.window[0].max(0.0),
            2 => {
                // Linear extrapolation from two points.
                let y0 = self.window[0];
                let y1 = self.window[1];
                (y1 + (y1 - y0)).max(0.0)
            }
            _ => self.extrapolate().max(0.0),
        }
    }

    fn name(&self) -> &'static str {
        "CubicSpline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_util::check::{just, range, vec_of, weighted, Gen};

    /// The predictor as it stood before the allocation-free sweep: the
    /// window copied out, the full `c'`/`d'`/`M` vectors of the Thomas
    /// solve, then the end slope. Kept as the bit-exact oracle.
    mod reference {
        pub(super) fn second_derivatives(y: &[f64]) -> Vec<f64> {
            let n = y.len();
            let m_inner = n - 2;
            let mut c_prime = vec![0.0; m_inner];
            let mut d_prime = vec![0.0; m_inner];
            for i in 0..m_inner {
                let rhs = 6.0 * (y[i] - 2.0 * y[i + 1] + y[i + 2]);
                if i == 0 {
                    c_prime[i] = 1.0 / 4.0;
                    d_prime[i] = rhs / 4.0;
                } else {
                    let denom = 4.0 - c_prime[i - 1];
                    c_prime[i] = 1.0 / denom;
                    d_prime[i] = (rhs - d_prime[i - 1]) / denom;
                }
            }
            let mut m = vec![0.0; n];
            if m_inner > 0 {
                m[m_inner] = d_prime[m_inner - 1];
                for i in (0..m_inner.saturating_sub(1)).rev() {
                    m[i + 1] = d_prime[i] - c_prime[i] * m[i + 2];
                }
            }
            m
        }

        /// `predict` of a window of at least three points.
        pub(super) fn predict(y: &[f64]) -> f64 {
            let n = y.len();
            let m = second_derivatives(y);
            let slope = (y[n - 1] - y[n - 2]) + (m[n - 2] + 2.0 * m[n - 1]) / 6.0;
            (y[n - 1] + slope).max(0.0)
        }
    }

    /// Observations with the shapes that move float bits: zeros of both
    /// signs, small integers, rates spanning many magnitudes, and
    /// negative values.
    fn sample() -> Gen<f64> {
        weighted(vec![
            (1, just(0.0)),
            (1, just(-0.0)),
            (3, range(0u32..50).map(f64::from)),
            (4, range(0.0f64..1.0e4)),
            (1, range(-1.0e6f64..1.0e6)),
            (1, range(-40.0f64..40.0).map(f64::exp)),
        ])
    }

    hermes_util::check! {
        #![cases = 256]

        /// Over windows of 3–16 points and histories longer or shorter
        /// than the window, `predict` returns the reference's exact bits
        /// after every observation.
        fn predict_matches_reference_bits(
            k in range(3usize..17),
            values in vec_of(sample(), 0..48),
        ) {
            let mut s = CubicSpline::new(k);
            for (i, &v) in values.iter().enumerate() {
                s.observe(v);
                let window = &values[(i + 1).saturating_sub(k)..=i];
                if window.len() >= 3 {
                    assert_eq!(
                        s.predict().to_bits(),
                        reference::predict(window).to_bits(),
                        "window {window:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_tiny_windows() {
        let mut s = CubicSpline::new(5);
        assert_eq!(s.predict(), 0.0);
        s.observe(7.0);
        assert_eq!(s.predict(), 7.0);
        s.observe(9.0);
        assert_eq!(s.predict(), 11.0); // linear: 9 + (9-7)
    }

    #[test]
    fn constant_series() {
        let mut s = CubicSpline::new(6);
        for _ in 0..10 {
            s.observe(5.0);
        }
        assert!((s.predict() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn linear_series_extrapolates_exactly() {
        let mut s = CubicSpline::new(8);
        for t in 0..8 {
            s.observe(3.0 * t as f64 + 1.0);
        }
        // Natural spline through collinear points is the line itself.
        assert!((s.predict() - (3.0 * 8.0 + 1.0)).abs() < 1e-6);
    }

    #[test]
    fn accelerating_series_predicted_above_last() {
        let mut s = CubicSpline::new(8);
        for t in 0..8u32 {
            s.observe((t * t) as f64);
        }
        let pred = s.predict();
        assert!(
            pred > 49.0,
            "quadratic growth must predict above last (49): {pred}"
        );
    }

    #[test]
    fn window_slides() {
        let mut s = CubicSpline::new(3);
        for v in [100.0, 100.0, 100.0, 1.0, 1.0, 1.0] {
            s.observe(v);
        }
        // Only the final three 1.0s are in the window.
        assert!((s.predict() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prediction_never_negative() {
        let mut s = CubicSpline::new(4);
        for v in [100.0, 50.0, 10.0, 0.0] {
            s.observe(v);
        }
        assert!(s.predict() >= 0.0);
    }

    #[test]
    fn second_derivative_solver_matches_manual_3pt() {
        // For 3 points the single interior equation is
        // M0 + 4 M1 + M2 = 6(y0 - 2 y1 + y2), M0 = M2 = 0.
        let y = [0.0, 1.0, 4.0];
        let m = reference::second_derivatives(&y);
        let expect = 6.0 * (0.0 - 2.0 + 4.0) / 4.0;
        assert!((m[1] - expect).abs() < 1e-12);
        assert_eq!(m[0], 0.0);
        assert_eq!(m[2], 0.0);
        // The sweep reads the same M1: y2 + (y2 - y1) + M1 / 6.
        let mut s = CubicSpline::new(3);
        y.iter().for_each(|&v| s.observe(v));
        assert!((s.predict() - (4.0 + 3.0 + expect / 6.0)).abs() < 1e-12);
    }
}

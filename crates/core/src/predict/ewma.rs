//! Exponentially weighted moving average predictor \[46\].

use super::Predictor;

/// EWMA: `s ← α·x + (1−α)·s`. Smooth, cheap, but lags trends — exactly the
/// behaviour that motivates the paper's preference for Cubic Spline (§8.6).
#[derive(Clone, Debug)]
pub struct Ewma {
    alpha: f64,
    state: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha ∈ (0, 1]`.
    ///
    /// # Panics
    /// Panics on an out-of-range `alpha`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha {alpha} out of (0,1]");
        Ewma { alpha, state: None }
    }
}

impl Predictor for Ewma {
    fn observe(&mut self, value: f64) {
        self.state = Some(match self.state {
            None => value,
            Some(s) => self.alpha * value + (1.0 - self.alpha) * s,
        });
    }

    fn predict(&self) -> f64 {
        self.state.unwrap_or(0.0).max(0.0)
    }

    fn name(&self) -> &'static str {
        "EWMA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_seeds_state() {
        let mut e = Ewma::new(0.5);
        e.observe(10.0);
        assert_eq!(e.predict(), 10.0);
    }

    #[test]
    fn smooths_toward_new_values() {
        let mut e = Ewma::new(0.5);
        e.observe(0.0);
        e.observe(10.0);
        assert_eq!(e.predict(), 5.0);
        e.observe(10.0);
        assert_eq!(e.predict(), 7.5);
    }

    #[test]
    fn alpha_one_tracks_exactly() {
        let mut e = Ewma::new(1.0);
        e.observe(3.0);
        e.observe(9.0);
        assert_eq!(e.predict(), 9.0);
    }

    #[test]
    fn negative_values_clamped_at_predict() {
        let mut e = Ewma::new(1.0);
        e.observe(-5.0);
        assert_eq!(e.predict(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of (0,1]")]
    fn rejects_bad_alpha() {
        Ewma::new(0.0);
    }
}

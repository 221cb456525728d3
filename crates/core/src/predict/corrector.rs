//! Prediction-error correctors (§5.1).
//!
//! Predictors err, and under-prediction is dangerous: the shadow table
//! overflows and the guarantee breaks. Hermes counteracts this with simple
//! control-theoretic inflation of the prediction:
//!
//! * **Slack** multiplies the prediction by `1 + s` (a slack of 40% turns a
//!   prediction of 1000 rules into 1400);
//! * **Deadzone** adds a constant (a deadzone of 100 turns 1000 into 1100).
//!
//! The evaluation (§8.6) finds Slack (combined with Cubic Spline) most
//! effective, with 100% slack needed at 1000 updates/s.


/// A correction applied on top of a raw prediction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Corrector {
    /// No correction.
    None,
    /// Multiplicative inflation: `pred · (1 + factor)`. `factor` is the
    /// slack fraction, e.g. `0.4` for 40%.
    Slack(f64),
    /// Additive inflation: `pred + margin` rules.
    Deadzone(f64),
}

impl Corrector {
    /// Applies the correction.
    pub fn apply(&self, prediction: f64) -> f64 {
        match self {
            Corrector::None => prediction,
            Corrector::Slack(s) => prediction * (1.0 + s),
            Corrector::Deadzone(d) => prediction + d,
        }
    }
}

impl std::fmt::Display for Corrector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Corrector::None => write!(f, "None"),
            Corrector::Slack(s) => write!(f, "Slack({:.0}%)", s * 100.0),
            Corrector::Deadzone(d) => write!(f, "Deadzone(+{d:.0})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_examples() {
        // §5.1: prediction 1000, slack 40% → 1400; deadzone 100 → 1100.
        assert_eq!(Corrector::Slack(0.4).apply(1000.0), 1400.0);
        assert_eq!(Corrector::Deadzone(100.0).apply(1000.0), 1100.0);
        assert_eq!(Corrector::None.apply(1000.0), 1000.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Corrector::Slack(1.0).to_string(), "Slack(100%)");
        assert_eq!(Corrector::Deadzone(50.0).to_string(), "Deadzone(+50)");
        assert_eq!(Corrector::None.to_string(), "None");
    }
}

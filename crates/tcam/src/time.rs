//! Simulation time.
//!
//! All latencies in the reproduction are *simulated*: the TCAM model charges
//! a [`SimDuration`] per control-plane action and the network simulator
//! advances a [`SimTime`] clock. Both are integer nanosecond counts so that
//! simulations are exactly deterministic and order-independent — no floating
//! point drift in the event queue.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future (used as "never" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// From nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// From milliseconds (fractional allowed).
    pub fn from_ms(ms: f64) -> Self {
        SimTime((ms * 1e6).round() as u64)
    }

    /// From seconds (fractional allowed).
    pub fn from_secs(s: f64) -> Self {
        SimTime((s * 1e9).round() as u64)
    }

    /// Nanoseconds since start.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Milliseconds since start.
    pub fn as_ms(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds since start.
    pub fn as_secs(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// From microseconds (fractional allowed).
    pub const fn from_us(us: f64) -> Self {
        SimDuration((us * 1e3).round() as u64)
    }

    /// From milliseconds (fractional allowed).
    pub fn from_ms(ms: f64) -> Self {
        SimDuration((ms * 1e6).round() as u64)
    }

    /// From seconds (fractional allowed).
    pub fn from_secs(s: f64) -> Self {
        SimDuration((s * 1e9).round() as u64)
    }

    /// Nanoseconds.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Milliseconds.
    pub fn as_ms(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds.
    pub fn as_secs(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Scales by a non-negative factor.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "negative duration scale");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.as_ms())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_ms())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_ms())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimTime::from_ms(1.5).as_nanos(), 1_500_000);
        assert_eq!(SimTime::from_secs(2.0).as_ms(), 2000.0);
        assert_eq!(SimDuration::from_us(3.0).as_nanos(), 3_000);
        assert!((SimDuration::from_ms(0.25).as_ms() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ms(10.0) + SimDuration::from_ms(5.0);
        assert_eq!(t, SimTime::from_ms(15.0));
        assert_eq!(t - SimTime::from_ms(10.0), SimDuration::from_ms(5.0));
        // Saturating: earlier - later = 0.
        assert_eq!(
            SimTime::from_ms(1.0) - SimTime::from_ms(2.0),
            SimDuration::ZERO
        );
        let mut d = SimDuration::from_ms(1.0);
        d += SimDuration::from_ms(2.0);
        assert_eq!(d, SimDuration::from_ms(3.0));
        assert_eq!(d * 2, SimDuration::from_ms(6.0));
        assert_eq!(d / 3, SimDuration::from_ms(1.0));
    }

    #[test]
    fn ordering_and_since() {
        assert!(SimTime::from_ms(1.0) < SimTime::from_ms(2.0));
        assert_eq!(
            SimTime::from_ms(5.0).since(SimTime::from_ms(2.0)),
            SimDuration::from_ms(3.0)
        );
        assert_eq!(
            SimTime::ZERO.since(SimTime::from_ms(2.0)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn sum_and_scale() {
        let total: SimDuration = [1.0, 2.0, 3.0]
            .iter()
            .map(|&ms| SimDuration::from_ms(ms))
            .sum();
        assert_eq!(total, SimDuration::from_ms(6.0));
        assert_eq!(
            SimDuration::from_ms(2.0).mul_f64(1.5),
            SimDuration::from_ms(3.0)
        );
    }
}

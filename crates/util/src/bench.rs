//! The workspace's one wall-clock read: [`Stopwatch`].
//!
//! Host-time *measurement* — warmup, repetitions, percentiles, verdicts —
//! belongs to the perf ledger (`benchmark/`, see `benchmark/README.md`),
//! which reads the clock through this type; `hermes-harness` reads it only
//! for its per-rep deadline (DESIGN.md §11).

#![expect(
    clippy::disallowed_types,
    reason = "the workspace's one sanctioned wall-clock read"
)]

use std::time::{Duration, Instant};

/// A wall-clock stopwatch: the sanctioned way for experiment binaries to
/// measure *host* runtime (Fig. 15 reports algorithm time on the build
/// machine, not simulated time). The `clippy.toml` ban on `Instant` is
/// lifted only in this module, so every wall-clock read in the workspace
/// funnels through here and is greppable in one place.
#[derive(Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Wall-clock time since `start()` (or the last `lap()`).
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Returns the elapsed time and restarts the stopwatch.
    pub fn lap(&mut self) -> Duration {
        let e = self.start.elapsed();
        self.start = Instant::now();
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_and_laps() {
        let mut w = Stopwatch::start();
        let mut acc = 0u64;
        for i in 0..10_000u64 {
            acc = acc.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(acc);
        let first = w.lap();
        assert!(first > Duration::ZERO);
        // After a lap the clock restarts: an immediate read is at most
        // the pre-lap total.
        assert!(w.elapsed() <= first + Duration::from_millis(50));
    }
}

//! `/proc/<pid>` sampling for child RSS and CPU usage.
//!
//! Linux-only by construction (the workspace targets Linux CI runners);
//! on other platforms — or once the pid vanishes — sampling returns
//! `None` and the harness simply reports zeros rather than failing the
//! run. Readings are taken from *outside* the child, so they need no
//! cooperation from (or modification of) the measured binaries.

use std::path::PathBuf;

/// Assumed page size for `/proc/<pid>/statm` (x86-64/aarch64 default;
/// fine for relative comparisons, which is all the perf gate does).
pub const PAGE_BYTES: u64 = 4096;

/// Assumed `USER_HZ` for `/proc/<pid>/stat` utime/stime ticks.
pub const TICKS_PER_SEC: u64 = 100;

/// One point-in-time reading of a child process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcSample {
    /// Resident set size in bytes (`statm` field 2 × [`PAGE_BYTES`]).
    pub rss_bytes: u64,
    /// Cumulative user+system CPU ticks (`stat` fields 14+15).
    pub cpu_ticks: u64,
}

/// Running aggregate over a child's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcUsage {
    /// Peak RSS seen across samples, bytes.
    pub max_rss_bytes: u64,
    /// Last observed cumulative CPU ticks (monotone, so last ≈ total; a
    /// child that exits between samples under-reports by one interval).
    pub cpu_ticks: u64,
    /// Number of successful samples taken.
    pub samples: u64,
}

impl ProcUsage {
    /// Folds one sample into the aggregate.
    pub fn absorb(&mut self, s: ProcSample) {
        self.max_rss_bytes = self.max_rss_bytes.max(s.rss_bytes);
        self.cpu_ticks = self.cpu_ticks.max(s.cpu_ticks);
        self.samples += 1;
    }

    /// CPU time in milliseconds under the [`TICKS_PER_SEC`] assumption.
    pub fn cpu_ms(&self) -> f64 {
        self.cpu_ticks as f64 * 1000.0 / TICKS_PER_SEC as f64
    }
}

/// Samples a live pid. `None` when `/proc` is unavailable or the process
/// already exited.
pub fn sample_pid(pid: u32) -> Option<ProcSample> {
    let base = PathBuf::from(format!("/proc/{pid}"));
    let statm = std::fs::read_to_string(base.join("statm")).ok()?;
    let rss_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    let stat = std::fs::read_to_string(base.join("stat")).ok()?;
    // Field 2 (comm) may contain spaces; everything after the *last* ')'
    // is whitespace-separated. utime/stime are stat fields 14/15, i.e.
    // indices 11/12 of the post-comm tail.
    let tail = stat.rsplit_once(')')?.1;
    let mut fields = tail.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(ProcSample {
        rss_bytes: rss_pages * PAGE_BYTES,
        cpu_ticks: utime + stime,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_own_process() {
        // Our own pid always has a /proc entry on Linux CI.
        let me = std::process::id();
        let Some(s) = sample_pid(me) else {
            // Non-Linux dev box: sampling is best-effort by design.
            return;
        };
        assert!(s.rss_bytes > 0, "a running process has resident pages");
    }

    #[test]
    fn dead_pid_yields_none() {
        // Pid numbers are bounded by /proc/sys/kernel/pid_max (< 2^22 by
        // default); u32::MAX is never a live pid.
        assert_eq!(sample_pid(u32::MAX), None);
    }

    #[test]
    fn usage_tracks_peak_and_last() {
        let mut u = ProcUsage::default();
        u.absorb(ProcSample {
            rss_bytes: 10,
            cpu_ticks: 1,
        });
        u.absorb(ProcSample {
            rss_bytes: 30,
            cpu_ticks: 5,
        });
        u.absorb(ProcSample {
            rss_bytes: 20,
            cpu_ticks: 9,
        });
        assert_eq!(u.max_rss_bytes, 30);
        assert_eq!(u.cpu_ticks, 9);
        assert_eq!(u.samples, 3);
        assert!((u.cpu_ms() - 90.0).abs() < 1e-9);
    }
}

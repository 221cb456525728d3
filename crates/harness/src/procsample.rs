//! `/proc/<pid>/status` sampling for a child's peak RSS.
//!
//! Linux-only by construction (the workspace targets Linux CI runners);
//! on other platforms — or once the pid vanishes — sampling returns
//! `None` and the harness simply reports zero rather than failing the
//! run. Readings are taken from *outside* the child, so they need no
//! cooperation from (or modification of) the measured binaries.

/// The child's resident-set high-water mark so far, in bytes: the
/// kernel-kept `VmHWM:` line of `/proc/<pid>/status`, so a peak between
/// two polls is not missed. `None` when `/proc` is unavailable or the
/// process already exited.
pub fn sample_pid(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    peak_rss_bytes(&status)
}

/// Parses `VmHWM:   <n> kB` out of a `status` text.
fn peak_rss_bytes(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_own_process() {
        // Our own pid always has a /proc entry on Linux CI.
        let me = std::process::id();
        let Some(peak) = sample_pid(me) else {
            // Non-Linux dev box: sampling is best-effort by design.
            return;
        };
        assert!(peak > 0, "a running process has resident pages");
    }

    #[test]
    fn dead_pid_yields_none() {
        // Pid numbers are bounded by /proc/sys/kernel/pid_max (< 2^22 by
        // default); u32::MAX is never a live pid.
        assert_eq!(sample_pid(u32::MAX), None);
    }

    #[test]
    fn parses_the_high_water_mark_line() {
        let status = "Name:\texp_fig9\nVmPeak:\t  120000 kB\nVmSize:\t  110000 kB\n\
                      VmHWM:\t   90712 kB\nVmRSS:\t   80000 kB\nThreads:\t1\n";
        assert_eq!(peak_rss_bytes(status), Some(90_712 * 1024));
        // A zombie's status (or a non-Linux one) has no memory lines.
        assert_eq!(peak_rss_bytes("Name:\tx\nState:\tZ (zombie)\n"), None);
    }
}

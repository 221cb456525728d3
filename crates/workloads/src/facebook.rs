//! Facebook MapReduce workload (§8.1.3).
//!
//! The paper replays "Facebook's large-scale Map Reduce deployment
//! consisting of 24402 Map Reduce jobs run over 1 day on a 600-machine
//! cluster" \[29\] on a k=16 fat tree. The trace itself is not public in
//! raw form; this generator reproduces the published characterization the
//! experiments depend on (documented substitution, DESIGN.md §2):
//!
//! * heavy-tailed job sizes — most jobs ship well under 1 GB ("short
//!   jobs"), a small fraction are multi-hundred-GB shuffles;
//! * per-job fan-out: each reducer pulls one flow from each mapper;
//! * Poisson job arrivals over the trace duration.
//!
//! The figures built on this workload (1, 8, 9) depend on the short/long
//! dichotomy and the reconfiguration pressure, both preserved here.

use hermes_util::rng::{stream, Rng, Salt};

/// One flow of a job: a shuffle transfer between two hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source host index.
    pub src: usize,
    /// Destination host index.
    pub dst: usize,
    /// Transfer size in bytes.
    pub bytes: u64,
}

/// One MapReduce job: a set of shuffle flows starting together.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Job id.
    pub id: usize,
    /// Arrival time in seconds from trace start.
    pub arrival_s: f64,
    /// The job's shuffle flows.
    pub flows: Vec<FlowSpec>,
}

impl JobSpec {
    /// Total bytes shuffled by the job.
    pub fn total_bytes(&self) -> u64 {
        self.flows.iter().map(|f| f.bytes).sum()
    }

    /// The paper's short/long split: short jobs move less than 1 GB.
    pub fn is_short(&self) -> bool {
        self.total_bytes() < 1_000_000_000
    }
}

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct FacebookWorkload {
    /// Number of jobs to generate.
    pub jobs: usize,
    /// Number of hosts in the cluster.
    pub hosts: usize,
    /// Trace duration in seconds (arrivals are Poisson over this window).
    pub duration_s: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FacebookWorkload {
    fn default() -> Self {
        // Scaled-down default: the full 24402-job/86400-s trace is
        // reproduced by the experiment binaries with explicit parameters.
        FacebookWorkload {
            jobs: 1000,
            hosts: 1024,
            duration_s: 3600.0,
            seed: 7,
        }
    }
}

impl FacebookWorkload {
    /// Generates the job trace, sorted by arrival time.
    pub fn generate(&self) -> Vec<JobSpec> {
        let mut rng = stream(self.seed, Salt::CALLER);
        let mut jobs = Vec::with_capacity(self.jobs);
        for id in 0..self.jobs {
            let arrival_s = rng.gen_range(0.0..self.duration_s);
            // Job scale: Pareto-distributed total shuffle bytes. Shape 0.9
            // with a 100 MB scale leaves ~87% of jobs under 1 GB and a
            // heavy multi-hundred-GB tail (capped at 500 GB).
            let u: f64 = rng.gen_range(1e-9..1.0);
            let total_bytes = (100e6 / u.powf(1.0 / 0.9)).min(500e9) as u64;

            // Fan-out grows sub-linearly with job size (small jobs use few
            // workers).
            let width = (((total_bytes as f64) / 100e6).sqrt().ceil() as usize).clamp(1, 32);
            let mappers = width;
            let reducers = width.max(1);

            // Place workers on random hosts (rack locality is the fat
            // tree's concern, not the trace's).
            let mut hosts: Vec<usize> = (0..mappers + reducers)
                .map(|_| rng.gen_range(0..self.hosts))
                .collect();
            // Avoid zero-length flows host→itself by nudging collisions.
            for i in mappers..hosts.len() {
                if hosts[..mappers].contains(&hosts[i]) {
                    hosts[i] = (hosts[i] + 1) % self.hosts;
                }
            }
            let (map_hosts, red_hosts) = hosts.split_at(mappers);

            let n_flows = mappers * reducers;
            let per_flow = (total_bytes / n_flows as u64).max(1);
            let mut flows = Vec::with_capacity(n_flows);
            for &m in map_hosts {
                for &r in red_hosts {
                    // ±50% jitter per flow.
                    let jitter = rng.gen_range(0.5..1.5);
                    flows.push(FlowSpec {
                        src: m,
                        dst: r,
                        bytes: ((per_flow as f64) * jitter) as u64,
                    });
                }
            }
            jobs.push(JobSpec {
                id,
                arrival_s,
                flows,
            });
        }
        jobs.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
        // Re-number in arrival order for stable reporting.
        for (i, j) in jobs.iter_mut().enumerate() {
            j.id = i;
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sorted() {
        let cfg = FacebookWorkload::default();
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert_eq!(a.len(), cfg.jobs);
    }

    #[test]
    fn short_long_mix_matches_characterization() {
        let cfg = FacebookWorkload {
            jobs: 3000,
            ..Default::default()
        };
        let jobs = cfg.generate();
        let short = jobs.iter().filter(|j| j.is_short()).count() as f64 / jobs.len() as f64;
        // Most jobs are short, but a real long tail exists.
        assert!(short > 0.6 && short < 0.98, "short fraction {short}");
        let max = jobs.iter().map(|j| j.total_bytes()).max().unwrap();
        assert!(max > 10_000_000_000, "tail too light: max {max}");
    }

    #[test]
    fn hosts_in_range_and_no_self_flows_dominate() {
        let cfg = FacebookWorkload {
            jobs: 300,
            hosts: 64,
            ..Default::default()
        };
        let jobs = cfg.generate();
        let mut self_flows = 0usize;
        let mut total = 0usize;
        for j in &jobs {
            for f in &j.flows {
                assert!(f.src < 64 && f.dst < 64);
                assert!(f.bytes > 0);
                total += 1;
                if f.src == f.dst {
                    self_flows += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            (self_flows as f64) < 0.05 * total as f64,
            "{self_flows}/{total} self flows"
        );
    }

    #[test]
    fn fanout_scales_with_job_size() {
        let cfg = FacebookWorkload {
            jobs: 2000,
            ..Default::default()
        };
        let jobs = cfg.generate();
        let small_avg_flows: f64 = {
            let s: Vec<_> = jobs.iter().filter(|j| j.is_short()).collect();
            s.iter().map(|j| j.flows.len()).sum::<usize>() as f64 / s.len() as f64
        };
        let big_avg_flows: f64 = {
            let b: Vec<_> = jobs.iter().filter(|j| !j.is_short()).collect();
            assert!(!b.is_empty());
            b.iter().map(|j| j.flows.len()).sum::<usize>() as f64 / b.len() as f64
        };
        assert!(big_avg_flows > small_avg_flows * 2.0);
    }
}

//! Gravity-model traffic matrices and ISP flow generation (§8.1.3).
//!
//! The paper's Abilene workload uses measured traffic matrices; the Geant
//! and Quest workloads use matrices synthesized with the tomo-gravity
//! model \[65\]. Both are then turned into individual flows the same way:
//! "flow inter-arrivals follow a Poisson process and flow sizes are
//! partitioned evenly according to the total data given in the traffic
//! matrices". This module implements that pipeline: gravity matrix →
//! per-OD-pair Poisson flow arrivals whose sizes sum to the matrix cell.

use crate::facebook::FlowSpec;
use hermes_util::rng::{stream, Rng, Salt};

/// A traffic matrix over `n` nodes: `demand[i][j]` bytes per second from
/// ingress `i` to egress `j`.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficMatrix {
    /// Per-pair demand in bytes/s, row-major `n × n`.
    pub demand: Vec<Vec<f64>>,
}

impl TrafficMatrix {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.demand.len()
    }

    /// `true` for an empty matrix.
    pub fn is_empty(&self) -> bool {
        self.demand.is_empty()
    }

    /// Total offered load in bytes/s.
    pub fn total(&self) -> f64 {
        self.demand.iter().flatten().sum()
    }

    /// Builds a gravity-model matrix: node masses are log-normal (heavy
    /// hitters exist, as in real ISP ingresses), `demand[i][j] ∝ m_i·m_j`,
    /// scaled so the whole matrix offers `total_bytes_per_s`.
    pub fn gravity(nodes: usize, total_bytes_per_s: f64, seed: u64) -> Self {
        let mut rng = stream(seed, Salt::CALLER);
        // Log-normal masses: exp(N(0, 1)).
        let masses: Vec<f64> = (0..nodes)
            .map(|_| {
                // Box–Muller from two uniforms.
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let n = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                n.exp()
            })
            .collect();
        let mass_sum: f64 = masses.iter().sum();
        let mut demand = vec![vec![0.0; nodes]; nodes];
        let mut unnormalized_total = 0.0;
        for i in 0..nodes {
            for j in 0..nodes {
                if i != j {
                    let d = masses[i] * masses[j] / mass_sum;
                    demand[i][j] = d;
                    unnormalized_total += d;
                }
            }
        }
        let scale = if unnormalized_total > 0.0 {
            total_bytes_per_s / unnormalized_total
        } else {
            0.0
        };
        for row in &mut demand {
            for cell in row {
                *cell *= scale;
            }
        }
        TrafficMatrix { demand }
    }
}

/// A flow with an arrival time (the ISP analogue of a MapReduce job's
/// flows; each ISP flow is its own "job" for FCT purposes).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimedFlow {
    /// Arrival in seconds from trace start.
    pub arrival_s: f64,
    /// The flow.
    pub flow: FlowSpec,
}

/// Converts a traffic matrix into individual flows over a time window.
///
/// For each OD pair with demand `d` bytes/s, flows arrive Poisson at
/// `rate = d / mean_flow_bytes` and sizes are drawn so their sum matches
/// the cell's total over the window ("partitioned evenly" with
/// exponential jitter).
pub fn flows_from_matrix(
    tm: &TrafficMatrix,
    duration_s: f64,
    mean_flow_bytes: f64,
    seed: u64,
) -> Vec<TimedFlow> {
    let mut rng = stream(seed, Salt::CALLER);
    let mut out = Vec::new();
    for (i, row) in tm.demand.iter().enumerate() {
        for (j, &d) in row.iter().enumerate() {
            if d <= 0.0 {
                continue;
            }
            let rate = d / mean_flow_bytes; // flows per second
            let expected = (rate * duration_s).round() as usize;
            if expected == 0 {
                continue;
            }
            let per_flow = d * duration_s / expected as f64;
            let mut t = 0.0f64;
            for _ in 0..expected {
                let u: f64 = rng.gen_range(1e-12..1.0);
                t += -u.ln() / rate;
                if t >= duration_s {
                    break;
                }
                let jitter: f64 = rng.gen_range(0.5..1.5);
                out.push(TimedFlow {
                    arrival_s: t,
                    flow: FlowSpec {
                        src: i,
                        dst: j,
                        bytes: (per_flow * jitter).max(1.0) as u64,
                    },
                });
            }
        }
    }
    out.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gravity_matrix_properties() {
        let tm = TrafficMatrix::gravity(12, 1e9, 3);
        assert_eq!(tm.len(), 12);
        // Diagonal is zero.
        for i in 0..12 {
            assert_eq!(tm.demand[i][i], 0.0);
        }
        // Scales to the requested total.
        assert!((tm.total() - 1e9).abs() / 1e9 < 1e-9);
        // Deterministic.
        assert_eq!(tm, TrafficMatrix::gravity(12, 1e9, 3));
        assert_ne!(tm, TrafficMatrix::gravity(12, 1e9, 4));
    }

    #[test]
    fn gravity_is_rank_one_like() {
        // demand[i][j] / demand[k][j] should be constant over j (i.e. the
        // matrix factors into node masses) — the defining gravity property.
        let tm = TrafficMatrix::gravity(8, 1e9, 5);
        let ratio = tm.demand[0][2] / tm.demand[1][2];
        for j in 3..8 {
            let r = tm.demand[0][j] / tm.demand[1][j];
            assert!((r - ratio).abs() / ratio < 1e-9, "column {j}");
        }
    }

    #[test]
    fn flows_cover_demand() {
        let tm = TrafficMatrix::gravity(6, 1e8, 9);
        let flows = flows_from_matrix(&tm, 10.0, 1e6, 11);
        assert!(!flows.is_empty());
        // Total bytes within 25% of matrix total over the window (Poisson
        // truncation + jitter).
        let total: f64 = flows.iter().map(|f| f.flow.bytes as f64).sum();
        let expect = tm.total() * 10.0;
        assert!(
            (total - expect).abs() / expect < 0.25,
            "generated {total:.3e} vs demand {expect:.3e}"
        );
        // Sorted arrivals within the window.
        assert!(flows.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert!(flows.iter().all(|f| f.arrival_s < 10.0));
    }

    #[test]
    fn heavier_pairs_get_more_flows() {
        let mut tm = TrafficMatrix::gravity(4, 1e8, 1);
        tm.demand[0][1] = 9e7;
        tm.demand[2][3] = 1e6;
        let flows = flows_from_matrix(&tm, 5.0, 1e6, 2);
        let heavy = flows
            .iter()
            .filter(|f| f.flow.src == 0 && f.flow.dst == 1)
            .count();
        let light = flows
            .iter()
            .filter(|f| f.flow.src == 2 && f.flow.dst == 3)
            .count();
        assert!(heavy > light * 5, "heavy {heavy} vs light {light}");
    }
}

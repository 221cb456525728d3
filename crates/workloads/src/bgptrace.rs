//! Synthetic BGP update traces (§8.1.3, "BGPTrace").
//!
//! The paper replays BGPStream \[5\] captures from four high-traffic routers
//! (Equinix Chicago, TELXATL, NWAX, University of Oregon). The captures
//! are not redistributable; this generator reproduces the statistical
//! property the evaluation relies on (§2.3): "traditional control planes
//! generally have low update rates **except at the tail** where updates
//! occur with high frequency (over 1000 updates per second)" — i.e. a low
//! Poisson baseline punctuated by intense bursts (session resets, path
//! hunting).
//!
//! Updates reference a realistic prefix pool with announce/withdraw churn
//! and multiple peers per prefix, so the RIB→FIB conversion in
//! `hermes-bgp` exhibits realistic suppression (many updates never reach
//! the FIB).

use hermes_bgp::prelude::*;
use hermes_rules::prefix::Ipv4Prefix;
use hermes_tcam::SimTime;
use hermes_util::rng::{stream, Rng, Salt};

/// A timestamped BGP update.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimedUpdate {
    /// Arrival instant.
    pub at: SimTime,
    /// The update message.
    pub update: BgpUpdate,
}

/// Configuration of the synthetic BGPStream-like trace.
#[derive(Clone, Debug)]
pub struct BgpTrace {
    /// Size of the prefix pool the router carries.
    pub prefixes: usize,
    /// Number of BGP peers.
    pub peers: usize,
    /// Baseline update rate (updates/s) outside bursts.
    pub base_rate: f64,
    /// Burst update rate (updates/s) — the >1000/s tail of §2.3.
    pub burst_rate: f64,
    /// Expected number of burst episodes per 100 s of trace.
    pub bursts_per_100s: f64,
    /// Mean burst duration in seconds.
    pub burst_len_s: f64,
    /// Trace duration in seconds.
    pub duration_s: f64,
    /// Probability an update is a withdrawal.
    pub withdraw_frac: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BgpTrace {
    fn default() -> Self {
        BgpTrace {
            prefixes: 5000,
            peers: 4,
            base_rate: 20.0,
            burst_rate: 1500.0,
            bursts_per_100s: 2.0,
            burst_len_s: 2.0,
            duration_s: 120.0,
            withdraw_frac: 0.25,
            seed: 17,
        }
    }
}

/// A uniform pick among the pool indices homed on peer `p` — those with
/// `i % peers == p`, which are `p, p + peers, …` — in one draw, without
/// listing them. An empty set panics in `gen_range`, as a pick from an
/// empty list would.
fn homed_pick(pool_len: usize, peers: usize, p: usize, rng: &mut impl Rng) -> usize {
    let homed_len = pool_len.saturating_sub(p).div_ceil(peers);
    p + peers * rng.gen_range(0..homed_len)
}

impl BgpTrace {
    /// The prefix pool (deterministic for the seed): a mix of /16–/24
    /// allocations like a DFZ slice.
    pub fn prefix_pool(&self) -> Vec<Ipv4Prefix> {
        let mut rng = stream(self.seed, Salt::BGP_PREFIX_POOL);
        (0..self.prefixes)
            .map(|i| {
                let len = *[16u8, 19, 20, 22, 24, 24, 24]
                    .get(rng.gen_range(0..7usize))
                    .expect("INVARIANT: gen_range(0..7) indexes a 7-element array");
                // Spread pools over 1.0.0.0/8 .. 223.0.0.0/8 unicast space.
                let octet1 = 1 + (i as u32 * 7919) % 222;
                let rest = rng.gen::<u32>() & 0x00ff_ffff;
                Ipv4Prefix::new((octet1 << 24) | rest, len)
            })
            .collect()
    }

    /// Generates the update stream, sorted by time.
    pub fn generate(&self) -> Vec<TimedUpdate> {
        let mut rng = stream(self.seed, Salt::CALLER);
        let pool = self.prefix_pool();
        let mut out = Vec::new();

        // Burst schedule: Poisson episode starts, exponential lengths.
        let mut bursts: Vec<(f64, f64)> = Vec::new();
        let mut t = 0.0;
        let episode_rate = self.bursts_per_100s / 100.0;
        while t < self.duration_s && episode_rate > 0.0 {
            let u: f64 = rng.gen_range(1e-12..1.0);
            t += -u.ln() / episode_rate;
            if t >= self.duration_s {
                break;
            }
            let v: f64 = rng.gen_range(1e-12..1.0);
            let len = -v.ln() * self.burst_len_s;
            bursts.push((t, (t + len).min(self.duration_s)));
        }

        // Which burst window (if any) a time falls in, for per-episode
        // session-reset state.
        let burst_of = |time: f64| bursts.iter().position(|&(s, e)| time >= s && time < e);

        // Prefix→peer homing: a good fraction of prefixes are single-homed
        // (as in real tables), so a session reset produces FIB deletes and
        // re-inserts rather than silent RIB churn.
        let home_peer = |idx: usize| PeerId((idx % self.peers) as u32);

        let mut now = 0.0f64;
        while now < self.duration_s {
            let burst = burst_of(now);
            let rate = if burst.is_some() {
                self.burst_rate
            } else {
                self.base_rate
            };
            let u: f64 = rng.gen_range(1e-12..1.0);
            now += -u.ln() / rate;
            if now >= self.duration_s {
                break;
            }
            let update = if let Some(b) = burst_of(now) {
                // A session reset: the episode's peer withdraws its homed
                // prefixes during the first half of the window, then
                // re-announces them during the second half — the classic
                // >1000 update/s pattern that hammers the FIB.
                let (bs, be) = bursts[b];
                let reset_peer = PeerId((b % self.peers) as u32);
                let idx = homed_pick(pool.len(), self.peers, b % self.peers, &mut rng);
                let prefix = pool[idx];
                if now < bs + (be - bs) / 2.0 {
                    BgpUpdate::Withdraw {
                        prefix,
                        peer: reset_peer,
                    }
                } else {
                    BgpUpdate::Announce {
                        prefix,
                        route: BgpRoute {
                            local_pref: 100,
                            as_path_len: rng.gen_range(1..4),
                            med: rng.gen_range(0..10),
                            peer: reset_peer,
                            next_hop_port: reset_peer.0 + 1,
                        },
                    }
                }
            } else {
                // Baseline churn: mostly announcements from the prefix's
                // home peer, occasionally an alternate path or withdrawal.
                let idx = rng.gen_range(0..pool.len());
                let prefix = pool[idx];
                let peer = if rng.gen_bool(0.8) {
                    home_peer(idx)
                } else {
                    PeerId(rng.gen_range(0..self.peers as u32))
                };
                if rng.gen_bool(self.withdraw_frac) {
                    BgpUpdate::Withdraw { prefix, peer }
                } else {
                    BgpUpdate::Announce {
                        prefix,
                        route: BgpRoute {
                            local_pref: 100,
                            as_path_len: rng.gen_range(1..8u32)
                                + if peer == home_peer(idx) { 0 } else { 2 },
                            med: rng.gen_range(0..10),
                            peer,
                            next_hop_port: peer.0 + 1,
                        },
                    }
                }
            };
            out.push(TimedUpdate {
                at: SimTime::from_secs(now),
                update,
            });
        }
        out
    }

    /// Peak update rate over 1-second windows (diagnostic: the trace must
    /// reproduce the >1000/s tail).
    pub fn peak_rate(updates: &[TimedUpdate]) -> f64 {
        if updates.is_empty() {
            return 0.0;
        }
        let end = updates
            .last()
            .expect("INVARIANT: emptiness checked above")
            .at
            .as_secs()
            .ceil() as usize;
        let mut counts = vec![0usize; end + 1];
        for u in updates {
            counts[u.at.as_secs() as usize] += 1;
        }
        counts.into_iter().max().unwrap_or(0) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The arithmetic pick draws what a pick from the filtered list did,
    /// on pools that are not a multiple of the peer count and on pools
    /// that leave a peer nothing.
    #[test]
    fn homed_pick_matches_the_filtered_list() {
        for peers in 1..6usize {
            for pool_len in 0..23usize {
                for p in 0..peers {
                    let homed: Vec<usize> = (0..pool_len).filter(|&i| i % peers == p).collect();
                    let mut old = stream(pool_len as u64, Salt::CALLER);
                    let mut new = stream(pool_len as u64, Salt::CALLER);
                    if homed.is_empty() {
                        let picked = std::panic::catch_unwind(move || {
                            homed_pick(pool_len, peers, p, &mut new)
                        });
                        assert!(picked.is_err(), "an empty homed set has no pick");
                        continue;
                    }
                    for _ in 0..8 {
                        let want = homed[old.gen_range(0..homed.len())];
                        assert_eq!(homed_pick(pool_len, peers, p, &mut new), want);
                    }
                    assert_eq!(old.gen::<u64>(), new.gen::<u64>(), "same draws");
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let cfg = BgpTrace {
            duration_s: 30.0,
            ..Default::default()
        };
        assert_eq!(cfg.generate(), cfg.generate());
    }

    #[test]
    fn low_baseline_with_heavy_tail() {
        let cfg = BgpTrace::default();
        let trace = cfg.generate();
        assert!(!trace.is_empty());
        let total_rate = trace.len() as f64 / cfg.duration_s;
        let peak = BgpTrace::peak_rate(&trace);
        // §2.3's shape: the peak second is far above the mean, and above
        // 1000 updates/s.
        assert!(peak > 1000.0, "peak {peak}");
        assert!(peak > 5.0 * total_rate, "peak {peak} vs mean {total_rate}");
        // Sorted.
        assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn no_bursts_means_low_steady_rate() {
        let cfg = BgpTrace {
            bursts_per_100s: 0.0,
            duration_s: 60.0,
            ..Default::default()
        };
        let trace = cfg.generate();
        let peak = BgpTrace::peak_rate(&trace);
        assert!(peak < 100.0, "peak {peak} without bursts");
    }

    #[test]
    fn fib_suppression_is_realistic() {
        // Run the trace through the RIB: a meaningful fraction of updates
        // must NOT reach the FIB (the paper's preprocessing rationale).
        let cfg = BgpTrace {
            duration_s: 60.0,
            ..Default::default()
        };
        let trace = cfg.generate();
        let mut rib = Rib::new();
        let mut fib_ops = 0usize;
        for u in &trace {
            if rib.process(u.update).is_some() {
                fib_ops += 1;
            }
        }
        let ratio = fib_ops as f64 / trace.len() as f64;
        assert!(ratio < 0.95, "FIB ratio {ratio} suspiciously high");
        assert!(ratio > 0.2, "FIB ratio {ratio} suspiciously low");
    }

    #[test]
    fn withdraw_fraction_respected() {
        let cfg = BgpTrace {
            withdraw_frac: 0.5,
            duration_s: 60.0,
            ..Default::default()
        };
        let trace = cfg.generate();
        let withdraws = trace
            .iter()
            .filter(|u| matches!(u.update, BgpUpdate::Withdraw { .. }))
            .count() as f64;
        let frac = withdraws / trace.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "withdraw frac {frac}");
    }

    #[test]
    fn prefix_pool_is_valid_unicast() {
        let cfg = BgpTrace::default();
        for p in cfg.prefix_pool() {
            let first = p.octets()[0];
            assert!((1..=223).contains(&first), "{p}");
            assert!(p.len() >= 16 && p.len() <= 24);
        }
    }
}

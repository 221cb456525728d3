//! Seedable pseudo-random numbers without external crates.
//!
//! The core generator is xoshiro256** (Blackman & Vigna), seeded through
//! SplitMix64 exactly as its authors recommend. The trait surface mirrors
//! the subset of `rand` 0.8 the workspace used — [`Rng`], [`SeedableRng`],
//! `rngs::StdRng`, `gen_range`, `gen_bool`, `gen` — so porting a call site
//! is a path change, plus the distribution helpers the workload generators
//! need (exponential inter-arrivals, Poisson counts, Pareto and log-normal
//! sizes, weighted choice, Fisher–Yates shuffle).
//!
//! Everything is deterministic given the seed; there is deliberately no
//! OS-entropy constructor. Code outside this module seeds a generator
//! through [`stream`], naming its [`Salt`] (DESIGN.md §9).

/// Core of every generator: a stream of `u64`s.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Deterministic construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// SplitMix64 step: the seeding PRNG (and a decent mixer in its own
/// right). Advances `state` and returns the next output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The workspace's standard generator: xoshiro256**.
///
/// Fast, 256-bit state, passes BigCrush; the name matches `rand`'s
/// `StdRng` so ported call sites read the same (the streams differ, so
/// seed-pinned expectations were re-pinned when the workspace migrated).
#[derive(Clone, Debug)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // All-zero state would be a fixed point; SplitMix64 cannot emit
        // four zeros in a row, but keep the guard explicit.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        StdRng { s }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// What an RNG stream mixes into its seed, so that two subsystems handed
/// one run seed still draw different numbers. The field is private: the
/// table of `const`s below is the only place a salt can be built, and a
/// unit test keeps its values distinct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Salt(u64);

/// Declares the salt table and, for the distinctness test, the list of
/// every entry, from one source so the two cannot drift apart.
macro_rules! salts {
    ($($(#[$doc:meta])* $name:ident = $value:expr;)*) => {
        impl Salt {
            $($(#[$doc])* pub const $name: Salt = Salt($value);)*
        }

        #[cfg(test)]
        const ALL_SALTS: &[(&str, Salt)] = &[$((stringify!($name), Salt::$name)),*];
    };
}

salts! {
    /// No salt, for a seed its caller already derived: a run seed, a
    /// property case's seed, a seed handed down in a config.
    CALLER = 0;
    /// `FaultPlan`'s crash-parameter draws, apart from its per-op fault
    /// draws on the same plan seed (b"HERMESCR").
    FAULT_CRASH = 0x4845_524d_4553_4352;
    /// Recovery's retry jitter, a fixed stream (seed 0) so chaos runs
    /// replay from the fault seed alone.
    RECOVERY_JITTER = 0x4845_524d_4553_0001;
    /// The fleet's home-lane assignment shuffle.
    LANE_SHUFFLE = 0x9e37_79b9_7f4a_7c15;
    /// The fleet's least-loaded tie-break permutation, apart from the
    /// assignment so adding it never moved a home lane.
    LANE_ORDER = 0x5ca1_ab1e_0f1e_e75c;
    /// `BgpTrace`'s prefix pool, apart from its update stream.
    BGP_PREFIX_POOL = 0xbeef;
    /// `exp_crash`'s churn workload, apart from the fault plan's streams.
    EXP_CRASH = 0x4352_4153_4853_544d;
    /// `exp_fleet`'s phase-1 path-transaction churn.
    EXP_FLEET_CHURN = 0x464c_4545_5421_2121;
    /// `exp_fleet`'s phase-2 storm schedule.
    EXP_FLEET_STORM = 0x5354_4f52_4d32_2121;
    /// `exp_scale`'s rule set, a fixed stream.
    EXP_SCALE = 7;
    /// `exp_tcam_micro`'s probes, a fixed stream.
    EXP_TCAM_MICRO = 9;
    /// `exp_table1`'s probes, a fixed stream.
    EXP_TABLE1 = 1;
}

/// The generator for `seed` on `salt`'s stream: `StdRng::seed_from_u64(seed
/// ^ salt)`. A fixed stream is `stream(0, salt)`. Outside this module,
/// `clippy.toml` bans calling `seed_from_u64` directly.
pub fn stream(seed: u64, salt: Salt) -> StdRng {
    #[expect(
        clippy::disallowed_methods,
        reason = "the one seeding site the ban routes every stream through"
    )]
    StdRng::seed_from_u64(seed ^ salt.0)
}

/// Compatibility module so `rand::rngs::StdRng` call sites port by
/// rewriting the crate path only.
pub mod rngs {
    pub use super::StdRng;
}

/// Types a range can be sampled over (the `gen_range` argument).
pub trait SampleRange<T> {
    /// Draws a uniform value from the range.
    fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> T;
}

#[inline]
fn mul_shift(r: u64, span: u128) -> u128 {
    // Uniform-ish multiply-shift mapping of a 64-bit draw onto [0, span):
    // bias is < 2^-64 per draw, far below anything these simulations can
    // observe.
    (r as u128 * span) >> 64
}

macro_rules! int_sample_range {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let lo = self.start as i128;
                let span = (self.end as i128 - lo) as u128;
                (lo + mul_shift(rng.next_u64(), span) as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let lo = start as i128;
                let span = (end as i128 - lo) as u128 + 1;
                (lo + mul_shift(rng.next_u64(), span) as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let u = unit_f64(rng.next_u64());
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty range");
        // 53-bit draw over the closed interval.
        let u = (rng.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64;
        lo + u * (hi - lo)
    }
}

impl SampleRange<f32> for core::ops::Range<f32> {
    fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> f32 {
        assert!(self.start < self.end, "gen_range: empty range");
        let u = unit_f64(rng.next_u64()) as f32;
        self.start + u * (self.end - self.start)
    }
}

/// `u64` → uniform `f64` in `[0, 1)` using the top 53 bits.
#[inline]
fn unit_f64(r: u64) -> f64 {
    (r >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Types `gen()` can produce (the `rand::distributions::Standard` analog:
/// full-width integers, fair bools, `f64`/`f32` in `[0, 1)`).
pub trait Standard {
    /// Draws one value.
    fn sample<G: RngCore + ?Sized>(rng: &mut G) -> Self;
}

macro_rules! int_standard {
    ($($t:ty),* $(,)?) => {$(
        impl Standard for $t {
            fn sample<G: RngCore + ?Sized>(rng: &mut G) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_standard!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample<G: RngCore + ?Sized>(rng: &mut G) -> u128 {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for bool {
    fn sample<G: RngCore + ?Sized>(rng: &mut G) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<G: RngCore + ?Sized>(rng: &mut G) -> f64 {
        unit_f64(rng.next_u64())
    }
}

impl Standard for f32 {
    fn sample<G: RngCore + ?Sized>(rng: &mut G) -> f32 {
        unit_f64(rng.next_u64()) as f32
    }
}

/// The user-facing sampling surface, blanket-implemented for every
/// [`RngCore`]. Mirrors `rand::Rng` plus the distribution helpers the
/// workload generators use.
pub trait Rng: RngCore {
    /// Uniform draw from an integer or float range (`lo..hi`, `lo..=hi`).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// One draw of a [`Standard`] type (full-width ints, fair bool,
    /// `f64` in `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        unit_f64(self.next_u64()) < p
    }

    /// Exponential draw with the given mean (inter-arrival times of a
    /// Poisson process with rate `1/mean`).
    fn exp(&mut self, mean: f64) -> f64
    where
        Self: Sized,
    {
        let u: f64 = self.gen_range(1e-300f64..1.0);
        -u.ln() * mean
    }

    /// Poisson-distributed count with the given mean, by inversion for
    /// small `lambda` and a normal approximation past 30 (plenty for
    /// per-tick arrival counts).
    fn poisson(&mut self, lambda: f64) -> u64
    where
        Self: Sized,
    {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda < 30.0 {
            // Knuth inversion on the exponential product.
            let l = (-lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= unit_f64(self.next_u64());
                if p <= l {
                    return k;
                }
                k += 1;
            }
        }
        let n = self.normal(lambda, lambda.sqrt());
        n.round().max(0.0) as u64
    }

    /// Normal draw (Box–Muller).
    fn normal(&mut self, mean: f64, std_dev: f64) -> f64
    where
        Self: Sized,
    {
        let u1: f64 = self.gen_range(1e-300f64..1.0);
        let u2: f64 = self.gen_range(0.0f64..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Log-normal draw: `exp(N(mu, sigma))` of the underlying normal.
    fn log_normal(&mut self, mu: f64, sigma: f64) -> f64
    where
        Self: Sized,
    {
        self.normal(mu, sigma).exp()
    }

    /// Pareto draw with minimum `scale` and tail index `shape` (heavy
    /// tails for `shape <= 2`, the flow-size regime the paper cites).
    fn pareto(&mut self, scale: f64, shape: f64) -> f64
    where
        Self: Sized,
    {
        let u: f64 = self.gen_range(1e-300f64..1.0);
        scale / u.powf(1.0 / shape)
    }

    /// Index draw proportional to non-negative `weights` (all-zero weight
    /// vectors fall back to uniform).
    fn weighted_index(&mut self, weights: &[f64]) -> usize
    where
        Self: Sized,
    {
        assert!(!weights.is_empty(), "weighted_index: empty weights");
        let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        if total <= 0.0 {
            return self.gen_range(0..weights.len());
        }
        let mut x = unit_f64(self.next_u64()) * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w.max(0.0);
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Uniform choice from a slice (`None` iff empty).
    fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T>
    where
        Self: Sized,
    {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.gen_range(0..xs.len())])
        }
    }

    /// In-place Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, xs: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(0..=i);
            xs.swap(i, j);
        }
    }
}

impl<R: RngCore> Rng for R {}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests pin streams by literal seed"
)]
mod tests {
    use super::*;

    #[test]
    fn salts_are_distinct() {
        for (i, (a, sa)) in ALL_SALTS.iter().enumerate() {
            for (b, sb) in &ALL_SALTS[i + 1..] {
                assert_ne!(sa, sb, "Salt::{a} and Salt::{b} would draw the same stream");
            }
        }
        assert_eq!(Salt::CALLER.0, 0);
    }

    #[test]
    fn stream_is_the_salted_seed() {
        let mut a = stream(41, Salt::EXP_SCALE);
        let mut b = StdRng::seed_from_u64(41 ^ 7);
        assert!((0..8).all(|_| a.next_u64() == b.next_u64()));
    }

    #[test]
    fn xoshiro_reference_vector() {
        // First outputs of xoshiro256** from the SplitMix64(0) seeding,
        // pinned so the stream can never silently change (every pinned
        // workload seed in the workspace depends on it).
        let mut r = StdRng::seed_from_u64(0);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                11091344671253066420,
                13793997310169335082,
                1900383378846508768,
                7684712102626143532
            ]
        );
    }

    #[test]
    fn streams_are_seed_deterministic_and_distinct() {
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(42);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(42);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(43);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = r.gen_range(3u32..17);
            assert!((3..17).contains(&x));
            let y = r.gen_range(-5i32..=5);
            assert!((-5..=5).contains(&y));
            let f = r.gen_range(1e-12f64..1.0);
            assert!((1e-12..1.0).contains(&f));
            let u: f64 = r.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_range_covers_small_ranges() {
        let mut r = StdRng::seed_from_u64(2);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.gen_range(0usize..7)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn gen_bool_tracks_p() {
        let mut r = StdRng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "{frac}");
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = StdRng::seed_from_u64(4);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.exp(2.5)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "{mean}");
    }

    #[test]
    fn poisson_mean_and_variance_converge() {
        let mut r = StdRng::seed_from_u64(5);
        for lambda in [0.5, 4.0, 50.0] {
            let n = 50_000;
            let draws: Vec<f64> = (0..n).map(|_| r.poisson(lambda) as f64).collect();
            let mean = draws.iter().sum::<f64>() / n as f64;
            let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
            assert!(
                (mean - lambda).abs() < lambda * 0.1 + 0.05,
                "mean {mean} vs {lambda}"
            );
            assert!(
                (var - lambda).abs() < lambda * 0.2 + 0.1,
                "var {var} vs {lambda}"
            );
        }
        assert_eq!(r.poisson(0.0), 0);
    }

    #[test]
    fn pareto_respects_scale_and_tail() {
        let mut r = StdRng::seed_from_u64(6);
        let draws: Vec<f64> = (0..100_000).map(|_| r.pareto(10.0, 1.5)).collect();
        assert!(draws.iter().all(|&d| d >= 10.0));
        // Median of Pareto(scale, shape) = scale * 2^(1/shape).
        let mut sorted = draws.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        let expect = 10.0 * 2f64.powf(1.0 / 1.5);
        assert!(
            (median - expect).abs() / expect < 0.05,
            "{median} vs {expect}"
        );
    }

    #[test]
    fn log_normal_median_is_exp_mu() {
        let mut r = StdRng::seed_from_u64(7);
        let mut draws: Vec<f64> = (0..100_000).map(|_| r.log_normal(1.0, 0.75)).collect();
        draws.sort_by(f64::total_cmp);
        let median = draws[draws.len() / 2];
        let expect = 1f64.exp();
        assert!(
            (median - expect).abs() / expect < 0.05,
            "{median} vs {expect}"
        );
    }

    #[test]
    fn weighted_index_tracks_weights() {
        let mut r = StdRng::seed_from_u64(8);
        let w = [1.0, 3.0, 0.0, 6.0];
        let mut counts = [0u32; 4];
        for _ in 0..100_000 {
            counts[r.weighted_index(&w)] += 1;
        }
        assert_eq!(counts[2], 0);
        let frac3 = counts[3] as f64 / 100_000.0;
        assert!((frac3 - 0.6).abs() < 0.01, "{frac3}");
    }

    #[test]
    fn shuffle_and_choose() {
        let mut r = StdRng::seed_from_u64(9);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, sorted, "astronomically unlikely identity shuffle");
        assert!(r.choose(&xs).is_some());
        let empty: &[u32] = &[];
        assert!(r.choose(empty).is_none());
    }
}

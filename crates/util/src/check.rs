//! A compact property-testing harness: the workspace's `proptest`
//! replacement.
//!
//! Tests are declared with the [`check!`](crate::check!) macro:
//!
//! ```
//! use hermes_util::check::{range, vec_of};
//!
//! hermes_util::check! {
//!     #![cases = 256]
//!     fn sort_is_idempotent(xs in vec_of(range(0u32..100), 0..20)) {
//!         let mut once = xs.clone();
//!         once.sort_unstable();
//!         let mut twice = once.clone();
//!         twice.sort_unstable();
//!         assert_eq!(once, twice);
//!     }
//! }
//! # fn main() {}
//! ```
//!
//! Each case derives its own seed from a fixed default base, so runs are
//! deterministic; a growing `size` parameter bounds generated collection
//! lengths. On failure the harness *minimizes by halving*: it re-generates
//! the failing case at size/2, size/4, … while the property still fails,
//! then reports the smallest failing input together with a one-line
//! reproduction command.
//!
//! Env overrides:
//!
//! * `HERMES_CHECK_CASES` — number of cases per property (default is the
//!   per-test `#![cases = N]`, itself defaulting to 256);
//! * `HERMES_CHECK_SEED` — base seed (case `i` uses `base + i`);
//! * `HERMES_CHECK_SIZE` — pin the generation size (used by the printed
//!   reproduction command).

use crate::rng::{stream, Salt, SampleRange, Standard, StdRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// The workspace-wide default base seed (stable across releases so CI
/// failures reproduce anywhere).
pub const DEFAULT_SEED: u64 = 0x4845_524d_4553_2131; // "HERMES!1"

/// Default number of cases per property.
pub const DEFAULT_CASES: u64 = 256;

/// Harness configuration, normally produced by [`Config::from_env`].
#[derive(Clone, Debug)]
pub struct Config {
    /// Cases to run.
    pub cases: u64,
    /// Base seed; case `i` is generated from `seed + i`.
    pub seed: u64,
    /// Pin the generation size instead of ramping it.
    pub size: Option<usize>,
}

impl Config {
    /// Reads `HERMES_CHECK_CASES` / `HERMES_CHECK_SEED` /
    /// `HERMES_CHECK_SIZE`, falling back to `default_cases` and
    /// [`DEFAULT_SEED`].
    #[expect(
        clippy::disallowed_methods,
        reason = "the HERMES_CHECK_* replay knobs are sanctioned readers"
    )]
    pub fn from_env(default_cases: u64) -> Config {
        let parse = |k: &str| std::env::var(k).ok().and_then(|v| v.parse().ok());
        Config {
            cases: parse("HERMES_CHECK_CASES").unwrap_or(default_cases).max(1),
            seed: parse("HERMES_CHECK_SEED").unwrap_or(DEFAULT_SEED),
            size: parse("HERMES_CHECK_SIZE").map(|s: u64| s as usize),
        }
    }
}

/// The sampling function backing a [`Gen`].
type SampleFn<T> = Rc<dyn Fn(&mut StdRng, usize) -> T>;

/// A value generator: a sized, seeded sampling function. Combinators
/// compose by closure; cloning is cheap (`Rc`).
pub struct Gen<T> {
    f: SampleFn<T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen {
            f: Rc::clone(&self.f),
        }
    }
}

impl<T: 'static> Gen<T> {
    /// Wraps a raw sampling function. `size` grows over a run and should
    /// bound any collection lengths so halving it shrinks the input.
    pub fn from_fn(f: impl Fn(&mut StdRng, usize) -> T + 'static) -> Gen<T> {
        Gen { f: Rc::new(f) }
    }

    /// Draws one value.
    pub fn generate(&self, rng: &mut StdRng, size: usize) -> T {
        (self.f)(rng, size)
    }

    /// Maps the generated value (the `prop_map` analog).
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        Gen::from_fn(move |rng, size| f(self.generate(rng, size)))
    }
}

/// Always produces a clone of `v` (the `Just` analog).
pub fn just<T: Clone + 'static>(v: T) -> Gen<T> {
    Gen::from_fn(move |_, _| v.clone())
}

/// Uniform draw from an integer or float range: `range(0u32..100)`,
/// `range(8u8..=28)`, `range(0.0f64..1.0)`.
pub fn range<T: 'static, R: SampleRange<T> + Clone + 'static>(r: R) -> Gen<T> {
    Gen::from_fn(move |rng, _| crate::rng::Rng::gen_range(rng, r.clone()))
}

/// Full-width draw of a [`Standard`] type (the `any::<T>()` analog).
pub fn arb<T: Standard + 'static>() -> Gen<T> {
    Gen::from_fn(|rng, _| crate::rng::Rng::gen::<T>(rng))
}

/// A vector of `item` draws with length in `len`, additionally capped by
/// the current generation size so shrinking produces shorter vectors.
pub fn vec_of<T: 'static>(item: Gen<T>, len: std::ops::Range<usize>) -> Gen<Vec<T>> {
    assert!(len.start < len.end, "vec_of: empty length range");
    Gen::from_fn(move |rng, size| {
        let hi = len.end.min(len.start + size + 1).max(len.start + 1);
        let n = crate::rng::Rng::gen_range(rng, len.start..hi);
        (0..n).map(|_| item.generate(rng, size)).collect()
    })
}

/// Uniform choice among generators (the unweighted `prop_oneof!` analog).
pub fn one_of<T: 'static>(choices: Vec<Gen<T>>) -> Gen<T> {
    assert!(!choices.is_empty(), "one_of: no choices");
    Gen::from_fn(move |rng, size| {
        let i = crate::rng::Rng::gen_range(rng, 0..choices.len());
        choices[i].generate(rng, size)
    })
}

/// Weighted choice among generators (the weighted `prop_oneof!` analog).
pub fn weighted<T: 'static>(choices: Vec<(u32, Gen<T>)>) -> Gen<T> {
    assert!(!choices.is_empty(), "weighted: no choices");
    let total: u64 = choices.iter().map(|(w, _)| *w as u64).sum();
    assert!(total > 0, "weighted: zero total weight");
    Gen::from_fn(move |rng, size| {
        let mut x = crate::rng::Rng::gen_range(rng, 0..total);
        for (w, g) in &choices {
            if x < *w as u64 {
                return g.generate(rng, size);
            }
            x -= *w as u64;
        }
        choices
            .last()
            .expect(
                "INVARIANT: total > 0 is asserted above, so choices is non-empty; \
                 x only underflows past the loop by rounding",
            )
            .1
            .generate(rng, size)
    })
}

/// Pairs two generators.
pub fn zip2<A: 'static, B: 'static>(a: Gen<A>, b: Gen<B>) -> Gen<(A, B)> {
    Gen::from_fn(move |rng, size| (a.generate(rng, size), b.generate(rng, size)))
}

/// Triples three generators.
pub fn zip3<A: 'static, B: 'static, C: 'static>(a: Gen<A>, b: Gen<B>, c: Gen<C>) -> Gen<(A, B, C)> {
    Gen::from_fn(move |rng, size| {
        (
            a.generate(rng, size),
            b.generate(rng, size),
            c.generate(rng, size),
        )
    })
}

fn ramp(case: u64, cases: u64) -> usize {
    // Size grows 8 → 256 across the run, so early cases are small and
    // fast and later cases stress larger structures.
    (8 + case * 248 / cases.max(1)) as usize
}

fn payload_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn run_case<T, P: Fn(T)>(prop: &P, value: T) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| prop(value))).map_err(payload_text)
}

/// Drives one property: `cases` generated inputs through `prop`, with
/// halving minimization and a reproduction line on failure. Used by the
/// [`check!`](crate::check!) macro; callable directly for custom shapes.
#[expect(
    clippy::panic,
    reason = "this panic is the product: it is how a failed property reaches the test harness"
)]
pub fn run<T: std::fmt::Debug, G, P>(name: &str, cfg: Config, gen: G, prop: P)
where
    G: Fn(&mut StdRng, usize) -> T,
    P: Fn(T),
{
    for case in 0..cfg.cases {
        let case_seed = cfg.seed.wrapping_add(case);
        let size = cfg.size.unwrap_or_else(|| ramp(case, cfg.cases));
        let value = gen(&mut stream(case_seed, Salt::CALLER), size);
        let Err(first_cause) = run_case(&prop, value) else {
            continue;
        };

        // Minimize by halving the generation size while the failure
        // persists (same per-case seed, so each attempt is deterministic).
        let mut best = (size, first_cause);
        let mut s = size / 2;
        while s >= 1 {
            let v = gen(&mut stream(case_seed, Salt::CALLER), s);
            match run_case(&prop, v) {
                Err(cause) => {
                    best = (s, cause);
                    if s == 1 {
                        break;
                    }
                    s /= 2;
                }
                Ok(()) => break,
            }
        }

        let (min_size, cause) = best;
        let minimal = gen(&mut stream(case_seed, Salt::CALLER), min_size);
        let mut shown = format!("{minimal:?}");
        if shown.len() > 4096 {
            shown.truncate(4096);
            shown.push_str("… (truncated)");
        }
        panic!(
            "\n[hermes-check] property '{name}' failed at case {case}/{cases} \
             (seed {case_seed}, size {size}, minimized to size {min_size})\n\
             [hermes-check] minimal input: {shown}\n\
             [hermes-check] cause: {cause}\n\
             [hermes-check] reproduce: HERMES_CHECK_SEED={case_seed} HERMES_CHECK_CASES=1 \
             HERMES_CHECK_SIZE={min_size} cargo test {name}\n",
            cases = cfg.cases,
        );
    }
}

/// Declares property tests (the `proptest!` analog).
///
/// ```ignore
/// hermes_util::check! {
///     #![cases = 256]
///     fn my_property(a in gen_a(), b in range(0u32..10)) { /* … */ }
/// }
/// ```
///
/// Each `fn` becomes a `#[test]` running its body over generated inputs
/// via [`check::run`](crate::check::run). Arguments bind by value, one
/// draw per case.
#[macro_export]
macro_rules! check {
    ( #![cases = $cases:expr] $($rest:tt)* ) => {
        $crate::__check_impl! { $cases; $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__check_impl! { $crate::check::DEFAULT_CASES; $($rest)* }
    };
}

/// Implementation detail of [`check!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __check_impl {
    ( $cases:expr ; $( $(#[$meta:meta])* fn $name:ident (
        $($arg:ident in $gen:expr),+ $(,)?
    ) $body:block )* ) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let __cfg = $crate::check::Config::from_env(($cases) as u64);
                $( let $arg = ($gen); )+
                $crate::check::run(
                    stringify!($name),
                    __cfg,
                    move |__rng, __size| ( $( $arg.generate(__rng, __size) ),+ , ),
                    |( $($arg),+ , )| { $body },
                );
            }
        )*
    };
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests pin streams by literal seed"
)]
mod tests {
    use super::*;
    use crate::rng::SeedableRng;

    #[test]
    fn passing_property_runs_all_cases() {
        let count = std::cell::Cell::new(0u64);
        let cfg = Config {
            cases: 100,
            seed: 1,
            size: None,
        };
        run(
            "counter",
            cfg,
            |rng, _| crate::rng::Rng::gen_range(rng, 0u32..10),
            |_x| count.set(count.get() + 1),
        );
        assert_eq!(count.get(), 100);
    }

    #[test]
    fn failing_property_panics_with_repro_line() {
        let cfg = Config {
            cases: 50,
            seed: DEFAULT_SEED,
            size: None,
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            run(
                "always_small",
                cfg,
                |rng, size| {
                    let n = crate::rng::Rng::gen_range(rng, 0..size.max(1) + 1);
                    vec![0u8; n]
                },
                |v: Vec<u8>| assert!(v.len() < 3, "too long: {}", v.len()),
            );
        }));
        let msg = payload_text(result.unwrap_err());
        assert!(msg.contains("HERMES_CHECK_SEED="), "{msg}");
        assert!(msg.contains("minimized to size"), "{msg}");
        assert!(msg.contains("always_small"), "{msg}");
    }

    #[test]
    fn minimization_halves_toward_small_inputs() {
        // A property failing for any vec with ≥ 1 element: the minimized
        // report must be at size 1 (the smallest halving step).
        let cfg = Config {
            cases: 10,
            seed: 7,
            size: None,
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            run(
                "nonempty_fails",
                cfg,
                |rng, size| {
                    let hi = (size + 2).min(50);
                    let n = crate::rng::Rng::gen_range(rng, 1..hi);
                    vec![1u8; n]
                },
                |v: Vec<u8>| assert!(v.is_empty()),
            );
        }));
        let msg = payload_text(result.unwrap_err());
        assert!(msg.contains("minimized to size 1"), "{msg}");
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let g = vec_of(range(0u32..1000), 1..20);
        let a = g.generate(&mut StdRng::seed_from_u64(11), 64);
        let b = g.generate(&mut StdRng::seed_from_u64(11), 64);
        let c = g.generate(&mut StdRng::seed_from_u64(12), 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn combinators_compose() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = weighted(vec![
            (3, range(0u32..10).map(|x| (x, false))),
            (1, zip2(range(100u32..200), just(true)).map(|(x, b)| (x, b))),
        ]);
        let mut lo = 0;
        let mut hi = 0;
        for _ in 0..2000 {
            let (x, tagged) = g.generate(&mut rng, 32);
            if tagged {
                assert!((100..200).contains(&x));
                hi += 1;
            } else {
                assert!(x < 10);
                lo += 1;
            }
        }
        // 3:1 weighting within loose statistical bounds.
        assert!(lo > hi * 2, "lo {lo} hi {hi}");
        assert!(hi > 200, "hi {hi}");
    }

    #[test]
    fn vec_of_respects_bounds_and_size_cap() {
        let g = vec_of(arb::<u8>(), 2..40);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let small = g.generate(&mut rng, 1);
            assert!((2..4).contains(&small.len()), "{}", small.len());
            let big = g.generate(&mut rng, 256);
            assert!((2..40).contains(&big.len()));
        }
    }

    #[test]
    fn config_env_overrides_parse() {
        // No env set in the normal test run: defaults apply.
        let cfg = Config::from_env(123);
        assert_eq!(cfg.cases, 123);
        assert_eq!(cfg.seed, DEFAULT_SEED);
    }

    // The macro itself, self-hosted.
    crate::check! {
        #![cases = 64]
        fn macro_single_arg(x in range(0u32..100)) {
            assert!(x < 100);
        }

        fn macro_multi_arg(a in range(0u32..10), b in vec_of(range(0u8..5), 1..8)) {
            assert!(a < 10);
            assert!(!b.is_empty() && b.len() < 8);
            assert!(b.iter().all(|&v| v < 5));
        }
    }
}

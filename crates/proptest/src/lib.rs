//! In-tree, dependency-free property-testing shim.
//!
//! The HISS workspace must build and test in fully offline environments,
//! where the crates.io registry (and therefore the real `proptest` crate)
//! is unreachable. This crate provides the *subset* of proptest's API that
//! the test suite actually uses — drop-in compatible at the source level,
//! so the `#[cfg(test)] mod proptests` blocks across the workspace compile
//! unchanged against it:
//!
//! - the [`proptest!`] macro (with optional `#![proptest_config(...)]`),
//! - [`prop_assert!`] / [`prop_assert_eq!`],
//! - [`any`] for primitive types,
//! - integer and float [`Range`] strategies,
//! - tuple strategies (arity 2–4),
//! - [`collection::vec`] and [`option::of`].
//!
//! Semantics differ from the real crate in two deliberate ways: failing
//! cases panic immediately (no shrinking), and case generation is
//! deterministic per test *name* (seeded by an FNV-1a hash of the name),
//! so a failure reproduces exactly on re-run without a regression file.
//! `*.proptest-regressions` files are ignored.

use std::ops::Range;

/// Runner configuration. Only the field the suite uses is modelled.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases to execute per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Runs each property `cases` times.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    /// 64 cases, or as many as the `PROPTEST_CASES` environment variable
    /// asks for (the real crate's variable), so a scheduled job can run
    /// the same properties much deeper.
    ///
    /// # Panics
    ///
    /// Panics if `PROPTEST_CASES` is set but is not a positive integer.
    fn default() -> Self {
        let var = std::env::var("PROPTEST_CASES").ok();
        ProptestConfig {
            cases: cases_from(var.as_deref()),
        }
    }
}

/// The default case count for an optional `PROPTEST_CASES` value. The
/// real crate defaults to 256; 64 keeps the deterministic offline suite
/// fast while still exercising wide input ranges.
fn cases_from(var: Option<&str>) -> u32 {
    match var {
        None => 64,
        Some(text) => match text.trim().parse::<u32>() {
            Ok(cases) if cases > 0 => cases,
            _ => panic!("PROPTEST_CASES must be a positive integer, got {text:?}"),
        },
    }
}

/// SplitMix64 step, used for seeding (same construction as `hiss-sim`,
/// duplicated here so this crate stays dependency-free in both
/// directions).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic xoshiro256++ generator driving case generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seeds a generator from a 64-bit value.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        TestRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[lo, hi)`. Uses rejection-free 128-bit widening;
    /// the bias is far below what property tests can observe.
    #[inline]
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty strategy range {lo}..{hi}");
        let span = hi - lo;
        lo + ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn gen_unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Derives the per-test RNG: FNV-1a of the test name mixed with a fixed
/// suite seed, so every property gets an independent deterministic stream.
pub fn test_rng(test_name: &str) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    TestRng::new(h ^ 0x4815_5C0D_E5EE_D000)
}

/// A value generator. The shim keeps the real crate's name so qualified
/// `impl Strategy` bounds in test code keep compiling.
pub trait Strategy {
    /// The generated value type.
    type Value;
    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_int_range_strategy {
    ($($t:ty)*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            #[inline]
            fn generate(&self, rng: &mut TestRng) -> $t {
                // Widen through i128 so signed ranges stay correct.
                let lo = self.start as i128;
                let hi = self.end as i128;
                assert!(lo < hi, "empty strategy range");
                let span = (hi - lo) as u64;
                (lo + rng.gen_range_u64(0, span) as i128) as $t
            }
        }
    )*};
}
impl_int_range_strategy!(u8 u16 u32 u64 usize i8 i16 i32 i64 isize);

impl Strategy for Range<f64> {
    type Value = f64;
    #[inline]
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.gen_unit_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    #[inline]
    fn generate(&self, rng: &mut TestRng) -> f32 {
        self.start + (rng.gen_unit_f64() as f32) * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy!((A, B)(A, B, C)(A, B, C, D));

/// Marker strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// `any::<T>()` — the full domain of a primitive type.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any(std::marker::PhantomData)
}

impl Strategy for Any<bool> {
    type Value = bool;
    #[inline]
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_any_int {
    ($($t:ty)*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            #[inline]
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_any_int!(u8 u16 u32 u64 usize i8 i16 i32 i64 isize);

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for a `Vec` with element strategy `S` and a length drawn
    /// from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    /// `vec(strategy, len_range)` — a vector of `strategy` values.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Option strategies (`proptest::option::of`).
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy yielding `None` 25% of the time (the real crate's
    /// default `of` weighting), `Some(inner)` otherwise.
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `of(strategy)` — an `Option` of `strategy` values.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.next_u64() & 3 == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// Everything a test needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

/// Asserts a condition inside a property (panics with context on failure).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+);
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_eq!($a, $b, $($fmt)+);
    };
}

/// Declares property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that draws `config.cases` random inputs and runs
/// the body for each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let run = move || $body;
                if let Err(panic) = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run)) {
                    eprintln!(
                        "proptest case {}/{} of {} failed",
                        case + 1,
                        config.cases,
                        stringify!($name)
                    );
                    ::std::panic::resume_unwind(panic);
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn determinism_per_test_name() {
        let mut a = super::test_rng("x");
        let mut b = super::test_rng("x");
        let mut c = super::test_rng("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = super::test_rng("bounds");
        for _ in 0..10_000 {
            let v = Strategy::generate(&(3u64..17), &mut rng);
            assert!((3..17).contains(&v));
            let f = Strategy::generate(&(-2.5f64..4.5), &mut rng);
            assert!((-2.5..4.5).contains(&f));
            let s = Strategy::generate(&(-5i64..-1), &mut rng);
            assert!((-5..-1).contains(&s));
        }
    }

    #[test]
    fn vec_and_option_strategies() {
        let mut rng = super::test_rng("vec");
        let mut saw_none = false;
        let mut saw_some = false;
        for _ in 0..200 {
            let v = Strategy::generate(&super::collection::vec(0u64..10, 1..5), &mut rng);
            assert!(!v.is_empty() && v.len() < 5);
            assert!(v.iter().all(|x| *x < 10));
            match Strategy::generate(&super::option::of(0u64..10), &mut rng) {
                None => saw_none = true,
                Some(x) => {
                    assert!(x < 10);
                    saw_some = true;
                }
            }
        }
        assert!(saw_none && saw_some);
    }

    #[test]
    fn proptest_cases_sets_the_default_case_count() {
        use super::cases_from;
        assert_eq!(cases_from(None), 64);
        assert_eq!(cases_from(Some("4096")), 4096);
        assert_eq!(cases_from(Some(" 7\n")), 7);
        for bad in ["", "0", "-3", "many"] {
            let got = std::panic::catch_unwind(|| cases_from(Some(bad)));
            assert!(got.is_err(), "{bad:?} accepted");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_round_trip(
            xs in crate::collection::vec((0u64..100, any::<bool>()), 1..20),
            scale in 1u64..4,
        ) {
            prop_assert!(!xs.is_empty());
            for (x, _flag) in &xs {
                prop_assert!(*x < 100);
                prop_assert_eq!(x * scale / scale, *x);
            }
        }
    }
}

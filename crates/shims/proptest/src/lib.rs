//! Offline stand-in for the `proptest` crate.
//!
//! The build container cannot reach crates.io, so this vendors the slice of
//! the proptest 1.x API the workspace's property tests use: the `proptest!`
//! macro, `Strategy` with `prop_map`, range and tuple strategies,
//! `collection::vec`, `any::<bool>()`, `ProptestConfig::with_cases`, and the
//! `prop_assert*` macros. No shrinking — a failing case panics with the
//! case number and generated inputs, which together with the deterministic
//! per-case RNG is enough to reproduce and debug.

use std::ops::{Range, RangeInclusive};

/// Default base seed when `HYBRID_TEST_SEED` is unset (keeps historical
/// streams bit-identical).
const DEFAULT_BASE_SEED: u64 = 0xD1B54A32D192ED03;

/// The base seed all per-case RNGs derive from: the `HYBRID_TEST_SEED`
/// environment variable when set (so a CI soak or a failure reproduction
/// can pin the whole stream), else `DEFAULT_BASE_SEED`. Read once.
pub fn base_seed() -> u64 {
    static SEED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *SEED.get_or_init(|| match std::env::var("HYBRID_TEST_SEED") {
        Ok(s) => s
            .trim()
            .parse()
            .expect("HYBRID_TEST_SEED must be an unsigned integer"),
        Err(_) => DEFAULT_BASE_SEED,
    })
}

/// Deterministic per-case RNG (SplitMix64 over the base seed).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn for_case(case: u64) -> Self {
        // Decorrelate consecutive case indices.
        TestRng {
            state: case.wrapping_mul(0x9E3779B97F4A7C15) ^ base_seed(),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A generator of values of type `Value`. Unlike real proptest there is no
/// value tree or shrinking; `generate` draws one value directly.
pub trait Strategy {
    type Value: std::fmt::Debug + Clone;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: std::fmt::Debug + Clone,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: std::fmt::Debug + Clone,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Output of [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, T, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Strategy that always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: std::fmt::Debug + Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "strategy on empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128 % span) as i128;
                (self.start as i128 + off) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! int_range_inclusive_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "strategy on empty range");
                let span = (*self.end() as i128 - *self.start() as i128 + 1) as u128;
                let off = (rng.next_u64() as u128 % span) as i128;
                (*self.start() as i128 + off) as $t
            }
        }
    )*};
}

int_range_inclusive_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "strategy on empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+ );)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0);
    (A.0, B.1);
    (A.0, B.1, C.2);
    (A.0, B.1, C.2, D.3);
    (A.0, B.1, C.2, D.3, E.4);
    (A.0, B.1, C.2, D.3, E.4, F.5);
}

/// `any::<T>()` support (only the types the workspace generates).
pub trait Arbitrary: std::fmt::Debug + Clone {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy produced by [`any`].
#[derive(Debug, Clone, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for vectors whose length is drawn from `len`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start).max(1) as u64;
            let n = self.len.start + (rng.next_u64() % span) as usize;
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }
}

/// Number-of-cases knob (the only config field the workspace sets).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*)
    };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*)
    };
}

/// The `proptest!` block: expands each `fn name(arg in strategy, ...) {}`
/// into a `#[test]` that runs `cases` deterministic draws. A failing draw
/// reports its case number and the generated inputs (no shrinking).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_fns {
    (cfg = $cfg:expr;) => {};
    (cfg = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            for case in 0..cfg.cases as u64 {
                let mut rng = $crate::TestRng::for_case(case);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let inputs = format!(
                    concat!($(stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                let result = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(|| $body),
                );
                if let Err(e) = result {
                    eprintln!(
                        "proptest case {case} of {} (base seed {seed}) failed \
                         with inputs: {inputs}\n\
                         reproduce with: HYBRID_TEST_SEED={seed} cargo test {}",
                        stringify!($name),
                        stringify!($name),
                        seed = $crate::base_seed(),
                    );
                    ::std::panic::resume_unwind(e);
                }
            }
        }
        $crate::__proptest_fns! { cfg = $cfg; $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_vecs(
            x in 3u32..10,
            v in crate::collection::vec((0u64..5, any::<bool>()), 0..4),
        ) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(v.len() < 4);
            for (n, _) in &v {
                prop_assert!(*n < 5);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]
        #[test]
        fn prop_map_applies(y in (1u8..3).prop_map(|v| v * 10)) {
            prop_assert!(y == 10 || y == 20);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let s = (0u64..1000, 5i64..9);
        let a: Vec<_> = (0..20)
            .map(|c| s.generate(&mut crate::TestRng::for_case(c)))
            .collect();
        let b: Vec<_> = (0..20)
            .map(|c| s.generate(&mut crate::TestRng::for_case(c)))
            .collect();
        assert_eq!(a, b);
    }
}

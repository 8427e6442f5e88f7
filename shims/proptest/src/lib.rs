//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access and no vendored registry, so
//! the real `proptest` cannot be fetched. This shim implements the subset of
//! its API that the workspace's property tests use — `proptest!`,
//! `prop_assert!`/`prop_assert_eq!`, `prop_oneof!`, `Strategy` with
//! `prop_map`, integer-range and tuple strategies, `any::<T>()`, and
//! `prop::collection::vec` — on top of a small deterministic RNG. Cases are
//! seeded from the test name, so failures reproduce exactly across runs.
//!
//! Shrinking is intentionally not implemented: a failing case panics with the
//! sampled inputs' `Debug` output instead.

/// Deterministic splitmix64 generator driving all sampling.
#[derive(Clone, Debug)]
pub struct TestRng(u64);

impl TestRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed(seed: u64) -> Self {
        TestRng(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }
}

/// Hashes a test name into a stable per-test seed (FNV-1a).
#[must_use]
pub fn seed_for(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Run-count configuration, mirroring `proptest::test_runner::Config`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each test executes.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps sampled values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Object-safe sampling, backing [`BoxedStrategy`].
trait DynStrategy<V> {
    fn sample_dyn(&self, rng: &mut TestRng) -> V;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.sample(rng)
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<V>(Box<dyn DynStrategy<V>>);

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        self.0.sample_dyn(rng)
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Uniform choice among same-valued strategies (`prop_oneof!`).
pub struct Union<V>(pub Vec<BoxedStrategy<V>>);

impl<V> Strategy for Union<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let idx = rng.below(self.0.len() as u64) as usize;
        self.0[idx].sample(rng)
    }
}

/// Integers samplable from a half-open range.
pub trait SampleRange: Copy {
    /// Widens to `u64` for uniform sampling.
    fn to_u64(self) -> u64;
    /// Narrows back after sampling.
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize);

impl<T: SampleRange> Strategy for std::ops::Range<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let lo = self.start.to_u64();
        let hi = self.end.to_u64();
        assert!(hi > lo, "empty range strategy");
        T::from_u64(lo + rng.below(hi - lo))
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng), self.2.sample(rng))
    }
}

/// Always produces a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<V>(pub V);

impl<V: Clone> Strategy for Just<V> {
    type Value = V;
    fn sample(&self, _rng: &mut TestRng) -> V {
        self.0.clone()
    }
}

/// Types with a canonical full-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value of the type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy over the whole domain of `T`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full-domain strategy for `T` (proptest's `any::<T>()`).
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Element-count specification: an exact size or a half-open range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.end > r.start, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy producing `Vec`s of `element` with a size drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy type returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo
                + if span == 0 {
                    0
                } else {
                    rng.below(span) as usize
                };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a property test file needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{any, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines `#[test]` functions that run their body over many random samples.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg); $($rest)*);
    };
    (@cfg ($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let seed = $crate::seed_for(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..u64::from(config.cases) {
                    let mut rng = $crate::TestRng::seed(seed ^ case.wrapping_mul(0xA076_1D64_78BD_642F));
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                    $body
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()); $($rest)*);
    };
}

/// `assert!` under proptest's spelling.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under proptest's spelling.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` under proptest's spelling.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniformly picks one of several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in 0usize..4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 4);
        }

        #[test]
        fn vec_sizes_respect_spec(
            exact in prop::collection::vec(0u32..5, 7),
            ranged in prop::collection::vec(any::<u64>(), 1..4),
        ) {
            prop_assert_eq!(exact.len(), 7);
            prop_assert!((1..4).contains(&ranged.len()));
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![
            (0u64..10).prop_map(|x| x * 2),
            (100u64..110).prop_map(|x| x + 1),
        ]) {
            prop_assert!(v.is_multiple_of(2) && v < 20 || (101..111).contains(&v));
        }
    }

    #[test]
    fn same_name_same_samples() {
        let mut a = super::TestRng::seed(super::seed_for("x"));
        let mut b = super::TestRng::seed(super::seed_for("x"));
        assert_eq!(a.next_u64(), b.next_u64());
    }
}

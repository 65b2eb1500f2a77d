//! Vendored, std-only subset of the `proptest` API.
//!
//! The build environment has no registry access, so — like
//! `vendor-rand` — the property-testing surface the workspace's
//! `tests/prop.rs` suites use is reimplemented here: the [`proptest!`]
//! macro, [`Strategy`](strategy::Strategy) with
//! `prop_map`/`prop_filter_map`/`boxed`, [`prop_oneof!`],
//! `prop::collection::vec`, [`any`](arbitrary::any), and the
//! `prop_assert*` macros.
//!
//! Deliberate deviations from the real crate:
//!
//! * **No shrinking.** A failing case panics with the test name and
//!   the 64-bit seed that produced it; rerun with that seed under a
//!   debugger instead of minimizing.
//! * **Deterministic by default.** Case `i` of test `t` is seeded from
//!   `fnv1a(t)` and `i`, so failures reproduce across runs and
//!   machines. Set `PROPTEST_CASES` to override the case count.
//! * **Rejection** (`prop_filter_map`, `TestCaseError::Reject`) retries
//!   with fresh randomness and gives up loudly after a bounded number
//!   of attempts instead of tracking global rejection ratios.

use rand::rngs::StdRng;

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use rand::rngs::StdRng;
    use rand::Rng;

    /// A recipe for random values. `pick` draws one; combinators mirror
    /// the real crate's. Only `pick` is required, and it is object-safe
    /// so strategies can be boxed.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn pick(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Keeps only values `f` maps to `Some`, retrying (bounded) on
        /// rejection. `reason` is reported if the retries run dry.
        fn prop_filter_map<U, F>(self, reason: &'static str, f: F) -> FilterMap<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> Option<U>,
        {
            FilterMap {
                inner: self,
                reason,
                f,
            }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn pick(&self, rng: &mut StdRng) -> Self::Value {
            (**self).pick(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn pick(&self, rng: &mut StdRng) -> Self::Value {
            (**self).pick(rng)
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn pick(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn pick(&self, rng: &mut StdRng) -> U {
            (self.f)(self.inner.pick(rng))
        }
    }

    /// See [`Strategy::prop_filter_map`].
    #[derive(Debug, Clone)]
    pub struct FilterMap<S, F> {
        inner: S,
        reason: &'static str,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> Option<U>> Strategy for FilterMap<S, F> {
        type Value = U;
        fn pick(&self, rng: &mut StdRng) -> U {
            for _ in 0..1000 {
                if let Some(v) = (self.f)(self.inner.pick(rng)) {
                    return v;
                }
            }
            panic!(
                "prop_filter_map rejected 1000 draws in a row: {}",
                self.reason
            )
        }
    }

    /// Uniform choice between boxed alternatives — what [`prop_oneof!`]
    /// builds.
    ///
    /// [`prop_oneof!`]: crate::prop_oneof
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union; panics if `options` is empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn pick(&self, rng: &mut StdRng) -> T {
            let i = rng.gen_range(0..self.options.len());
            self.options[i].pick(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),+) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn pick(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn pick(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )+};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn pick(&self, rng: &mut StdRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident . $i:tt),+))+) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn pick(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$i.pick(rng),)+)
                }
            }
        )+};
    }
    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }

    impl<S: Strategy, const N: usize> Strategy for [S; N] {
        type Value = [S::Value; N];
        fn pick(&self, rng: &mut StdRng) -> Self::Value {
            core::array::from_fn(|i| self[i].pick(rng))
        }
    }
}

pub mod arbitrary {
    //! [`any`] — strategies for whole primitive domains.

    use core::marker::PhantomData;
    use rand::rngs::StdRng;
    use rand::Rng;

    use crate::strategy::Strategy;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary {
        /// Draws a uniform value from the whole domain.
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut StdRng) -> bool {
            rng.gen::<bool>()
        }
    }

    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut StdRng) -> u64 {
            rng.gen::<u64>()
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty),+) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut StdRng) -> $t {
                    rng.gen::<u64>() as $t
                }
            }
        )+};
    }
    int_arbitrary!(u8, u16, u32, usize, i8, i16, i32, i64, isize);

    /// The strategy [`any`] returns.
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(PhantomData<T>);

    /// A strategy covering `T`'s whole domain.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn pick(&self, rng: &mut StdRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).

    use rand::rngs::StdRng;

    use crate::strategy::Strategy;

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    /// A `Vec` whose length is drawn from `size` and whose elements
    /// come from `element`. The size is a concrete `Range<usize>` (not
    /// a generic strategy) so bare literals like `0..24` infer.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn pick(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = Strategy::pick(&self.size, rng);
            (0..n).map(|_| self.element.pick(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Configuration and failure plumbing for [`proptest!`] bodies.
    //!
    //! [`proptest!`]: crate::proptest

    /// Per-block configuration (`#![proptest_config(...)]`).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases each test must pass.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TestCaseError {
        /// The property is violated; the run aborts.
        Fail(String),
        /// The inputs were unsuitable; the case is retried.
        Reject(String),
    }

    impl TestCaseError {
        /// A failure carrying `msg`.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// A rejection carrying `msg`.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    impl core::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "{m}"),
                TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            }
        }
    }
}

/// Runs the cases of one `proptest!` test. Hidden plumbing for the
/// macro; seeds are derived from the test name so every run (and every
/// machine) explores the same cases.
#[doc(hidden)]
pub fn __run_cases(
    cfg: test_runner::ProptestConfig,
    name: &str,
    mut case: impl FnMut(&mut StdRng) -> Result<(), test_runner::TestCaseError>,
) {
    use rand::SeedableRng;

    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(cfg.cases);
    let mut base: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        base = (base ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    let mut passed = 0u32;
    let mut rejected = 0u32;
    let mut attempt = 0u64;
    while passed < cases {
        let seed = base ^ attempt.wrapping_mul(0x9E3779B97F4A7C15);
        let mut rng = StdRng::seed_from_u64(seed);
        match case(&mut rng) {
            Ok(()) => passed += 1,
            Err(test_runner::TestCaseError::Reject(reason)) => {
                rejected += 1;
                if rejected > cases.saturating_mul(16) + 256 {
                    panic!("proptest `{name}`: too many rejected cases ({reason})");
                }
            }
            Err(test_runner::TestCaseError::Fail(msg)) => {
                panic!("proptest `{name}` failed (case {passed}, seed {seed:#018x}):\n{msg}");
            }
        }
        attempt += 1;
    }
}

/// Defines property tests: an optional `#![proptest_config(...)]`
/// inner attribute, then `#[test]` functions whose parameters are
/// either `pattern in strategy` bindings or `name: Type` (drawn via
/// [`Arbitrary`](arbitrary::Arbitrary)).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($params:tt)*) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::__run_cases($cfg, stringify!($name), |rng| {
                $crate::__proptest_bind!(rng, $body, $($params)*)
            });
        }
    )*};
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident, $body:block, ) => {
        (|| -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
            $body
            ::core::result::Result::Ok(())
        })()
    };
    ($rng:ident, $body:block, $i:ident : $t:ty $(, $($rest:tt)*)?) => {{
        let $i = <$t as $crate::arbitrary::Arbitrary>::arbitrary($rng);
        $crate::__proptest_bind!($rng, $body, $($($rest)*)?)
    }};
    ($rng:ident, $body:block, $p:pat in $e:expr $(, $($rest:tt)*)?) => {{
        let $p = $crate::strategy::Strategy::pick(&$e, $rng);
        $crate::__proptest_bind!($rng, $body, $($($rest)*)?)
    }};
}

/// Uniform choice among strategy arms (all arms are boxed to a common
/// value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::Strategy::boxed($arm)),+])
    };
}

/// Like `assert!`, but fails the surrounding property case instead of
/// panicking directly (so the runner can report the seed).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Like `assert_eq!`, but fails the surrounding property case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        if !(*left == *right) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: `{:?} == {:?}`", left, right),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(*left == *right) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: `{:?} == {:?}`: {}",
                    left,
                    right,
                    format!($($fmt)+)
                ),
            ));
        }
    }};
}

/// `prop::` paths (`prop::collection::vec`), as re-exported by the
/// prelude.
pub mod prop {
    pub use crate::collection;
}

/// The glob import test files use: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use crate::__run_cases;
    use crate::prelude::*;

    #[test]
    fn strategies_stay_in_bounds() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let s = prop::collection::vec((0u32..10, 5u64..=6), 3..8);
        for _ in 0..200 {
            let v = s.pick(&mut rng);
            assert!((3..8).contains(&v.len()));
            for (a, b) in v {
                assert!(a < 10);
                assert!((5..=6).contains(&b));
            }
        }
    }

    #[test]
    fn oneof_covers_every_arm() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let s = prop_oneof![Just(1u8), Just(2u8), (5u8..8).prop_map(|v| v)];
        let mut seen = [false; 8];
        for _ in 0..200 {
            seen[s.pick(&mut rng) as usize] = true;
        }
        assert_eq!(seen, [false, true, true, false, false, true, true, true]);
    }

    #[test]
    fn filter_map_retries_until_accepted() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let s = (0u32..100).prop_filter_map("odd", |v| (v % 2 == 0).then_some(v));
        for _ in 0..100 {
            assert_eq!(s.pick(&mut rng) % 2, 0);
        }
    }

    // The macro front-end, exercised end to end (mixed binding styles,
    // config override, helper functions returning Result).
    fn helper(x: u64) -> Result<(), TestCaseError> {
        prop_assert!(x < u64::MAX, "never fires");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_binds_patterns_and_types(
            (a, b) in (0u32..50, 0u32..50),
            raw: u64,
            flag: bool,
            xs in prop::collection::vec(0u8..4, 0..6),
        ) {
            prop_assert!(a < 50 && b < 50);
            helper(raw)?;
            prop_assert!(xs.len() < 6);
            prop_assert_eq!(flag as u8 <= 1, true);
            for x in &xs {
                prop_assert!(*x < 4, "x={}", x);
            }
        }

        #[test]
        fn arrays_and_unions(v in [0u64..=3, 0u64..=3], pick in prop_oneof![Just(0u8), Just(1u8)]) {
            prop_assert!(v[0] <= 3 && v[1] <= 3);
            prop_assert!(pick <= 1);
        }
    }

    #[test]
    #[should_panic(expected = "seed")]
    fn failures_report_the_seed() {
        __run_cases(ProptestConfig::with_cases(4), "demo", |_| {
            Err(TestCaseError::fail("boom"))
        });
    }

    #[test]
    fn cases_are_deterministic_per_name() {
        let mut a = Vec::new();
        __run_cases(ProptestConfig::with_cases(5), "det", |rng| {
            a.push(Strategy::pick(&(0u64..1000), rng));
            Ok(())
        });
        let mut b = Vec::new();
        __run_cases(ProptestConfig::with_cases(5), "det", |rng| {
            b.push(Strategy::pick(&(0u64..1000), rng));
            Ok(())
        });
        assert_eq!(a, b);
    }
}

//! Minimal API-compatible stand-in for `proptest`.
//!
//! The build environment has no network access to a crates registry, so the
//! real `proptest` cannot be fetched. This shim implements the subset the
//! workspace uses — the `proptest!` macro (with `#![proptest_config(..)]`,
//! `name: Type` and `name in strategy` argument forms), integer-range,
//! tuple and `collection::vec` strategies, `any::<T>()`, and the `prop_assert*`
//! macros — on top of a deterministic SplitMix64 generator.
//!
//! Unlike the real proptest there is **no shrinking** and no persisted
//! failure seeds: cases are generated from a seed derived from the test's
//! module path and case number, so failures reproduce exactly across runs
//! and machines. A failing case names itself — `case k/n of name` — whether
//! it returned an error (`prop_assert!`) or panicked (`assert!`, `expect`).

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A source of random values of one type (no shrinking).
    pub trait Strategy {
        /// The value type produced.
        type Value;
        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128).wrapping_sub(self.start as u128);
                    (self.start as u128 + (rng.next_u64() as u128) % span) as $t
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as u128).wrapping_sub(start as u128).wrapping_add(1);
                    if span == 0 {
                        // Full-width inclusive range.
                        return rng.next_u64() as $t;
                    }
                    (start as u128 + (rng.next_u64() as u128) % span) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($($s:ident . $i:tt),*) => {
            impl<$($s: Strategy),*> Strategy for ($($s,)*) {
                type Value = ($($s::Value,)*);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.sample(rng),)*)
                }
            }
        };
    }
    tuple_strategy!(A.0, B.1);
    tuple_strategy!(A.0, B.1, C.2);

    /// Strategy for any value of an [`crate::arbitrary::Arbitrary`] type.
    pub struct Any<T>(pub(crate) std::marker::PhantomData<T>);

    impl<T: crate::arbitrary::Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod arbitrary {
    use crate::test_runner::TestRng;

    /// Types with a canonical "any value" generator.
    pub trait Arbitrary: Sized {
        /// Draw an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl<T: Arbitrary> Arbitrary for Vec<T> {
        fn arbitrary(rng: &mut TestRng) -> Vec<T> {
            // The real proptest defaults to sizes 0..100; stay in that
            // ballpark but occasionally produce larger vectors.
            let len = match rng.next_u64() % 8 {
                0 => 0,
                7 => (rng.next_u64() % 512) as usize,
                _ => (rng.next_u64() % 100) as usize,
            };
            (0..len).map(|_| T::arbitrary(rng)).collect()
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// An inclusive range of collection sizes (mirrors proptest's
    /// `SizeRange`, so bare `a..b` literals infer as `usize`).
    pub struct SizeRange {
        min: usize,
        /// Inclusive upper bound.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s whose elements come from `element` and
    /// whose length is drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec(element, sizes)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min) as u64 + 1;
            let len = self.size.min + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod test_runner {
    use std::fmt;

    /// Number of cases to run per property (the real default is 256; this
    /// shim defaults lower to keep the suite fast; override with
    /// `#![proptest_config(ProptestConfig::with_cases(n))]`).
    pub const DEFAULT_CASES: u32 = 48;

    /// Per-property configuration.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of cases to run.
        pub cases: u32,
    }

    impl Config {
        /// Run `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config {
                cases: DEFAULT_CASES,
            }
        }
    }

    /// A failed (or rejected) test case.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// An assertion failed.
        Fail(String),
        /// The case was rejected (unused by this shim, kept for parity).
        Reject(String),
    }

    impl TestCaseError {
        /// Build a failure from a message.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        /// Build a rejection from a message.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Fail(r) => write!(f, "assertion failed: {r}"),
                TestCaseError::Reject(r) => write!(f, "rejected: {r}"),
            }
        }
    }

    /// Result of one test case.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Names the running case when its body *panics* — an `assert!` or an
    /// `expect` inside the property, where a `prop_assert!` would have
    /// returned an error for the runner to report. Armed for the length of
    /// one case; says nothing when the case returns.
    pub struct CaseGuard {
        /// The property's name.
        pub name: &'static str,
        /// The case running, from 0.
        pub case: u32,
        /// The number of cases the property runs.
        pub cases: u32,
    }

    impl Drop for CaseGuard {
        fn drop(&mut self) {
            if std::thread::panicking() {
                use std::io::Write;
                let CaseGuard { name, case, cases } = *self;
                // A failed write must not panic inside an unwind.
                let case = case + 1;
                let _ = writeln!(
                    std::io::stderr(),
                    "proptest case {case}/{cases} of {name} panicked"
                );
            }
        }
    }

    /// Deterministic SplitMix64 generator, seeded from the test identity
    /// and case number (stable across runs and machines).
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for case `case` of the test identified by `ident`.
        pub fn for_case(ident: &str, case: u32) -> Self {
            // FNV-1a over the identity, mixed with the case number.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in ident.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng {
                state: h ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(case as u64 + 1)),
            }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}

/// Strategy for any value of type `T`.
pub fn any<T: arbitrary::Arbitrary>() -> strategy::Any<T> {
    strategy::Any(std::marker::PhantomData)
}

pub mod prelude {
    pub use crate::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

pub use test_runner::Config as ProptestConfig;

/// Assert a condition inside a property, failing the case (not panicking)
/// when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            )
            .map_err(::std::convert::Into::into);
        }
    };
}

/// Assert two values are equal inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "{:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "{:?} != {:?}: {}", l, r, format!($($fmt)*));
    }};
}

/// Assert two values are unequal inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "{:?} == {:?}", l, r);
    }};
}

/// Discard the current case when an assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            // No rejection bookkeeping in the shim: treat as a pass.
            return ::std::result::Result::Ok(());
        }
    };
}

/// Bind the argument list of a `proptest!` function: `name in strategy`
/// draws from the strategy, `name: Type` draws an arbitrary value.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident;) => {};
    ($rng:ident; $var:ident in $strat:expr) => {
        let $var = $crate::strategy::Strategy::sample(&($strat), &mut $rng);
    };
    ($rng:ident; $var:ident in $strat:expr, $($rest:tt)*) => {
        let $var = $crate::strategy::Strategy::sample(&($strat), &mut $rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
    ($rng:ident; $var:ident : $ty:ty) => {
        let $var: $ty = <$ty as $crate::arbitrary::Arbitrary>::arbitrary(&mut $rng);
    };
    ($rng:ident; $var:ident : $ty:ty, $($rest:tt)*) => {
        let $var: $ty = <$ty as $crate::arbitrary::Arbitrary>::arbitrary(&mut $rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ($cfg:expr;) => {};
    ($cfg:expr;
        $(#[$meta:meta])*
        fn $name:ident($($args:tt)*) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::Config = $cfg;
            for __case in 0..__config.cases {
                let mut __rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> = {
                    let __armed = $crate::test_runner::CaseGuard {
                        name: stringify!($name),
                        case: __case,
                        cases: __config.cases,
                    };
                    (|| {
                        $crate::__proptest_bind!(__rng; $($args)*);
                        $body
                        ::std::result::Result::Ok(())
                    })()
                };
                if let ::std::result::Result::Err(e) = __result {
                    panic!(
                        "proptest case {}/{} of {} failed: {}",
                        __case + 1,
                        __config.cases,
                        stringify!($name),
                        e
                    );
                }
            }
        }
        $crate::__proptest_fns!($cfg; $($rest)*);
    };
}

/// The `proptest!` block macro: wraps `#[test]` functions whose arguments
/// are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!($cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(
            <$crate::test_runner::Config as ::std::default::Default>::default();
            $($rest)*
        );
    };
}

#[cfg(test)]
mod tests {
    proptest! {
        #![proptest_config(crate::ProptestConfig::with_cases(4))]

        #[test]
        fn prop_pairs_and_triples_draw_each_member(
            pair in (0u8..4, 10usize..12),
            runs in crate::collection::vec((0u32..3, 5u64..6, 0i8..1), 1..4),
        ) {
            prop_assert!(pair.0 < 4 && (10..12).contains(&pair.1));
            prop_assert!(runs.iter().all(|&(a, b, c)| a < 3 && b == 5 && c == 0));
        }

        // The case guard names the case on stderr (`case 3/4 of …
        // panicked`) and lets the panic through: it must not turn it into
        // a double panic, which would abort the test binary.
        #[test]
        #[should_panic(expected = "a plain assert")]
        fn prop_a_panicking_case_unwinds_through_its_guard(n in 0u8..1) {
            assert!(n > 0, "a plain assert");
        }
    }
}

//! In-tree shim for the subset of `proptest` used by this workspace.
//!
//! The offline build environment cannot fetch the real crate, so this
//! module provides the same *surface*: the [`proptest!`] macro,
//! [`prop_assert!`]/[`prop_assert_eq!`], `any::<T>()`, range and tuple
//! strategies, `Just`, [`prop_oneof!`], `collection::vec`, and the
//! `prop_map`/`prop_flat_map`/`prop_filter_map` combinators.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **no shrinking** — a failing case reports its seed and case index
//!   instead of a minimized input;
//! * **deterministic seeding** — each test derives its base seed from its
//!   fully qualified name (override with `PROPTEST_SEED=<u64>`), so runs
//!   are reproducible by default;
//! * `PROPTEST_CASES=<n>` overrides the case count globally.

pub mod rng;
pub mod strategy;

pub mod arbitrary {
    //! `any::<T>()` — uniform sampling over a type's natural domain.

    use crate::rng::TestRng;
    use crate::strategy::Strategy;
    use std::marker::PhantomData;

    /// Types with a canonical "arbitrary value" distribution.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    // Bias towards structurally interesting values: edges of
                    // the domain and small magnitudes show up often.
                    match rng.next_u64() % 8 {
                        0 => 0 as $t,
                        1 => <$t>::MAX,
                        2 => <$t>::MIN,
                        3 => (rng.next_u64() % 16) as $t,
                        _ => rng.next_u64() as $t,
                    }
                }
            }
        )*};
    }
    int_arbitrary!(u8, u16, i32);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy produced by [`any`].
    pub struct Any<T>(PhantomData<T>);

    /// Uniform-ish sampling over all of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod collection {
    //! Collection strategies (`vec`).

    use crate::rng::TestRng;
    use crate::strategy::Strategy;
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with length drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Vector of values from `element`, length in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start).max(1);
            let n = self.len.start + (rng.next_u64() as usize % span);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Config and error types for the [`crate::proptest!`] runner.

    /// Per-test configuration.
    pub struct ProptestConfig {
        /// Number of random cases to run.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config with an explicit case count.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }

        /// Effective case count (`PROPTEST_CASES` env overrides).
        pub fn effective_cases(&self) -> u32 {
            std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(self.cases)
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// A failed property: carries the failure message.
    #[derive(Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Constructs a failure with the given message.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }
}

pub mod prelude {
    //! Everything a test file needs with one import.
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Derives a deterministic 64-bit seed from a test's qualified name
/// (FNV-1a), unless `PROPTEST_SEED` overrides it.
pub fn seed_for(name: &str) -> u64 {
    if let Some(s) = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        return s;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Asserts a condition inside a property, failing the case (not panicking
/// the process) so the runner can report seed and case index.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Equality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
            left,
            right
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(left == right, $($fmt)*);
    }};
}

/// Weighted choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Defines property tests: each `fn name(pat in strategy, …) { body }`
/// becomes a `#[test]` that samples its strategies `cases` times.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            let base_seed =
                $crate::seed_for(concat!(module_path!(), "::", stringify!($name)));
            let cases = config.effective_cases();
            for case in 0..cases {
                let mut rng = $crate::rng::TestRng::new(
                    base_seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                $(let $pat = $crate::strategy::Strategy::sample(&$strat, &mut rng);)+
                let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body Ok(()) })();
                if let Err(e) = result {
                    panic!(
                        "property failed at case {}/{} (base seed {:#x}): {}",
                        case, cases, base_seed, e
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod self_tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn tuples_ranges_and_vecs_compose(
            (n, xs) in (1usize..20).prop_flat_map(|n| {
                (Just(n), crate::collection::vec(0u64..100, 0..50))
            }),
            flag in any::<bool>(),
        ) {
            prop_assert!((1..20).contains(&n));
            prop_assert!(xs.iter().all(|&x| x < 100));
            let _ = flag;
        }

        #[test]
        fn oneof_respects_value_sets(v in prop_oneof![
            3 => Just(1u32),
            1 => (10u32..20).prop_map(|x| x),
        ]) {
            prop_assert!(v == 1 || (10..20).contains(&v));
        }

        #[test]
        fn filter_map_filters(v in (0u32..100).prop_filter_map("odd", |x| {
            (x % 2 == 0).then_some(x)
        })) {
            prop_assert!(v % 2 == 0);
        }
    }

    #[test]
    fn seeds_differ_per_name() {
        assert_ne!(crate::seed_for("a::b"), crate::seed_for("a::c"));
    }
}

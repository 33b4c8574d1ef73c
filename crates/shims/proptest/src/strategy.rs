//! Sampling strategies and combinators.
//!
//! A [`Strategy`] is a recipe for generating values of one type from the
//! test RNG. Unlike real proptest there is no shrinking, so a strategy is
//! just a sampling function; all combinators compose sampling functions.

use crate::rng::TestRng;
use std::ops::Range;

/// A recipe for sampling values of type `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Builds a second strategy from each generated value and samples it
    /// (dependent generation).
    fn prop_flat_map<U: Strategy, F: Fn(Self::Value) -> U>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Keeps only values for which `f` returns `Some`, resampling otherwise;
    /// gives up (panics) after many consecutive rejections.
    fn prop_filter_map<U, F: Fn(Self::Value) -> Option<U>>(
        self,
        whence: &'static str,
        f: F,
    ) -> FilterMap<Self, F>
    where
        Self: Sized,
    {
        FilterMap {
            inner: self,
            whence,
            f,
        }
    }

    /// Type-erases the strategy (needed by [`crate::prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Object-safe sampling, used behind [`BoxedStrategy`].
trait DynStrategy<T> {
    fn sample_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.sample(rng)
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn DynStrategy<T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        self.0.sample_dyn(rng)
    }
}

/// Always produces a clone of the given value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: Strategy, F: Fn(S::Value) -> U> Strategy for FlatMap<S, F> {
    type Value = U::Value;
    fn sample(&self, rng: &mut TestRng) -> U::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

const FILTER_RETRIES: usize = 10_000;

/// See [`Strategy::prop_filter_map`].
pub struct FilterMap<S, F> {
    inner: S,
    whence: &'static str,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> Option<U>> Strategy for FilterMap<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        for _ in 0..FILTER_RETRIES {
            if let Some(v) = (self.f)(self.inner.sample(rng)) {
                return v;
            }
        }
        panic!("prop_filter_map rejected every sample: {}", self.whence);
    }
}

/// Weighted union of same-valued strategies (built by [`crate::prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> Union<T> {
    /// Builds a union; weights must sum to a positive value.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof needs positive total weight");
        Union { arms, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total);
        for (w, s) in &self.arms {
            if pick < *w as u64 {
                return s.sample(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weights exhausted")
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128 - self.start as i128) as u128;
                assert!(span > 0, "empty range strategy");
                let off = (rng.next_u64() as u128 % span) as i128;
                (self.start as i128 + off) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u32, u64, usize);

impl Strategy for Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        self.start + (rng.unit_f64() as f32) * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A, B)
    (A, B, C)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_sample_in_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..1000 {
            let x = (5u32..9).sample(&mut rng);
            assert!((5..9).contains(&x));
            let f = (0.25f32..0.75).sample(&mut rng);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn union_honours_weights_roughly() {
        let mut rng = TestRng::new(2);
        let u = Union::new(vec![(9, Just(0u8).boxed()), (1, Just(1u8).boxed())]);
        let ones: u32 = (0..10_000).map(|_| u.sample(&mut rng) as u32).sum();
        assert!((500..2000).contains(&ones), "ones = {ones}");
    }
}

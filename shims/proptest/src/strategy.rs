//! Value-generation strategies (sampling only; no shrinking).

use crate::TestRng;
use rand::Rng;

/// A recipe for generating random values of one type.
pub trait Strategy {
    /// The type of value generated.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Builds a dependent strategy from each generated value (e.g. a length
    /// first, then vectors of that length).
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { base: self, f }
    }

    /// Maps generated values through a function.
    fn prop_map<T, F>(self, f: F) -> MapS<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        MapS { base: self, f }
    }
}

/// Always produces a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategies!(f64, usize, u64, u32, i64, i32);

macro_rules! tuple_strategies {
    ($(($($name:ident : $idx:tt),+);)*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
tuple_strategies! {
    (A: 0);
    (A: 0, B: 1);
    (A: 0, B: 1, C: 2);
    (A: 0, B: 1, C: 2, D: 3);
    (A: 0, B: 1, C: 2, D: 3, E: 4);
}

/// Result of [`Strategy::prop_flat_map`].
pub struct FlatMap<B, F> {
    base: B,
    f: F,
}

impl<B, S, F> Strategy for FlatMap<B, F>
where
    B: Strategy,
    S: Strategy,
    F: Fn(B::Value) -> S,
{
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        let seed_value = self.base.sample(rng);
        (self.f)(seed_value).sample(rng)
    }
}

/// Result of [`Strategy::prop_map`].
pub struct MapS<B, F> {
    base: B,
    f: F,
}

impl<B, T, F> Strategy for MapS<B, F>
where
    B: Strategy,
    F: Fn(B::Value) -> T,
{
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.f)(self.base.sample(rng))
    }
}

/// Object-safe strategy view, used by `prop_oneof!` to mix strategy types.
pub trait DynStrategy<V> {
    /// Draws one value.
    fn sample_dyn(&self, rng: &mut TestRng) -> V;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.sample(rng)
    }
}

/// Uniform choice between boxed strategies of one value type.
pub struct OneOf<V> {
    arms: Vec<Box<dyn DynStrategy<V>>>,
}

impl<V> OneOf<V> {
    /// Builds the union; `prop_oneof!` is the usual entry point.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty.
    pub fn new(arms: Vec<Box<dyn DynStrategy<V>>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { arms }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let i = rng.gen_range(0..self.arms.len());
        self.arms[i].sample_dyn(rng)
    }
}

/// Size specification for [`vec()`]: a fixed length or a length range.
pub trait IntoSizeRange {
    /// Inclusive `(min, max)` length bounds.
    fn bounds(self) -> (usize, usize);
}

impl IntoSizeRange for usize {
    fn bounds(self) -> (usize, usize) {
        (self, self)
    }
}

impl IntoSizeRange for std::ops::Range<usize> {
    fn bounds(self) -> (usize, usize) {
        assert!(self.start < self.end, "empty vec length range");
        (self.start, self.end - 1)
    }
}

impl IntoSizeRange for std::ops::RangeInclusive<usize> {
    fn bounds(self) -> (usize, usize) {
        (*self.start(), *self.end())
    }
}

/// Strategy for vectors whose elements come from `element`.
pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
    let (min, max) = size.bounds();
    VecStrategy { element, min, max }
}

/// Result of [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    min: usize,
    max: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.gen_range(self.min..=self.max);
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in -3.0..7.0f64, n in 1usize..10) {
            prop_assert!((-3.0..7.0).contains(&x));
            prop_assert!((1..10).contains(&n));
        }

        #[test]
        fn flat_map_vecs_have_requested_len(
            (len, v) in (1usize..20).prop_flat_map(|n| (Just(n), prop::collection::vec(0.0..1.0f64, n)))
        ) {
            prop_assert_eq!(v.len(), len);
        }

        #[test]
        fn oneof_covers_all_arms(x in prop_oneof![Just(1.0f64), Just(2.0), 10.0..11.0f64]) {
            prop_assert!(x == 1.0 || x == 2.0 || (10.0..11.0).contains(&x), "x = {x}");
        }

        #[test]
        fn assume_skips(n in 0usize..10) {
            prop_assume!(n > 2);
            prop_assert!(n > 2);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_report_case_and_seed() {
        crate::runner::run("always_fails", |_rng| Err("nope".to_string()));
    }
}

//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset `tests/properties.rs` uses: the [`Strategy`]
//! trait with `prop_map` / `prop_recursive`, tuple and range strategies,
//! `any::<T>()` for primitives, `prop::collection::vec`,
//! `prop::sample::select`, character-class string strategies
//! (`"[a-z0-9]{1,3}"`), and the [`proptest!`] / [`prop_oneof!`] /
//! [`prop_assert!`] macros. Cases are generated from a deterministic
//! per-test RNG; failing inputs are reported via panic message but NOT
//! shrunk — swap this crate for the registry `proptest` when a network
//! is available.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use std::sync::Arc;

/// The RNG handed to strategies.
pub type TestRng = StdRng;

/// Generation interface: no shrinking, just sampling.
pub trait Strategy {
    /// The value type this strategy produces.
    type Value;

    /// Sample one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Build a recursive strategy: `self` is the leaf; `branch` wraps a
    /// strategy for subtrees into a strategy for one more level.
    fn prop_recursive<S2, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        branch: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + Clone + 'static,
        Self::Value: 'static,
        S2: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S2,
    {
        let leaf: BoxedStrategy<Self::Value> = self.clone().boxed();
        let mut cur = leaf.clone();
        for _ in 0..depth {
            // Each level is a coin flip between bottoming out at a leaf
            // and growing one more ply, like proptest's weighted lazy
            // recursion but materialised to a fixed depth.
            cur = OneOf {
                options: vec![leaf.clone(), branch(cur).boxed()],
            }
            .boxed();
        }
        cur
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Arc::new(self))
    }
}

/// Type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(self.0.clone())
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// Result of [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice between boxed alternatives (backs [`prop_oneof!`]).
pub struct OneOf<T> {
    /// The alternatives; chosen uniformly.
    pub options: Vec<BoxedStrategy<T>>,
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.random_range(0..self.options.len());
        self.options[i].generate(rng)
    }
}

// ------------------------------------------------------ leaf strategies --

/// `any::<T>()` marker (proptest's `Arbitrary`).
#[derive(Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// Uniform values of a primitive type.
pub fn any<T>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_any_int {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $S:ident),+))*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (0 S0)
    (0 S0, 1 S1)
    (0 S0, 1 S1, 2 S2)
    (0 S0, 1 S1, 2 S2, 3 S3)
}

/// `&str` character-class patterns like `"[a-z0-9]{1,3}"` are strategies
/// producing matching strings. Only `[class]{lo,hi}` (and a bare
/// `[class]`, meaning one char) is supported — the subset this workspace
/// uses; anything else panics with a clear message.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (alphabet, lo, hi) = parse_class_pattern(self).unwrap_or_else(|| {
            panic!(
                "unsupported pattern strategy {self:?} (shim supports only \"[class]{{lo,hi}}\")"
            )
        });
        let len = rng.random_range(lo..=hi);
        (0..len)
            .map(|_| alphabet[rng.random_range(0..alphabet.len())])
            .collect()
    }
}

fn parse_class_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let close = rest.find(']')?;
    let class: Vec<char> = rest[..close].chars().collect();
    let mut alphabet = Vec::new();
    let mut i = 0;
    while i < class.len() {
        if i + 2 < class.len() && class[i + 1] == '-' {
            let (a, b) = (class[i], class[i + 2]);
            if a > b {
                return None;
            }
            alphabet.extend((a..=b).filter(|c| c.is_ascii()));
            i += 3;
        } else {
            alphabet.push(class[i]);
            i += 1;
        }
    }
    if alphabet.is_empty() {
        return None;
    }
    let tail = &rest[close + 1..];
    if tail.is_empty() {
        return Some((alphabet, 1, 1));
    }
    let counts = tail.strip_prefix('{')?.strip_suffix('}')?;
    let (lo, hi) = counts.split_once(',')?;
    Some((alphabet, lo.trim().parse().ok()?, hi.trim().parse().ok()?))
}

// ------------------------------------------------------------ modules --

/// The `prop::` namespace.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::{Strategy, TestRng};
        use rand::RngExt;

        /// Strategy for `Vec`s with a length in `count`.
        #[derive(Clone)]
        pub struct VecStrategy<S> {
            element: S,
            count: std::ops::Range<usize>,
        }

        /// `vec(element, lo..hi)`.
        pub fn vec<S: Strategy>(element: S, count: std::ops::Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, count }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = rng.random_range(self.count.clone());
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Sampling strategies.
    pub mod sample {
        use crate::{Strategy, TestRng};
        use rand::RngExt;

        /// Uniform choice from a fixed set.
        #[derive(Clone)]
        pub struct Select<T> {
            items: Vec<T>,
        }

        /// `select(&[..])` / `select(vec![..])`.
        pub fn select<T: Clone, I: AsRef<[T]>>(items: I) -> Select<T> {
            let items = items.as_ref().to_vec();
            assert!(!items.is_empty(), "select requires at least one item");
            Select { items }
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;
            fn generate(&self, rng: &mut TestRng) -> T {
                self.items[rng.random_range(0..self.items.len())].clone()
            }
        }
    }
}

/// Runner configuration.
pub mod test_runner {
    /// Mirror of `proptest::test_runner::Config`.
    #[derive(Clone, Copy)]
    pub struct Config {
        /// Number of cases to run per test.
        pub cases: u32,
    }

    impl Config {
        /// Run `cases` cases.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }
}

/// One-stop imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_oneof, proptest, BoxedStrategy, Strategy,
    };
}

/// Deterministic per-test seed: the test path hashed, so every test gets
/// its own reproducible stream.
pub fn rng_for(test_name: &str) -> TestRng {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    StdRng::seed_from_u64(h)
}

// ------------------------------------------------------------- macros --

/// Mirror of `proptest::proptest!`: expands each case into a `#[test]`
/// that samples `cases` inputs and runs the body on each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::Config::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr); $( #[test] fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                let mut rng = $crate::rng_for(concat!(module_path!(), "::", stringify!($name)));
                for _case in 0..config.cases {
                    $(let $arg = $crate::Strategy::generate(&$strat, &mut rng);)+
                    $body
                }
            }
        )*
    };
}

/// Mirror of `prop_oneof!`: uniform choice among the alternatives.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf { options: vec![$($crate::Strategy::boxed($strat)),+] }
    };
}

/// Mirror of `prop_assert!` (panics instead of returning `Err`; the shim
/// runner treats any panic as a failed case).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Mirror of `prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn class_patterns_parse() {
        let (alpha, lo, hi) = super::parse_class_pattern("[a-c0-1]{2,5}").unwrap();
        assert_eq!(alpha, vec!['a', 'b', 'c', '0', '1']);
        assert_eq!((lo, hi), (2, 5));
        assert!(super::parse_class_pattern("hello").is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn generated_strings_match_class(s in "[ab]{1,4}", n in 1usize..5) {
            prop_assert!(!s.is_empty() && s.len() <= 4);
            prop_assert!(s.chars().all(|c| c == 'a' || c == 'b'));
            prop_assert!((1..5).contains(&n));
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![
            (1usize..3).prop_map(|x| x * 10),
            prop::sample::select([7usize, 8]),
        ]) {
            prop_assert!(v == 10 || v == 20 || v == 7 || v == 8);
        }

        #[test]
        fn vec_and_tuple_strategies(items in prop::collection::vec((any::<bool>(), 0u8..4), 2..6)) {
            prop_assert!((2..6).contains(&items.len()));
            prop_assert!(items.iter().all(|(_, x)| *x < 4));
        }
    }
}

//! A seeded case loop for the workspace's property tests.
//!
//! The workspace names this crate `proptest` (`[workspace.dependencies]`),
//! and it implements the part of proptest's API those tests use:
//! [`Strategy`] with `prop_map`, `prop_flat_map` and `boxed`; integer and
//! float ranges; tuples; [`Just`]; [`any`]; [`sample::select`] and
//! [`sample::Index`]; [`collection::vec`]; [`option::of`]; [`bool::ANY`];
//! and the `proptest!`, `prop_oneof!`, `prop_assert*!` and `prop_assume!`
//! macros.
//!
//! Every draw comes from `FairRng`. A test's seed is the FNV-1a hash of its
//! path, and case `i` draws from stream `i` of that seed, so each run of a
//! test sees the same inputs. There is no shrinking: a failing case panics
//! with the test's seed and case number and prints the case's inputs,
//! drawn again from the same stream.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use fairwos_chaos::{fnv1a64, seeded_rng, FairRng};
use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// A generator of test inputs.
pub trait Strategy {
    /// The type of the inputs drawn.
    type Value;

    /// Draws one input.
    fn new_value(&self, rng: &mut FairRng) -> Self::Value;

    /// The inputs of `self` passed through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map(self, f)
    }

    /// Draws from the strategy `f` builds from an input of `self`.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap(self, f)
    }

    /// `self` behind a box, so strategies of different types can be mixed.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F>(S, F);

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn new_value(&self, rng: &mut FairRng) -> O {
        (self.1)(self.0.new_value(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F>(S, F);

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;

    fn new_value(&self, rng: &mut FairRng) -> T::Value {
        (self.1)(self.0.new_value(rng)).new_value(rng)
    }
}

/// See [`Strategy::boxed`].
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn new_value(&self, rng: &mut FairRng) -> T {
        self.0.new_value(rng)
    }
}

/// Always the one value.
#[derive(Clone, Copy, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn new_value(&self, _: &mut FairRng) -> T {
        self.0.clone()
    }
}

/// One of several strategies, picked uniformly per draw (`prop_oneof!`).
pub struct Union<T>(Vec<BoxedStrategy<T>>);

impl<T> Union<T> {
    /// A union of `options`.
    ///
    /// # Panics
    /// If `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "a union needs at least one strategy");
        Union(options)
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn new_value(&self, rng: &mut FairRng) -> T {
        self.0[rng.gen_range(0..self.0.len())].new_value(rng)
    }
}

macro_rules! ranges {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn new_value(&self, rng: &mut FairRng) -> $t {
                rng.gen_range(self.clone())
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn new_value(&self, rng: &mut FairRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
ranges!(u32, u64, usize, f32, f64);

impl Strategy for Range<u8> {
    type Value = u8;

    fn new_value(&self, rng: &mut FairRng) -> u8 {
        rng.gen_range(u32::from(self.start)..u32::from(self.end)) as u8
    }
}

macro_rules! tuples {
    ($(($($s:ident $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn new_value(&self, rng: &mut FairRng) -> Self::Value {
                ($(self.$i.new_value(rng),)+)
            }
        }
    )*};
}
tuples! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6)
}

/// Types [`any`] draws over their whole domain.
pub trait Arbitrary {
    /// One uniform draw.
    fn arbitrary(rng: &mut FairRng) -> Self;
}

impl Arbitrary for std::primitive::bool {
    fn arbitrary(rng: &mut FairRng) -> Self {
        rng.gen()
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut FairRng) -> Self {
        rng.next_u32() as u8
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut FairRng) -> Self {
        rng.next_u64()
    }
}

impl Arbitrary for usize {
    fn arbitrary(rng: &mut FairRng) -> Self {
        rng.next_u64() as usize
    }
}

/// See [`any`].
pub struct Any<T>(PhantomData<fn() -> T>);

/// Uniform draws of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn new_value(&self, rng: &mut FairRng) -> T {
        T::arbitrary(rng)
    }
}

/// Booleans.
pub mod bool {
    /// A fair coin.
    pub const ANY: crate::Any<std::primitive::bool> = crate::Any(std::marker::PhantomData);
}

/// Picks from fixed values.
pub mod sample {
    use super::{Arbitrary, Strategy};
    use fairwos_chaos::FairRng;

    /// See [`select`].
    pub struct Select<T>(Vec<T>);

    /// One of `values`, uniformly.
    ///
    /// # Panics
    /// If `values` is empty.
    pub fn select<T: Clone>(values: Vec<T>) -> Select<T> {
        assert!(!values.is_empty(), "select needs at least one value");
        Select(values)
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn new_value(&self, rng: &mut FairRng) -> T {
            self.0[rng.gen_range(0..self.0.len())].clone()
        }
    }

    /// A position in a collection whose length is known only later.
    #[derive(Clone, Copy, Debug)]
    pub struct Index(u64);

    impl Index {
        /// The position in a collection of `len` elements.
        ///
        /// # Panics
        /// If `len` is 0.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "index into an empty collection");
            ((u128::from(self.0) * len as u128) >> 64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut FairRng) -> Self {
            Index(rng.next_u64())
        }
    }
}

/// Vectors.
pub mod collection {
    use super::Strategy;
    use fairwos_chaos::FairRng;
    use std::ops::{Range, RangeInclusive};

    /// Lengths `lo..hi`.
    pub struct SizeRange(usize, usize);

    impl From<usize> for SizeRange {
        fn from(len: usize) -> Self {
            SizeRange(len, len + 1)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange(r.start, r.end)
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange(*r.start(), r.end() + 1)
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S>(S, SizeRange);

    /// Vectors of a length drawn from `len`, each element drawn from
    /// `element`.
    pub fn vec<S: Strategy>(element: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy(element, len.into())
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut FairRng) -> Self::Value {
            let SizeRange(lo, hi) = self.1;
            (0..rng.gen_range(lo..hi))
                .map(|_| self.0.new_value(rng))
                .collect()
        }
    }
}

/// Options.
pub mod option {
    use super::Strategy;
    use fairwos_chaos::FairRng;

    /// See [`of`].
    pub struct OptionStrategy<S>(S);

    /// `None` or `Some` of a draw from `inner`, each half the time.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn new_value(&self, rng: &mut FairRng) -> Self::Value {
            rng.gen::<bool>().then(|| self.0.new_value(rng))
        }
    }
}

/// The case loop.
pub mod test_runner {
    use super::{fnv1a64, seeded_rng, Debug, FairRng, Strategy};

    /// How many cases a test runs.
    #[derive(Clone, Copy, Debug)]
    pub struct Config {
        /// Cases that must pass (rejected cases do not count).
        pub cases: u32,
    }

    impl Config {
        /// `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        /// 256 cases, proptest's default.
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// Why a case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The inputs do not meet the test's assumptions (`prop_assume!`);
        /// another case is drawn.
        Reject,
        /// An assertion failed, with its message.
        Fail(String),
    }

    /// Rejected cases a test may draw before it fails (proptest's default).
    const MAX_REJECTS: u32 = 1024;

    /// The generator of case `case` of a test seeded with `seed`.
    fn case_rng(seed: u64, case: u32) -> FairRng {
        let mut rng = seeded_rng(seed);
        rng.set_stream(u64::from(case));
        rng
    }

    /// Names a case and its inputs when it fails; on a panic in the test
    /// body it prints them as the panic unwinds through the case loop.
    struct Reporter<'a, S: Strategy>
    where
        S::Value: Debug,
    {
        name: &'a str,
        seed: u64,
        case: u32,
        strategy: &'a S,
    }

    impl<S: Strategy> Reporter<'_, S>
    where
        S::Value: Debug,
    {
        fn describe(&self) -> String {
            let inputs = self.strategy.new_value(&mut case_rng(self.seed, self.case));
            format!(
                "{}: case {} of seed {:#018x} failed; inputs: {inputs:#?}",
                self.name, self.case, self.seed
            )
        }
    }

    impl<S: Strategy> Drop for Reporter<'_, S>
    where
        S::Value: Debug,
    {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("{}", self.describe());
            }
        }
    }

    /// Runs `test` on inputs drawn from `strategy` until `config.cases`
    /// cases pass. `name` seeds the draws.
    ///
    /// # Panics
    /// On the first failing case, naming it and printing its inputs, or
    /// after 1024 rejected cases.
    pub fn run<S: Strategy>(
        config: &Config,
        name: &str,
        strategy: &S,
        mut test: impl FnMut(S::Value) -> Result<(), TestCaseError>,
    ) where
        S::Value: Debug,
    {
        let seed = fnv1a64(name.as_bytes());
        let (mut passed, mut rejected) = (0, 0);
        let mut case = 0;
        while passed < config.cases {
            let reporter = Reporter {
                name,
                seed,
                case,
                strategy,
            };
            match test(strategy.new_value(&mut case_rng(seed, case))) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject) => {
                    rejected += 1;
                    assert!(rejected < MAX_REJECTS, "{name}: too many rejected cases");
                }
                Err(TestCaseError::Fail(msg)) => {
                    let case = reporter.describe();
                    std::mem::forget(reporter);
                    panic!("{case}\n{msg}");
                }
            }
            case += 1;
        }
    }
}

/// What a property test file imports.
pub mod prelude {
    pub use crate as prop;
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        BoxedStrategy, Just, Strategy,
    };
}

/// Defines `#[test]` functions whose arguments are drawn from strategies:
/// `fn name(pattern in strategy, ...) { body }`, optionally after
/// `#![proptest_config(config)]`. The body may `return` a
/// `TestCaseError` through `?` and the `prop_assert*!` macros.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($tests:tt)*) => {
        $crate::__case_fns!(($config) $($tests)*);
    };
    ($($tests:tt)*) => {
        $crate::__case_fns!(($crate::test_runner::Config::default()) $($tests)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __case_fns {
    (($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run(
                &$config,
                concat!(module_path!(), "::", stringify!($name)),
                &($($strategy,)+),
                |($($pat,)+)| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    Ok(())
                },
            );
        }
    )*};
}

/// A strategy drawing from one of the given strategies, picked uniformly.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Fails the case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => $crate::prop_assert!(
                *left == *right,
                "assertion failed: `left == right`\n  left: {:?}\n right: {:?}\n{}",
                left,
                right,
                format_args!($($fmt)+)
            ),
        }
    };
}

/// Fails the case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_ne!($left, $right, "")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => $crate::prop_assert!(
                *left != *right,
                "assertion failed: `left != right`\n  both: {:?}\n{}",
                left,
                format_args!($($fmt)+)
            ),
        }
    };
}

/// Rejects the case, and draws another, unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::test_runner::{run, Config};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn draws_stay_in_their_ranges_and_lengths() {
        let strategy = (
            3u64..9,
            0.5f64..=1.0,
            prop::collection::vec(0u8..4, 2..5),
            prop::sample::select(vec!['a', 'b']),
        );
        run(
            &Config::with_cases(500),
            "ranges",
            &strategy,
            |(u, f, v, c)| {
                prop_assert!((3..9).contains(&u));
                prop_assert!((0.5..=1.0).contains(&f));
                prop_assert!((2..5).contains(&v.len()) && v.iter().all(|&x| x < 4));
                prop_assert!(c == 'a' || c == 'b');
                Ok(())
            },
        );
    }

    #[test]
    fn the_same_test_draws_the_same_cases() {
        let draw = || {
            let mut seen = Vec::new();
            run(&Config::with_cases(20), "same", &any::<u64>(), |x| {
                seen.push(x);
                Ok(())
            });
            seen
        };
        let first = draw();
        assert_eq!(first, draw());
        assert!(first.windows(2).any(|w| w[0] != w[1]), "cases differ");
    }

    #[test]
    fn rejected_cases_do_not_count() {
        let mut calls = 0;
        run(&Config::with_cases(10), "assume", &(0u32..2), |x| {
            calls += 1;
            prop_assume!(x == 1);
            Ok(())
        });
        assert!(calls > 10, "{calls} calls for 10 passing cases");
    }

    #[test]
    fn a_failing_case_names_its_seed_case_and_inputs() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run(&Config::default(), "fails", &(0u32..100), |x| {
                prop_assert!(x < 90, "x = {x}");
                Ok(())
            })
        }));
        let panic = outcome.expect_err("a case must fail");
        let msg = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.starts_with("fails: case "), "{msg}");
        assert!(msg.contains("of seed 0x"), "{msg}");
        assert!(msg.contains("inputs: 9"), "{msg}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro form: patterns, a flat map, a union and `Just`.
        #[test]
        fn the_macro_runs_its_cases(
            (n, v) in (1usize..6).prop_flat_map(|n| (Just(n), prop::collection::vec(any::<bool>(), n))),
            pick in prop_oneof![Just(7u64), 10u64..12],
            idx in any::<prop::sample::Index>(),
            maybe in prop::option::of(prop::bool::ANY),
        ) {
            prop_assert_eq!(v.len(), n);
            prop_assert!(pick == 7 || pick == 10 || pick == 11);
            prop_assert!(idx.index(n) < n);
            prop_assert_ne!(pick, 8);
            prop_assert!(maybe.is_none() || maybe == Some(true) || maybe == Some(false));
        }
    }
}

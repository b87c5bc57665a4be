//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this workspace ships
//! the subset of proptest it actually uses:
//!
//! * the [`proptest!`] macro (with an optional
//!   `#![proptest_config(...)]` inner attribute);
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` /
//!   `prop_assume!`;
//! * [`Strategy`](strategy::Strategy) implementations for `&str` regex
//!   literals (character classes with `{m,n}` repetition — the only
//!   regex shape the test suite uses), integer ranges,
//!   [`any`](strategy::any) for primitives, tuples,
//!   `prop::collection::{vec, btree_map}` and `prop::sample::select`;
//! * the combinators `prop_map`, `prop_filter`, `Just` and the
//!   [`prop_oneof!`] macro (uniform arms, no weights).
//!
//! Cases are generated from a deterministic per-test SplitMix64 stream,
//! so failures reproduce across runs. There is no shrinking: a failing
//! case reports the panic message with the case number.

#![forbid(unsafe_code)]

pub mod strategy;
pub mod test_runner;

pub mod prop {
    //! Namespace mirror of `proptest::prop`.
    pub mod collection {
        //! Collection strategies.
        pub use crate::strategy::{btree_map, vec};
    }
    pub mod sample {
        //! Sampling strategies.
        pub use crate::strategy::select;
    }
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRunner};
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Declares deterministic property tests.
///
/// Supports the upstream surface used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(24))]
///     #[test]
///     fn name(x in 0usize..10, s in "[a-z]{1,4}") { prop_assert!(x < 10); }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$attr:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$attr])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut runner = $crate::test_runner::TestRunner::new(config, stringify!($name));
            for case in 0..runner.cases() {
                let mut rng = runner.rng_for_case(case);
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                match outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest case {case} failed: {msg}\n  inputs: {}",
                            concat!($(stringify!($arg), " "),+)
                        );
                    }
                }
            }
        }
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
}

/// A uniform choice between strategies producing the same value type
/// (mirror of `proptest::prop_oneof!`; no per-arm weights).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(::std::boxed::Box::new($strat)),+
        ])
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: `{:?}` == `{:?}`", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`: {}",
            l,
            r,
            format!($($fmt)+)
        );
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: `{:?}` != `{:?}`", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{:?}` != `{:?}`: {}",
            l,
            r,
            format!($($fmt)+)
        );
    }};
}

/// Skips the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond).to_owned(),
            ));
        }
    };
}

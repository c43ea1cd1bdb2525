//! In-tree property-testing substrate: the subset of the `proptest` API
//! that EnviroTrack's suites use, rebuilt on the workspace's own
//! deterministic RNG so the workspace tests hermetically with zero
//! external crates.
//!
//! # Design: choice tapes
//!
//! Values are generated by drawing `u64`s from a [`tape::Gen`] which records
//! every draw (the *choice tape*). Strategies are pure functions of the
//! tape, arranged so the all-zero tape yields each strategy's minimal
//! value. Shrinking therefore works on the tape alone — delete chunks,
//! zero entries, binary-search them downward — and every combinator
//! (`prop_map`, `prop_filter`, `prop_recursive`, `prop_oneof!`) shrinks
//! for free, with no per-type shrinker plumbing. This is the
//! Hypothesis-style internal-shrinking design, in miniature.
//!
//! # Porting from proptest
//!
//! | proptest | testkit |
//! |---|---|
//! | `use proptest::prelude::*` | `use testkit::prelude::*` |
//! | `proptest! { ... }` | `prop_test! { ... }` |
//! | `#![proptest_config(ProptestConfig::with_cases(n))]` | `#![config(Config::with_cases(n))]` |
//! | everything else in the table's scope | unchanged |
//!
//! Strategy expressions (`0u32..100`, `"[a-z]{1,12}"`, tuples,
//! `prop::collection::vec`, `prop::option::of`, `prop_oneof!`, `Just`,
//! `any::<T>()`, `.prop_map`, `.prop_filter`, `.prop_recursive`) and the
//! `prop_assert*`/`prop_assume!` macros keep their proptest spelling.
//!
//! # Reproducibility
//!
//! Case seeds derive from one master seed ([`Config::seed`], default
//! overridable via `TESTKIT_SEED`); `TESTKIT_CASES` scales every suite's
//! case count without touching code. Failure messages print the seed to
//! reproduce with.
//!
//! # Counting allocations
//!
//! [`alloc::Counting`] is the workspace's one counting global allocator,
//! for the tests and benches that pin how much a piece of work allocates.

pub mod alloc;
pub mod macros;
pub mod pattern;
pub mod runner;
pub mod strategy;
pub mod tape;

pub use runner::{check, reject, Config};
pub use strategy::{any, prop, Strategy, Union};

/// Everything a property-test module needs, mirroring
/// `proptest::prelude::*`.
pub mod prelude {
    pub use crate::runner::{check, reject, Config};
    pub use crate::strategy::{any, prop, Just, Strategy, Union};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, prop_test,
    };
}

//! # cda-testkit — zero-dependency deterministic testkit
//!
//! Makes the CDA workspace fully self-contained and regenerable offline,
//! per the paper's Soundness property (P4): every random draw and generated
//! property case in the repo flows through this crate under explicit fixed
//! seeds, so experiments replay byte-identically with **zero crates-io
//! dependencies**.
//!
//! Two sub-systems, each replacing an external crate:
//!
//! | module | replaces | surface |
//! |--------|----------|---------|
//! | [`rng`] | `rand` | [`rng::StdRng`] (xoshiro256++ / SplitMix64): `seed_from_u64`, `gen_range`, `gen_bool`, `gen`, `shuffle`, Gaussian |
//! | [`prop`] | `proptest` | choice-stream generators with automatic shrinking, [`proptest!`], `prop_assert*`, fixed-seed replay |
//!
//! Plus [`json`], the tiny writer/parser the `perf/` benchmark reports
//! through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod prop;
pub mod rng;

/// One-stop imports for property-test files (mirrors
/// `proptest::prelude::*`).
pub mod prelude {
    pub use crate::prop::{
        any, collection, option, string_class, Arbitrary, Config, Gen, GenExt, IntoGen, Just,
        ProptestConfig, TestCase, TestError,
    };
    pub use crate::rng::StdRng;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

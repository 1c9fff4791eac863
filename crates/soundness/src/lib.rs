//! # cda-soundness
//!
//! Property **P4 Soundness**: "the system should be able to judge whether an
//! answer is, with sufficiently high probability, correct or not, and
//! provide evidence of it", and "refrain from producing answers when unable
//! to produce any answer with sufficient certainty".
//!
//! * [`consistency`] — consistency-based black-box uncertainty
//!   quantification for text-to-SQL (the paper's reference \[7\],
//!   Bhattacharjya et al., NeurIPS 2024): sample k candidate programs,
//!   cluster them by **execution equivalence**, and use the majority
//!   cluster's mass as the confidence of its representative;
//! * [`verify`] — execution-based verification: a candidate SQL is *correct*
//!   iff its result table equals the gold program's result (modulo row
//!   order), the standard "execution accuracy" of NL2SQL benchmarks.
//!
//! The instruments that *measure* these signals — ECE, Brier score, AUROC
//! (experiment E5) and risk–coverage analysis of abstention (E6) — are
//! experiment apparatus and live in `cda-bench`'s lab (`calibration`,
//! `selective`).

// DESIGN.md §6: no panic and no stdio on product paths; `#[cfg(test)]` code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::allow_attributes, clippy::allow_attributes_without_reason))]

pub mod consistency;
pub mod verify;

pub use consistency::{ConsistencyUq, Execution, GroupOutcome, Known, UqRound};
pub use verify::execution_accuracy;

use std::fmt;

/// Errors from soundness machinery.
#[derive(Debug, Clone, PartialEq)]
pub enum SoundnessError {
    /// No samples were provided where at least one is required.
    NoSamples,
}

impl fmt::Display for SoundnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoSamples => f.write_str("at least one sample is required"),
        }
    }
}

impl std::error::Error for SoundnessError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SoundnessError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(SoundnessError::NoSamples.to_string().contains("sample"));
    }
}

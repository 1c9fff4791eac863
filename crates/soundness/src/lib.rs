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
//! * [`calibration`] — ECE, Brier score, reliability bins, and AUROC — the
//!   metrics experiment E5 reports when comparing consistency-UQ against
//!   the LM's own (overconfident) token-probability confidence;
//! * [`selective`] — selective answering: confidence-thresholded abstention
//!   with risk–coverage analysis (experiment E6);
//! * [`verify`] — execution-based verification: a candidate SQL is *correct*
//!   iff its result table equals the gold program's result (modulo row
//!   order), the standard "execution accuracy" of NL2SQL benchmarks.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calibration;
pub mod consistency;
pub mod selective;
pub mod verify;

pub use calibration::{auroc, brier_score, expected_calibration_error, log_loss, perplexity, ReliabilityBin};
pub use consistency::{
    consistency_confidence, ConsistencyReport, ConsistencyUq, Execution, UqRound, Winner,
};
pub use selective::{risk_coverage_curve, SelectivePolicy};
pub use verify::{execution_accuracy, tables_equal_unordered};

use std::fmt;

/// Errors from soundness machinery.
#[derive(Debug, Clone, PartialEq)]
pub enum SoundnessError {
    /// No samples were provided where at least one is required.
    NoSamples,
    /// Calibration input vectors disagreed in length.
    LengthMismatch,
}

impl fmt::Display for SoundnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoSamples => f.write_str("at least one sample is required"),
            Self::LengthMismatch => f.write_str("confidence and correctness vectors differ in length"),
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

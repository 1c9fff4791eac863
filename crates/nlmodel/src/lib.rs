//! # cda-nlmodel
//!
//! The **NL Model layer** (ⓒ in Figure 1-right): intent understanding,
//! NL→SQL translation and natural-language answer generation. The layer
//! does not depend on the static analyzer (`ci.sh` checks it): it only
//! generates candidates, and consistency UQ in `cda-soundness` gates them.
//!
//! ## The simulated language model (documented substitution)
//!
//! The paper assumes hosted LLMs. This reproduction replaces them with
//! [`lm::SimLm`], a deterministic, seedable generator with a **controllable
//! error process**: given the oracle analytic task (known, because our
//! workloads are synthetic), it emits the correct SQL with probability
//! `1 − h` and a realistic *hallucination* — wrong column, wrong table,
//! dropped filter, wrong aggregate, inverted comparison, or malformed
//! syntax — with probability `h`. Its token log-probabilities are
//! deliberately **miscalibrated** (overconfident), reproducing the paper's
//! observation that "confidence scores may not accurately reflect the true
//! probability of correctness". Because ground truth is known, the soundness
//! experiments (E5–E7) can measure calibration exactly — something
//! impossible against a black-box LLM.
//!
//! Modules:
//! * [`lm`] — the simulated LM: sampling, token log-probs, hallucination
//!   operators;
//! * [`intent`] — rule-scored intent classification with confidence;
//! * [`nl2sql`] — the analytic-task IR, NL phrasing generator, oracle
//!   parser, and SQL rendering (the workload generator of E5/E7);
//! * [`generation`] — template-based NL answer/summary generation with
//!   provenance citations.
//!
//! The output-control ablation the paper's Soundness section prescribes —
//! free, grammar-constrained, rejection-sampled and reward-reranked decoding
//! (experiment E7) — is experiment apparatus and lives in `cda-bench`'s lab
//! (`constrained`). The product draws its candidates through consistency UQ.

// DESIGN.md §6: no panic and no stdio on product paths; `#[cfg(test)]` code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::allow_attributes, clippy::allow_attributes_without_reason))]

pub mod bias;
pub mod generation;
pub mod intent;
pub mod lm;
pub mod nl2sql;

pub use intent::{classify_intent, Intent};
pub use lm::{Generation, SimLm, SimLmConfig};
pub use nl2sql::{AnalyticTask, Nl2SqlTask, Workload};

use std::fmt;

/// Errors from the NL model layer.
#[derive(Debug, Clone, PartialEq)]
pub enum NlError {
    /// The request could not be mapped to a known task shape.
    Unparseable(String),
    /// A referenced schema element does not exist.
    UnknownSchemaElement(String),
}

impl fmt::Display for NlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Unparseable(q) => write!(f, "could not parse request: {q:?}"),
            Self::UnknownSchemaElement(e) => write!(f, "unknown schema element {e:?}"),
        }
    }
}

impl std::error::Error for NlError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NlError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(NlError::Unparseable("hm".into()).to_string().contains("hm"));
    }
}

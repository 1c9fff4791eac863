//! # cda-provenance
//!
//! Provenance and explanation machinery for **P3 Explainability** (and the
//! evidence side of **P4 Soundness**).
//!
//! The paper demands that "for every answer it should be possible to explain
//! how the answer was computed", introduces two new explanation properties —
//! **losslessness** ("an answer explanation is indeed representative of the
//! calculations and source data used to generate it") and **invertibility**
//! ("to be able to recover individual calculations from an explanation") —
//! and asks for provenance to be "tracked across components".
//!
//! * [`semiring`] — provenance semirings: why-provenance (witness sets),
//!   how-provenance (polynomials over source-row variables), and the
//!   counting semiring, following Green et al.'s framework referenced by the
//!   paper's survey citation \[21\];
//! * [`lineage`] — the cross-component lineage graph: datasets, model calls,
//!   queries, computations, and answers linked by `derivedFrom` edges;
//! * [`checks`] — executable **losslessness** and **invertibility**
//!   verification: losslessness replays the query on *only the cited rows*
//!   and demands the same answer; invertibility recomputes an aggregate from
//!   its how-provenance and compares (experiment E4 reports both rates);
//! * [`explain`] — the user-facing explanation renderer (sources, plan,
//!   code, NL summary).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checks;
pub mod explain;
pub mod lineage;
pub mod mitigate;
pub mod semiring;

pub use checks::{check_invertibility, check_losslessness, check_plan_losslessness};
pub use mitigate::recalibrate;
pub use explain::Explanation;
pub use lineage::{LineageGraph, NodeKind};
pub use semiring::{HowPolynomial, Monomial};

use std::fmt;

/// Errors from provenance operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ProvenanceError {
    /// A referenced lineage node does not exist.
    UnknownNode(usize),
    /// The query replay needed for a check failed.
    Replay(String),
    /// A row index was out of range for the result table.
    RowOutOfRange {
        /// Requested row.
        row: usize,
        /// Table size.
        len: usize,
    },
}

impl fmt::Display for ProvenanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownNode(id) => write!(f, "unknown lineage node {id}"),
            Self::Replay(m) => write!(f, "replay failed: {m}"),
            Self::RowOutOfRange { row, len } => {
                write!(f, "row {row} out of range for result of {len} rows")
            }
        }
    }
}

impl std::error::Error for ProvenanceError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ProvenanceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(ProvenanceError::UnknownNode(3).to_string().contains('3'));
        assert!(ProvenanceError::RowOutOfRange { row: 9, len: 2 }.to_string().contains('9'));
    }
}

//! # cda-core
//!
//! The compound **Conversational Data Analytics** system — the paper's
//! primary contribution, assembled from the substrate crates exactly along
//! the architecture of Figure 1 (right):
//!
//! * ⓐ *Conversational Data Exploration*: [`dialogue`] (multi-turn state,
//!   routing, clarification) and [`answer`] (answers annotated with
//!   confidence, provenance, and property tags);
//! * ⓑ *Computational Infrastructure*: [`catalog`] (dataset registry with
//!   embedding-indexed discovery over [`cda_vector`]), the SQL engine, and
//!   the time-series routines;
//! * ⓒ *NL Model*: intent classification, NL2SQL with the simulated LM,
//!   constrained decoding, and template generation from [`cda_nlmodel`];
//! * ⓓ/ⓔ the data and answer layers: the demo domain in [`demo`] and the
//!   per-answer lineage from [`cda_provenance`].
//!
//! Reliability properties are explicit, *toggleable* mechanisms
//! ([`reliability::CdaConfig`]) so experiment F2 can ablate each and measure
//! the interplay of Figure 2.
//!
//! ## Quickstart
//!
//! ```
//! use cda_core::demo::demo_session;
//!
//! let mut cda = demo_session(42);
//! let turn = cda.process("Give me an overview of the working force in Switzerland");
//! assert!(turn.text.contains("labour market"));
//! assert!(turn.confidence.unwrap_or(0.0) > 0.5);
//! assert!(!turn.properties.is_empty());
//! ```
//!
//! Concurrent conversations share one immutable [`world::WorldSnapshot`]
//! behind an `Arc` and each open a cheap [`session::Session`] on it —
//! `cda-server` multiplexes thousands of them over a worker pool.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod answer;
pub mod catalog;
pub mod demo;
pub mod dialogue;
pub mod durable;
pub mod log;
pub mod mutation;
pub mod reliability;
pub mod rot;
pub mod session;
pub mod world;

pub use answer::{AnswerTurn, PropertyTag};
pub use catalog::{Dataset, DatasetCatalog};
pub use dialogue::Route;
pub use durable::DurableCache;
pub use mutation::{WriteDecision, WriteOutcome};
pub use reliability::CdaConfig;
pub use session::{CacheStats, CacheStore, Session, SessionStats};
pub use world::{WorldDelta, WorldSnapshot};

/// The storage layer, re-exported so callers assembling a durable world
/// (`WorldSnapshot::builder().with_storage(..)`) need not depend on
/// `cda-storage` directly.
pub use cda_storage as storage;

use std::fmt;

/// Errors from the compound system.
#[derive(Debug, Clone, PartialEq)]
pub enum CdaError {
    /// A dataset name was not found in the catalog.
    UnknownDataset(String),
    /// Substrate failure, carried as text (the dialogue layer converts
    /// errors into conversational repair, so this rarely escapes).
    Substrate(String),
}

impl fmt::Display for CdaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownDataset(d) => write!(f, "unknown dataset {d:?}"),
            Self::Substrate(m) => write!(f, "substrate error: {m}"),
        }
    }
}

impl std::error::Error for CdaError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CdaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(CdaError::UnknownDataset("x".into()).to_string().contains('x'));
    }
}

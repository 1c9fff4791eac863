//! # cda-kg
//!
//! A native knowledge-graph substrate for **P2 Grounding**: the paper argues
//! a CDA system must "query and perform reasoning over" domain knowledge
//! encoded in "Knowledge Graphs and similar complex taxonomies and
//! ontologies", and ground user terminology before answering.
//!
//! Components:
//!
//! * [`store`] — a dictionary-encoded triple store with SPO/POS/OSP indexes
//!   supporting pattern scans over any bound/unbound combination;
//! * [`reason`] — RDFS-style inference (`subClassOf` / `subPropertyOf`
//!   transitivity, type inheritance, domain/range typing), available both as
//!   up-front materialization and as query-time expansion (experiment E12
//!   compares the two);
//! * [`vocab`] — domain vocabulary with synonyms, definitions, and
//!   context-scored term disambiguation;
//! * [`linking`] — entity extraction (gazetteer maximal matching) and entity
//!   linking that combines lexical, embedding, and popularity evidence
//!   (experiment E3 ablates these signals).
//!
//! The basic-graph-pattern (BGP) engine that experiment E12 runs over this
//! store is experiment apparatus and lives in `cda-bench`'s lab (`query`).
//!
//! ## Example
//!
//! ```
//! use cda_kg::reason::Reasoner;
//! use cda_kg::store::TripleStore;
//!
//! let mut kg = TripleStore::new();
//! kg.insert("barometer", "type", "LeadingIndicator");
//! kg.insert("LeadingIndicator", "subClassOf", "Indicator");
//! kg.insert("barometer", "measures", "labour_market");
//! assert_eq!(kg.objects("barometer", "measures"), vec!["labour_market"]);
//! // the subclass chain types the barometer as an indicator at query time
//! assert!(Reasoner::new(&kg).is_a("barometer", "Indicator"));
//! ```

// DESIGN.md §6: no panic and no stdio on product paths; `#[cfg(test)]` code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::allow_attributes, clippy::allow_attributes_without_reason))]

pub mod error;
pub mod linking;
pub mod reason;
pub mod store;
pub mod vocab;

use error::KgError;
pub use store::TripleStore;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, KgError>;

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
//! * [`query`] — basic-graph-pattern (BGP) queries with variables, evaluated
//!   by selectivity-ordered backtracking joins (a small SPARQL core);
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
//! ## Example
//!
//! ```
//! use cda_kg::store::TripleStore;
//! use cda_kg::query::{Bgp, Pattern, Term};
//!
//! let mut kg = TripleStore::new();
//! kg.insert("barometer", "type", "Indicator");
//! kg.insert("barometer", "measures", "labour_market");
//! let bgp = Bgp::new(vec![
//!     Pattern::new(Term::var("x"), Term::iri("type"), Term::iri("Indicator")),
//!     Pattern::new(Term::var("x"), Term::iri("measures"), Term::var("what")),
//! ]);
//! let rows = bgp.evaluate(&kg);
//! assert_eq!(rows.len(), 1);
//! assert_eq!(rows[0].get("what"), Some("labour_market"));
//! ```

// DESIGN.md §6: no panic and no stdio on product paths; `#[cfg(test)]` code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::allow_attributes, clippy::allow_attributes_without_reason))]

pub mod error;
pub mod linking;
pub mod query;
pub mod reason;
pub mod store;
pub mod vocab;

use error::KgError;
pub use store::TripleStore;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, KgError>;

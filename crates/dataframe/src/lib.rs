//! # cda-dataframe
//!
//! A compact, dependency-free, in-memory **columnar table engine** that acts
//! as the storage and compute substrate of the CDA reproduction
//! (layer ⓑ, *Computational Infrastructure*, of Figure 1-right in the paper).
//!
//! The engine provides:
//!
//! * typed columnar storage ([`Column`]) over the scalar [`Value`] model,
//! * schemas with named, typed, nullable fields ([`Schema`], [`Field`]),
//! * immutable [`Table`]s with cheap row addressing and per-row
//!   **provenance identifiers** ([`RowId`]) that the SQL layer threads through
//!   every operator — the hook on which property **P3 Explainability** hangs;
//!   a table is a cheap handle over shared column buffers and one flat
//!   [`LineageStore`],
//! * CSV ingestion with type inference ([`csv`]),
//! * vectorized compute kernels (filter / take / sort / group) in
//!   [`kernels`],
//! * a columnar batch layer ([`batch`]: typed [`batch::Vector`]s, borrowed
//!   [`batch::Slot`] views, and zero-copy [`batch::ColumnWindow`]s) powering
//!   the SQL layer's morsel-parallel vectorized engine (DESIGN.md §12),
//! * per-column statistics ([`stats`]) consumed by the SQL optimizer, and
//! * abstract value domains with runtime domain-check kernels ([`domain`]):
//!   the data carrier of the analyzer's abstract interpreter and the
//!   sanitizer mode that cross-checks it (DESIGN.md §13).
//!
//! The crate is deliberately self-contained: the paper's P3 property demands
//! that *every* answer be traceable to source rows, which requires owning the
//! full storage/compute path rather than delegating to an opaque DBMS.
//!
//! ## Example
//!
//! ```
//! use cda_dataframe::{Table, Schema, Field, DataType, Column, Value};
//!
//! let schema = Schema::new(vec![
//!     Field::new("canton", DataType::Str),
//!     Field::new("employed", DataType::Int),
//! ]);
//! let table = Table::from_columns(
//!     schema,
//!     vec![
//!         Column::from_strs(&["ZH", "GE", "VD"]),
//!         Column::from_ints(&[1_000_000, 280_000, 420_000]),
//!     ],
//! )
//! .unwrap();
//! assert_eq!(table.num_rows(), 3);
//! assert_eq!(table.value(1, 0).unwrap(), Value::from("GE"));
//! ```

// DESIGN.md §6: no panic and no stdio on product paths; `#[cfg(test)]` code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::allow_attributes, clippy::allow_attributes_without_reason))]

pub mod batch;
pub mod column;
pub mod csv;
pub mod domain;
pub mod error;
pub mod kernels;
pub mod lineage;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use batch::{Batch, Slot, Vector};
pub use column::{Column, ColumnBuilder};
pub use domain::{ColDomain, DomainTree, Interval, NodeDomain, Nullness, StrDomain};
pub use error::DataFrameError;
pub use lineage::{LineageBuilder, LineageStore};
pub use schema::{Field, Schema};
pub use stats::ColumnStats;
pub use table::{RowId, Table};
pub use value::{DataType, Value};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DataFrameError>;

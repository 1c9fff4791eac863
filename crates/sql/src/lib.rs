//! # cda-sql
//!
//! A self-contained SQL engine over [`cda_dataframe`] tables: the query
//! substrate of the CDA reproduction (layer ⓑ of Figure 1-right).
//!
//! Pipeline: [`lexer`] → [`parser`] (AST in [`ast`]) → [`planner`] (logical
//! plan in [`plan`]) → [`optimizer`] → [`exec`]. [`compile`](compile()) runs
//! the front half once — text to a [`Compiled`] statement carrying the AST,
//! the logical plan and the plan that executes — and is the entry every
//! layer above this crate goes through; SELECT and DML share it.
//!
//! Execution has two engines sharing one semantics: the row-at-a-time
//! interpreter in [`exec`] (the reference oracle) and the vectorized
//! morsel-parallel engine in [`physical`]/[`morsel`], which lowers plans
//! onto columnar batch kernels and runs fixed-size morsels on a thread pool
//! with a deterministic merge order. The vectorized path is differentially
//! certified byte-identical to the reference — results, lineage, and stats,
//! at any thread count (DESIGN.md §12, experiment E17) — and is selected via
//! [`exec::ExecOptions`] / [`MorselConfig`].
//!
//! Two design points distinguish it from a generic toy engine and tie it to
//! the paper:
//!
//! 1. **Provenance-annotated execution (P3/P4).** Every operator propagates
//!    per-row lineage (`RowId` sets); aggregate rows carry the union of their
//!    inputs' lineage. The provenance crate turns these into why-/how-
//!    provenance explanations; the soundness crate uses execution results to
//!    verify NL-generated queries.
//! 2. **An inspectable optimizer.** Rules (constant folding, predicate
//!    pushdown, projection pruning) can be toggled individually so experiment
//!    E11 can measure each rule's effect — the paper's "holistic optimizer"
//!    argument made concrete at small scale.
//!
//! ## Supported SQL subset
//!
//! `SELECT [DISTINCT] expr [AS name], ... FROM table [alias]
//! [JOIN table [alias] ON expr]* [WHERE expr]
//! [GROUP BY expr, ...] [HAVING expr]
//! [ORDER BY expr [ASC|DESC], ...] [LIMIT n [OFFSET m]]`
//!
//! Expressions: literals, (qualified) column refs, `+ - * / %`, comparisons,
//! `AND OR NOT`, `IN (list)`, `BETWEEN`, `LIKE` (`%`/`_`), `IS [NOT] NULL`,
//! `CASE WHEN`, unary minus, and the aggregates `COUNT(*) COUNT SUM AVG MIN
//! MAX STDDEV`.
//!
//! DML ([`dml`]): `INSERT INTO t [(cols)] VALUES (…), …`,
//! `UPDATE t SET col = expr, … [WHERE expr]`, and
//! `DELETE FROM t [WHERE expr]` — parsed by [`parser::parse_statement`],
//! bound by [`dml::plan_dml`] (through [`plan_statement`]), executed by
//! [`dml::execute_dml_checked`]. Row
//! matching for UPDATE/DELETE reuses both query engines via lineage, so the
//! write path inherits their differential certification; execution returns a
//! replacement table committed through [`Catalog::replace_table`].
//!
//! ## Example
//!
//! ```
//! use cda_sql::{Catalog, execute};
//! use cda_dataframe::{Table, Schema, Field, DataType, Column};
//!
//! let mut catalog = Catalog::new();
//! let t = Table::from_columns(
//!     Schema::new(vec![Field::new("canton", DataType::Str), Field::new("jobs", DataType::Int)]),
//!     vec![Column::from_strs(&["ZH", "GE", "ZH"]), Column::from_ints(&[10, 20, 30])],
//! ).unwrap();
//! catalog.register("employment", t).unwrap();
//! let result = execute(&catalog, "SELECT canton, SUM(jobs) AS total FROM employment GROUP BY canton ORDER BY total DESC").unwrap();
//! assert_eq!(result.table.num_rows(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod catalog;
pub mod compile;
pub mod dml;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod morsel;
pub mod optimizer;
pub mod parser;
pub mod physical;
pub mod plan;
pub mod planner;

pub use catalog::Catalog;
pub use compile::{compile, plan_statement, Compiled, StatementPlan};
pub use dml::{
    execute_dml, execute_dml_checked, plan_dml, DmlKind, DmlPlan, DmlResult, WriteGuard,
};
pub use error::SqlError;
pub use exec::{
    execute, execute_plan, execute_plan_checked, execute_with_options, ExecOptions, QueryResult,
};
pub use morsel::MorselConfig;
pub use optimizer::OptimizerRules;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SqlError>;

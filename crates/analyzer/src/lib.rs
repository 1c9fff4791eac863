//! Static analysis for the CDA stack — layer-crossing soundness checks that
//! run *before* anything executes.
//!
//! The passes, by the layer they analyze:
//!
//! **SQL text → compiled statement: the gate.**
//!
//! * [`sqlcheck`] — the one place SQL text is compiled: [`Analyzer::gate`]
//!   binds the statement through `cda_sql`'s binder, which resolves its
//!   names and types and returns every fault, gives each fault its finding,
//!   then analyzes the bound logical plan (`cda_sql::plan::Plan`); it
//!   returns the compiled statement next to its report, and every layer
//!   above reuses it. It detects, without touching a single row, the query
//!   shapes that execution-based verification (`cda-soundness`) would only
//!   discover after paying full execution cost: unknown tables/columns,
//!   type misuse, GROUP BY violations (all from the binder), predicates
//!   that constant-fold to FALSE (provably-empty results), tautological
//!   filters, division by a literal zero, accidental cartesian joins,
//!   out-of-range column references, and `LIMIT 0`. Each finding carries a
//!   stable code (`A001`…), a severity, and an NL rendering for the answer
//!   annotation layer. The paper's Soundness property (P4) names parsing and
//!   constrained decoding as inference-time controls; `sqlcheck` is the
//!   static half of that control, wired in as a pre-execution gate for
//!   consistency UQ and the dialogue loop (experiment E13 measures the
//!   catch rate and the wall-clock saved).
//! * [`repair`] closes the diagnosis→generation loop: it translates gate
//!   findings into structured [`RepairHint`]s (nearest schema name by edit
//!   distance, expected type, `LIMIT` injection) that
//!   `Analyzer::gate_with_repair` applies to each sample consistency UQ
//!   draws.
//!
//! **Bound plans: facts about what a query returns.**
//!
//! * [`absint`] is a fixpoint abstract interpreter over bound plans: per
//!   node and per column it computes a product lattice of 3VL null-ness,
//!   numeric intervals, string length/prefix bounds, finite value sets
//!   (seeded from literals and catalog min/max/NDV statistics), and
//!   row-count bounds. Its facts feed four consumers: sqlcheck codes
//!   A015–A018 (provably-empty result, data-grounded tautology,
//!   provably-NULL output column, provable runtime error), interval
//!   sharpening of [`cardest`] bounds, a domain-disjointness fast path in
//!   [`equiv`], and the **sanitizer** in `cda-sql` that re-checks every
//!   materialized node output against its static domain at runtime
//!   (experiment E18; DESIGN.md §13).
//! * [`cardest`] bounds and estimates every plan node's row count from
//!   catalog statistics (sqlcheck A013, experiment E14).
//! * [`equiv`] decides whether two bound plans *mean the same thing*: a
//!   canonicalization pipeline hashes every plan into a stable
//!   [`PlanFingerprint`], and a bounded refutation search over generated
//!   tables settles (or honestly declines to settle) the cases fingerprints
//!   cannot. It powers the differential certifier for `sql::optimizer`
//!   rewrites ([`certify_optimizer`], surfacing `A014` findings), the
//!   semantic answer cache in `cda-core`, and equivalence-aware consistency
//!   UQ in `cda-soundness` (experiment E16 measures all three).
//!
//! **Statements: what a query or write touches.**
//!
//! * [`effects`] is a static read/write-set analysis over bound plans and
//!   DML statements: per statement it derives `(table, columns)` read and
//!   write sets (sharpened by [`absint`] — a provably-empty WHERE makes a
//!   write a provable no-op, interval analysis bounds affected-row counts).
//!   It powers the DML soundness gate (sqlcheck A019–A023),
//!   provably-precise semantic-cache invalidation in `cda-core`,
//!   effect-overlap write serialization in `cda-server`, and the runtime
//!   effect sanitizer (`cda_sql::WriteGuard`) behind
//!   `CdaConfig::effect_check`.

// DESIGN.md §6: no panic and no stdio on product paths; `#[cfg(test)]` code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::allow_attributes, clippy::allow_attributes_without_reason))]

pub mod absint;
pub mod cardest;
pub mod effects;
pub mod equiv;
pub mod repair;
pub mod sqlcheck;

pub use absint::{analyze, domain_tree, row_bounds, Analysis};
pub use effects::{
    compiled_effects, dml_effects, plan_reads, statement_effects, ColumnSet, EffectSet,
};
pub use cardest::{estimate, q_error, CardEstimate, Statistics};
pub use equiv::{certify_optimizer, EquivEngine, EquivResult, PlanFingerprint};
pub use repair::{apply_hints, edit_distance, nearest_name, repair_hints, RepairHint};
pub use sqlcheck::{Analyzer, Code, Finding, Report};

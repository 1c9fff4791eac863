//! Static analysis for the CDA stack — layer-crossing soundness checks that
//! run *before* anything executes.
//!
//! Two independent passes live here:
//!
//! * [`sqlcheck`] — a semantic lint/typecheck over parsed SQL ASTs and bound
//!   logical plans (`cda_sql::plan::Plan`), and the one place SQL text is
//!   compiled: [`Analyzer::gate`] returns the compiled statement next to its
//!   report, and every layer above reuses it. It detects, without touching a
//!   single row, the query shapes that execution-based verification
//!   (`cda-soundness`) would only discover after paying full execution cost:
//!   unknown tables/columns, type misuse, GROUP BY violations, predicates
//!   that constant-fold to FALSE (provably-empty results), tautological
//!   filters, division by a literal zero, accidental cartesian joins,
//!   out-of-range column references, and `LIMIT 0`. Each finding carries a
//!   stable code (`A001`…), a severity, and an NL rendering for the answer
//!   annotation layer. The paper's Soundness property (P4) names parsing and
//!   constrained decoding as inference-time controls; `sqlcheck` is the
//!   static half of that control, wired in as a pre-execution gate for the
//!   rejection sampler and the dialogue loop (experiment E13 measures the
//!   catch rate and the wall-clock saved).
//! * [`repolint`] — a dependency-free source scanner enforcing the repo
//!   conventions of DESIGN.md §6 (no `unsafe`, no `unwrap()`/`panic!` on
//!   non-test paths, module docs, crate-root lint headers, no stdio macros,
//!   file I/O or catalog mutation outside their owning modules), run by
//!   `ci.sh` via the `repolint` binary.
//!
//! A third pass, [`repair`], closes the diagnosis→generation loop: it
//! translates gate findings into structured [`RepairHint`]s (nearest schema
//! name by edit distance, expected type, `LIMIT` injection) that the
//! constrained decoder in `cda-nlmodel` applies before resampling.
//!
//! A fifth pass, [`absint`], is a fixpoint abstract interpreter over bound
//! plans: per node and per column it computes a product lattice of 3VL
//! null-ness, numeric intervals, string length/prefix bounds, finite value
//! sets (seeded from literals and catalog min/max/NDV statistics), and
//! row-count bounds. Its facts feed four consumers: sqlcheck codes
//! A015–A018 (provably-empty result, data-grounded tautology,
//! provably-NULL output column, provable runtime error), interval
//! sharpening of [`cardest`] bounds, a domain-disjointness fast path in
//! [`equiv`], and the **sanitizer** in `cda-sql` that re-checks every
//! materialized node output against its static domain at runtime
//! (experiment E18; DESIGN.md §13).
//!
//! A sixth pass, [`effects`], is a static read/write-set analysis over
//! bound plans and DML statements: per statement it derives
//! `(table, columns)` read and write sets (sharpened by [`absint`] — a
//! provably-empty WHERE makes a write a provable no-op, interval analysis
//! bounds affected-row counts). It powers the DML soundness gate (sqlcheck
//! A019–A023), provably-precise semantic-cache invalidation in `cda-core`,
//! effect-overlap write serialization in `cda-server`, and the runtime
//! effect sanitizer (`cda_sql::WriteGuard`) behind `CdaConfig::effect_check`.
//!
//! A fourth pass, [`equiv`], decides whether two bound plans *mean the same
//! thing*: a canonicalization pipeline hashes every plan into a stable
//! [`PlanFingerprint`], and a bounded refutation search over generated
//! tables settles (or honestly declines to settle) the cases fingerprints
//! cannot. It powers the differential certifier for `sql::optimizer`
//! rewrites ([`certify_optimizer`], surfacing `A014` findings), the
//! semantic answer cache in `cda-core`, and equivalence-aware consistency
//! UQ in `cda-soundness` (experiment E16 measures all three).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod cardest;
pub mod effects;
pub mod equiv;
pub mod repair;
pub mod repolint;
pub mod sqlcheck;

pub use absint::{abs_eval, abs_truth, analyze, domain_tree, row_bounds, AbsTruth, Analysis};
pub use effects::{
    compiled_effects, dml_effects, plan_effects, plan_reads, statement_effects, ColumnSet, EffectSet,
};
pub use cardest::{estimate, q_error, CardEstimate, Statistics, TableStatistics};
pub use equiv::{
    certify_optimizer, Counterexample, EquivEngine, EquivReport, EquivResult, PlanFingerprint,
    RuleCheck,
};
pub use repair::{apply_hints, edit_distance, nearest_name, repair_hints, Gated, RepairHint};
pub use sqlcheck::{Analyzer, Code, Finding, RenderOpts, Report, Severity};

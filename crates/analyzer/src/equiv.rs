//! `equiv` — a static plan-equivalence engine over bound [`Plan`]s.
//!
//! Two queries that *mean* the same thing should be treated as the same
//! query: the optimizer's rewrites should be certifiable against their
//! inputs, the dialogue loop should reuse answers it has effectively already
//! computed, and consistency UQ should count agreement over meaning rather
//! than surface syntax. All three reduce to one static-analysis question —
//! "are these two plans equivalent?" — answered here in two stages:
//!
//! 1. **Canonicalization** ([`EquivEngine::canonicalize`]): a
//!    semantics-preserving normal form — constant folding, `Filter(TRUE)` /
//!    no-op `Limit` elimination, adjacent-filter merging, conjunction
//!    flattening with deterministically ordered atoms, bounded CNF
//!    distribution, comparison orientation, predicate-pushdown and
//!    projection-pushdown normal forms — hashed into a stable
//!    [`PlanFingerprint`]. Equal fingerprints certify equivalence
//!    *constructively*: both plans normalize to the same tree.
//! 2. **Bounded refutation search** ([`EquivEngine::check`]): when
//!    fingerprints differ, both plans are executed over small generated
//!    tables (typed values drawn from `cda-testkit`'s deterministic PRNG,
//!    including the adversarial ones: zeros, empty strings, NULLs). A
//!    behavioural difference yields [`EquivResult::NotEquivalent`] with an
//!    auditable, re-checkable [`Counterexample`]; exhausting the budget
//!    yields [`EquivResult::Unknown`] — never a false `Equivalent`.
//!
//! The engine is **sequence-semantics** strict: equal fingerprints imply
//! byte-identical result tables including row order (which is what lets the
//! semantic answer cache serve stored `QueryResult`s verbatim). This rules
//! out join-side commutation — the nested-loop executor's row order is
//! left-major — so join *conditions* and conjunctions are canonicalized but
//! join operands are not swapped.
//!
//! Every reordering rule is gated on [`error_free`]: an atom that can raise
//! a runtime error (division/modulo by zero, arithmetic or `NOT`/`LIKE` over
//! a value of the wrong type) is never moved relative to its neighbours,
//! because `AND`/`OR` short-circuit and a reorder could change *whether* the
//! error fires. DESIGN.md §11 carries the per-rule soundness arguments.
//!
//! The module deliberately re-implements folding, pushdown, and pruning
//! instead of calling `cda_sql::optimizer`: the **differential certifier**
//! ([`certify_optimizer`]) checks the optimizer's rewrites against their
//! inputs, and sharing rewrite code would let one bug corrupt both sides of
//! the comparison. The only shared code is [`BoundExpr::eval`] — the
//! semantics being preserved.

use crate::sqlcheck::{Code, Finding};
use cda_dataframe::{Column, DataType, Schema, Table, Value};
use cda_sql::ast::{BinaryOp, JoinKind};
use cda_sql::exec::{execute_plan, ExecOptions};
use cda_sql::optimizer::{optimize, OptimizerRules};
use cda_sql::plan::{AggExpr, BoundExpr, Plan};
use cda_sql::planner::plan_select;
use cda_sql::Catalog;
use cda_testkit::rng::StdRng;
use std::collections::BTreeMap;
use std::fmt;

/// A stable 64-bit fingerprint of a canonicalized plan. Equal fingerprints
/// certify plan equivalence under sequence semantics (equal result tables,
/// row order included, with runtime errors identified with each other).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanFingerprint(u64);

impl PlanFingerprint {
    /// The raw 64-bit hash (for use as a cache key).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PlanFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The outcome of an equivalence check. Always auditable: `Equivalent`
/// carries the shared fingerprint, `NotEquivalent` a re-checkable
/// counterexample, `Unknown` the reason the search gave up.
#[derive(Debug, Clone, PartialEq)]
pub enum EquivResult {
    /// Both plans canonicalize to the same tree.
    Equivalent {
        /// The shared fingerprint of the canonical form.
        fingerprint: PlanFingerprint,
    },
    /// A generated database on which the two plans disagree.
    NotEquivalent {
        /// The witnessing database and both observed outcomes.
        counterexample: Counterexample,
    },
    /// Fingerprints differ and the bounded search found no counterexample.
    Unknown {
        /// Why the check could not decide.
        reason: String,
    },
}

impl EquivResult {
    /// True for `Equivalent`.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivResult::Equivalent { .. })
    }

    /// Short label for reports: `equivalent` / `not-equivalent` / `unknown`.
    pub fn label(&self) -> &'static str {
        match self {
            EquivResult::Equivalent { .. } => "equivalent",
            EquivResult::NotEquivalent { .. } => "not-equivalent",
            EquivResult::Unknown { .. } => "unknown",
        }
    }
}

/// A concrete database on which two plans produced different outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// The generated base tables, by catalog name.
    pub tables: Vec<(String, Table)>,
    /// Rendered outcome of the left plan on those tables.
    pub left_outcome: String,
    /// Rendered outcome of the right plan on those tables.
    pub right_outcome: String,
}

impl Counterexample {
    /// Re-execute both plans over the stored tables and confirm the
    /// divergence still reproduces (same pair of outcomes, still unequal).
    pub fn recheck(&self, left: &Plan, right: &Plan) -> bool {
        let Ok(catalog) = self.build_catalog() else { return false };
        let l = run_outcome(&catalog, left);
        let r = run_outcome(&catalog, right);
        l != r && l == self.left_outcome && r == self.right_outcome
    }

    fn build_catalog(&self) -> Result<Catalog, cda_sql::SqlError> {
        let mut c = Catalog::new();
        for (name, t) in &self.tables {
            c.register(name, t.clone())?;
        }
        Ok(c)
    }

    /// Render the witness: every generated table plus both outcomes.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (name, t) in &self.tables {
            out.push_str(&format!("table {name} ({} rows):\n{}", t.num_rows(), t.render(16)));
            out.push('\n');
        }
        out.push_str(&format!("left plan yields:\n{}\n", self.left_outcome));
        out.push_str(&format!("right plan yields:\n{}", self.right_outcome));
        out
    }
}

/// The equivalence engine: canonicalization plus a bounded, seeded
/// refutation search.
///
/// ```
/// # use cda_analyzer::equiv::EquivEngine;
/// # let catalog = cda_sql::Catalog::new();
/// let engine = EquivEngine::new().with_trials(6).with_seed(42);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct EquivEngine {
    trials: usize,
    seed: u64,
    max_cnf_atoms: usize,
}

impl Default for EquivEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// Row counts cycled through by the refutation trials: empty and tiny
/// tables surface edge behaviour (empty joins, single-group aggregates)
/// faster than big ones.
const TRIAL_SIZES: [usize; 6] = [0, 1, 2, 3, 5, 8];

impl EquivEngine {
    /// An engine with the default budget (6 refutation trials, seed 0,
    /// CNF distribution bounded at 16 atoms).
    pub fn new() -> Self {
        Self { trials: 6, seed: 0, max_cnf_atoms: 16 }
    }

    /// Set the number of generated databases tried before answering
    /// `Unknown`.
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Seed the deterministic table generator.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Canonicalize a plan: the semantics-preserving normal form whose hash
    /// is the plan's fingerprint.
    pub fn canonicalize(&self, plan: &Plan) -> Plan {
        let p = simplify_plan(plan.clone());
        let p = pushdown_nf(p);
        let p = projection_nf(p);
        normalize_plan_exprs(p, self.max_cnf_atoms)
    }

    /// The fingerprint of a plan's canonical form.
    pub fn fingerprint(&self, plan: &Plan) -> PlanFingerprint {
        let canon = self.canonicalize(plan);
        let mut ser = String::new();
        ser_plan(&canon, &mut ser);
        PlanFingerprint(fnv1a(ser.as_bytes()))
    }

    /// Decide whether two plans are equivalent: fingerprint first, bounded
    /// refutation search second.
    pub fn check(&self, left: &Plan, right: &Plan) -> EquivResult {
        let fl = self.fingerprint(left);
        let fr = self.fingerprint(right);
        if fl == fr {
            return EquivResult::Equivalent { fingerprint: fl };
        }
        // Fingerprints differ: search small generated databases for a
        // behavioural difference.
        let schemas = match scan_schemas(left).and_then(|mut s| {
            merge_scan_schemas(&mut s, right)?;
            Some(s)
        }) {
            Some(s) => s,
            None => {
                return EquivResult::Unknown {
                    reason: "the plans reference the same table with different schemas".into(),
                }
            }
        };
        // Domain fast path: when abstract interpretation proves exactly one
        // side empty on *every* database, a synthesized witness refutes
        // equivalence without entering the bounded search.
        if let Some(counterexample) = self.refute_by_domains(left, right) {
            return EquivResult::NotEquivalent { counterexample };
        }
        let pools = ValuePools::from_plans(&[left, right]);
        let mut rng = StdRng::seed_from_u64(self.seed);
        for trial in 0..self.trials {
            let rows = TRIAL_SIZES[trial % TRIAL_SIZES.len()];
            let mut tables = Vec::new();
            let mut catalog = Catalog::new();
            let mut ok = true;
            for (name, schema) in &schemas {
                let t = gen_table(schema, rows, &mut rng, &pools);
                if catalog.register(name, t.clone()).is_err() {
                    ok = false;
                    break;
                }
                tables.push((name.clone(), t));
            }
            if !ok {
                continue;
            }
            let lo = run_outcome(&catalog, left);
            let ro = run_outcome(&catalog, right);
            if lo != ro {
                return EquivResult::NotEquivalent {
                    counterexample: Counterexample {
                        tables,
                        left_outcome: lo,
                        right_outcome: ro,
                    },
                };
            }
        }
        EquivResult::Unknown {
            reason: format!(
                "fingerprints differ ({fl} vs {fr}) and {} refutation trials found no \
                 counterexample",
                self.trials
            ),
        }
    }

    /// The domain-disjointness fast path of [`check`](Self::check), public
    /// so its guarantee is directly testable: when [`crate::absint`] proves
    /// (statistics-free, i.e. on **every** database) that exactly one of
    /// the two plans returns no rows, the plans can only be equivalent if
    /// the live one also never returns rows — so any database on which the
    /// live plan produces output is a concrete counterexample. The live
    /// plan's own refined filter domains describe such rows, and
    /// [`cda_dataframe::domain::ColDomain::sample`] turns them into a
    /// witness database directly instead of searching for one. Returns the
    /// (re-checkable) counterexample, or `None` when the fast path does not
    /// apply or witness synthesis failed — never a false refutation, since
    /// the counterexample is a genuine behavioural divergence by
    /// construction.
    pub fn refute_by_domains(&self, left: &Plan, right: &Plan) -> Option<Counterexample> {
        let l_empty = crate::absint::row_bounds(left, None).1 == 0;
        let r_empty = crate::absint::row_bounds(right, None).1 == 0;
        if l_empty == r_empty {
            return None;
        }
        let live = if l_empty { right } else { left };
        let schemas = scan_schemas(left).and_then(|mut s| {
            merge_scan_schemas(&mut s, right)?;
            Some(s)
        })?;
        let pools = ValuePools::from_plans(&[left, right]);
        let tree = crate::absint::domain_tree(live, None);
        let mut samples: BTreeMap<String, Vec<Value>> = BTreeMap::new();
        collect_scan_samples(live, &tree, &mut samples);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xD0BA_51C5);
        for attempt in 0..4usize {
            let mut tables = Vec::new();
            let mut catalog = Catalog::new();
            let mut ok = true;
            for (name, schema) in &schemas {
                // First attempts use the domain-guided witness row; later
                // ones fall back to pool-generated tables in case a sample
                // was unavailable or the live plan still returned nothing.
                let t = match samples.get(name) {
                    Some(row) if attempt < 2 => table_from_row(schema, row)
                        .unwrap_or_else(|| gen_table(schema, 1 + attempt, &mut rng, &pools)),
                    _ => gen_table(schema, 1 + attempt, &mut rng, &pools),
                };
                if catalog.register(name, t.clone()).is_err() {
                    ok = false;
                    break;
                }
                tables.push((name.clone(), t));
            }
            if !ok {
                continue;
            }
            let lo = run_outcome(&catalog, left);
            let ro = run_outcome(&catalog, right);
            if lo != ro {
                return Some(Counterexample { tables, left_outcome: lo, right_outcome: ro });
            }
        }
        None
    }
}

/// Sample one surviving row per scanned table from the refined domains of
/// filters sitting directly above scans (where the filter's column space is
/// the scan's). The row is full-base-schema width; un-projected columns
/// stay NULL (base-table fields are nullable).
fn collect_scan_samples(
    plan: &Plan,
    tree: &cda_dataframe::DomainTree,
    out: &mut BTreeMap<String, Vec<Value>>,
) {
    if let Plan::Filter { input, .. } = plan {
        if let Plan::Scan { table, schema, projection } = input.as_ref() {
            if !out.contains_key(table) {
                if let Some(row) = row_from_domains(schema, projection, &tree.node.cols) {
                    out.insert(table.clone(), row);
                }
            }
        }
    }
    let children: Vec<&Plan> = match plan {
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Distinct { input }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => vec![input],
        Plan::Join { left, right, .. } => vec![left, right],
        Plan::Scan { .. } => vec![],
    };
    for (child_plan, child_tree) in children.into_iter().zip(&tree.children) {
        collect_scan_samples(child_plan, child_tree, out);
    }
}

fn row_from_domains(
    schema: &Schema,
    projection: &Option<Vec<usize>>,
    cols: &[cda_dataframe::ColDomain],
) -> Option<Vec<Value>> {
    let positions: Vec<usize> = match projection {
        Some(p) => p.clone(),
        None => (0..schema.len()).collect(),
    };
    let mut row = vec![Value::Null; schema.len()];
    for (k, &pos) in positions.iter().enumerate() {
        if pos >= row.len() {
            return None;
        }
        row[pos] = cols.get(k)?.sample()?;
    }
    Some(row)
}

fn table_from_row(schema: &Schema, row: &[Value]) -> Option<Table> {
    let mut columns = Vec::with_capacity(schema.len());
    for (i, field) in schema.fields().iter().enumerate() {
        // Finite value sets track literals as written; coerce the numeric
        // spellings the executor treats as equal into the column's type.
        let v = match (field.data_type(), row.get(i)?.clone()) {
            (DataType::Float, Value::Int(x)) => Value::Float(x as f64),
            (DataType::Timestamp, Value::Int(x)) => Value::Timestamp(x),
            (_, v) => v,
        };
        columns.push(Column::from_values(field.data_type(), &[v]).ok()?);
    }
    Table::from_columns(schema.clone(), columns).ok()
}

// ------------------------------------------------------------ certification

/// One rewrite checked by the differential certifier.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleCheck {
    /// The optimizer rule (or rule set) that produced the rewrite.
    pub rule: &'static str,
    /// The SQL whose plan was rewritten.
    pub sql: String,
    /// The equivalence verdict for input plan vs rewritten plan.
    pub result: EquivResult,
}

/// The certifier's verdict over a query corpus × the optimizer rule set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EquivReport {
    /// Every (query, rule) rewrite checked.
    pub checks: Vec<RuleCheck>,
}

impl EquivReport {
    /// True when every rewrite certified `Equivalent`.
    pub fn all_certified(&self) -> bool {
        self.checks.iter().all(|c| c.result.is_equivalent())
    }

    /// Number of rewrites that certified `Equivalent`.
    pub fn certified(&self) -> usize {
        self.checks.iter().filter(|c| c.result.is_equivalent()).count()
    }

    /// The checks that failed to certify, worst first (`NotEquivalent`
    /// before `Unknown`).
    pub fn uncertified(&self) -> Vec<&RuleCheck> {
        let mut out: Vec<&RuleCheck> =
            self.checks.iter().filter(|c| !c.result.is_equivalent()).collect();
        out.sort_by_key(|c| match c.result {
            EquivResult::NotEquivalent { .. } => 0,
            _ => 1,
        });
        out
    }

    /// Surface uncertified rewrites as analyzer findings (A014), one per
    /// failing (query, rule) pair, refuted rewrites first.
    #[expect(clippy::unreachable, reason = "uncertified() filters out equivalent checks")]
    pub fn findings(&self) -> Vec<Finding> {
        self.uncertified()
            .into_iter()
            .map(|c| {
                let detail = match &c.result {
                    EquivResult::NotEquivalent { counterexample } => format!(
                        "is provably not semantics-preserving; counterexample:\n{}",
                        counterexample.describe()
                    ),
                    EquivResult::Unknown { reason } => {
                        format!("could not be certified ({reason})")
                    }
                    EquivResult::Equivalent { .. } => unreachable!(),
                };
                Finding::new(
                    Code::UncertifiedRewrite,
                    format!("optimizer rule `{}` on `{}` {detail}", c.rule, c.sql),
                )
            })
            .collect()
    }
}

/// The individually-certified optimizer rule set: each rule alone, plus the
/// composed default. Kept in sync with [`OptimizerRules`] — the certifier
/// covers 100% of the rules the optimizer can apply.
pub const CERTIFIED_RULES: [(&str, OptimizerRules); 4] = [
    (
        "constant_folding",
        OptimizerRules { constant_folding: true, predicate_pushdown: false, projection_pruning: false },
    ),
    (
        "predicate_pushdown",
        OptimizerRules { constant_folding: false, predicate_pushdown: true, projection_pruning: false },
    ),
    (
        "projection_pruning",
        OptimizerRules { constant_folding: false, predicate_pushdown: false, projection_pruning: true },
    ),
    (
        "all",
        OptimizerRules { constant_folding: true, predicate_pushdown: true, projection_pruning: true },
    ),
];

/// Differentially certify the optimizer over a query corpus: for every
/// query that plans, check each rule's output (and the composed rule set)
/// against the unoptimized plan. Unparsable/unplannable queries are skipped
/// — there is no rewrite to certify.
pub fn certify_optimizer(engine: &EquivEngine, catalog: &Catalog, queries: &[String]) -> EquivReport {
    let mut report = EquivReport::default();
    for sql in queries {
        let Ok(select) = cda_sql::parser::parse(sql) else { continue };
        let Ok(plan) = plan_select(catalog, &select) else { continue };
        for (rule, rules) in CERTIFIED_RULES {
            let rewritten = optimize(plan.clone(), rules);
            let result = engine.check(&plan, &rewritten);
            report.checks.push(RuleCheck { rule, sql: sql.clone(), result });
        }
    }
    report
}

// ------------------------------------------------------------- error-free

/// True when evaluating `e` can never return `Err` on any row of the right
/// arity, for any input values. Conservative and purely syntactic: atoms
/// containing arithmetic (division by zero; `+`/`-`/`*` over non-numeric
/// values), `Neg`, `LIKE` (errors on non-string input), `CASE`, or boolean
/// connectives over operands not provably boolean-valued are treated as
/// fallible. Only error-free atoms may be reordered, deduplicated, or
/// distributed — `AND`/`OR` short-circuit, so moving a fallible atom can
/// change whether its error fires.
pub fn error_free(e: &BoundExpr) -> bool {
    match e {
        BoundExpr::Literal(_) | BoundExpr::Column(_) => true,
        BoundExpr::Binary { left, op, right } => {
            if op.is_comparison() {
                // sql_cmp is total: the comparison itself never errors.
                error_free(left) && error_free(right)
            } else if matches!(op, BinaryOp::And | BinaryOp::Or) {
                bool_shaped(left)
                    && bool_shaped(right)
                    && error_free(left)
                    && error_free(right)
            } else {
                false // arithmetic: / and % by zero, type errors on + - *
            }
        }
        BoundExpr::Neg(_) => false, // errors on non-numeric input
        BoundExpr::Not(x) => bool_shaped(x) && error_free(x),
        BoundExpr::IsNull { expr, .. } => error_free(expr),
        BoundExpr::InList { expr, list, .. } => {
            error_free(expr) && list.iter().all(error_free)
        }
        BoundExpr::Between { expr, low, high, .. } => {
            error_free(expr) && error_free(low) && error_free(high)
        }
        BoundExpr::Like { .. } => false, // errors on non-string input
        BoundExpr::Case { .. } => false,
    }
}

/// True when `e` provably evaluates to a boolean or NULL (so `AND`/`OR`/
/// `NOT` over it cannot raise a type error). Column references are *not*
/// boolean-shaped: their type is unknown here.
fn bool_shaped(e: &BoundExpr) -> bool {
    match e {
        BoundExpr::Literal(Value::Bool(_)) | BoundExpr::Literal(Value::Null) => true,
        BoundExpr::Binary { op, .. } => {
            op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or)
        }
        BoundExpr::Not(x) => bool_shaped(x),
        BoundExpr::IsNull { .. }
        | BoundExpr::InList { .. }
        | BoundExpr::Between { .. }
        | BoundExpr::Like { .. } => true,
        _ => false,
    }
}

// -------------------------------------------------- pass 1: simplification

/// Bottom-up structural simplification: constant folding, `Filter(TRUE)`
/// elimination, no-op `Limit` elimination, adjacent-filter merging (gated
/// on the outer predicate being error-free), and scan-projection
/// normalization.
fn simplify_plan(plan: Plan) -> Plan {
    match plan {
        Plan::Scan { table, schema, projection } => {
            // `Some` over all columns in order ≡ `None`: one representation.
            let projection = projection.filter(|p| {
                p.len() != schema.len() || p.iter().enumerate().any(|(i, &c)| i != c)
            });
            Plan::Scan { table, schema, projection }
        }
        Plan::Filter { input, predicate } => {
            let input = simplify_plan(*input);
            let predicate = fold_expr(predicate);
            if matches!(predicate, BoundExpr::Literal(Value::Bool(true))) {
                return input;
            }
            // Merge Filter(Filter(in, p1), p2) → Filter(in, p1 AND p2):
            // sound only when p2 is error-free (p1 = NULL short-circuits
            // differently: unmerged never evaluates p2 on that row).
            if error_free(&predicate) {
                if let Plan::Filter { input: inner, predicate: inner_pred } = input {
                    return simplify_plan(Plan::Filter {
                        input: inner,
                        predicate: BoundExpr::Binary {
                            left: Box::new(inner_pred),
                            op: BinaryOp::And,
                            right: Box::new(predicate),
                        },
                    });
                }
            }
            Plan::Filter { input: Box::new(input), predicate }
        }
        Plan::Join { left, right, kind, on } => Plan::Join {
            left: Box::new(simplify_plan(*left)),
            right: Box::new(simplify_plan(*right)),
            kind,
            on: fold_expr(on),
        },
        Plan::Project { input, exprs, schema } => Plan::Project {
            input: Box::new(simplify_plan(*input)),
            exprs: exprs.into_iter().map(fold_expr).collect(),
            schema,
        },
        Plan::Aggregate { input, group_exprs, aggs, schema } => Plan::Aggregate {
            input: Box::new(simplify_plan(*input)),
            group_exprs: group_exprs.into_iter().map(fold_expr).collect(),
            aggs: aggs
                .into_iter()
                .map(|a| AggExpr { kind: a.kind, arg: a.arg.map(fold_expr) })
                .collect(),
            schema,
        },
        Plan::Distinct { input } => Plan::Distinct { input: Box::new(simplify_plan(*input)) },
        Plan::Sort { input, keys } => Plan::Sort { input: Box::new(simplify_plan(*input)), keys },
        Plan::Limit { input, limit, offset } => {
            let input = simplify_plan(*input);
            if limit.is_none() && offset == 0 {
                return input; // no-op
            }
            Plan::Limit { input: Box::new(input), limit, offset }
        }
    }
}

/// Independent constant folding (mirrors the semantics, not the optimizer's
/// code): any constant subtree whose evaluation succeeds becomes a literal;
/// erroring constants (e.g. `1/0`) are left intact so errors still fire.
fn fold_expr(e: BoundExpr) -> BoundExpr {
    let folded = map_children(e, &fold_expr);
    if !matches!(folded, BoundExpr::Literal(_)) && folded.is_constant() {
        if let Ok(v) = folded.eval(&[]) {
            return BoundExpr::Literal(v);
        }
    }
    folded
}

/// Apply `f` to every direct child expression.
fn map_children(e: BoundExpr, f: &impl Fn(BoundExpr) -> BoundExpr) -> BoundExpr {
    match e {
        BoundExpr::Literal(_) | BoundExpr::Column(_) => e,
        BoundExpr::Binary { left, op, right } => BoundExpr::Binary {
            left: Box::new(f(*left)),
            op,
            right: Box::new(f(*right)),
        },
        BoundExpr::Neg(x) => BoundExpr::Neg(Box::new(f(*x))),
        BoundExpr::Not(x) => BoundExpr::Not(Box::new(f(*x))),
        BoundExpr::IsNull { expr, negated } => {
            BoundExpr::IsNull { expr: Box::new(f(*expr)), negated }
        }
        BoundExpr::InList { expr, list, negated } => BoundExpr::InList {
            expr: Box::new(f(*expr)),
            list: list.into_iter().map(f).collect(),
            negated,
        },
        BoundExpr::Between { expr, low, high, negated } => BoundExpr::Between {
            expr: Box::new(f(*expr)),
            low: Box::new(f(*low)),
            high: Box::new(f(*high)),
            negated,
        },
        BoundExpr::Like { expr, pattern, negated } => {
            BoundExpr::Like { expr: Box::new(f(*expr)), pattern, negated }
        }
        BoundExpr::Case { branches, else_expr } => BoundExpr::Case {
            branches: branches.into_iter().map(|(c, v)| (f(c), f(v))).collect(),
            else_expr: else_expr.map(|x| Box::new(f(*x))),
        },
    }
}

// --------------------------------------- pass 2: predicate-pushdown normal form

/// Push filters below inner joins, mirroring the (fixed) optimizer rule:
/// a conjunction is split and pushed only when **every** conjunct is
/// error-free — otherwise the whole filter stays put, because separating a
/// fallible conjunct from its neighbours changes which rows it evaluates on.
fn pushdown_nf(plan: Plan) -> Plan {
    match plan {
        Plan::Filter { input, predicate } => {
            let input = pushdown_nf(*input);
            push_filter_nf(input, predicate)
        }
        Plan::Join { left, right, kind, on } => Plan::Join {
            left: Box::new(pushdown_nf(*left)),
            right: Box::new(pushdown_nf(*right)),
            kind,
            on,
        },
        Plan::Project { input, exprs, schema } => {
            Plan::Project { input: Box::new(pushdown_nf(*input)), exprs, schema }
        }
        Plan::Aggregate { input, group_exprs, aggs, schema } => {
            Plan::Aggregate { input: Box::new(pushdown_nf(*input)), group_exprs, aggs, schema }
        }
        Plan::Distinct { input } => Plan::Distinct { input: Box::new(pushdown_nf(*input)) },
        Plan::Sort { input, keys } => Plan::Sort { input: Box::new(pushdown_nf(*input)), keys },
        Plan::Limit { input, limit, offset } => {
            Plan::Limit { input: Box::new(pushdown_nf(*input)), limit, offset }
        }
        scan @ Plan::Scan { .. } => scan,
    }
}

fn split_and(e: BoundExpr, out: &mut Vec<BoundExpr>) {
    match e {
        BoundExpr::Binary { left, op: BinaryOp::And, right } => {
            split_and(*left, out);
            split_and(*right, out);
        }
        other => out.push(other),
    }
}

fn and_all(conjuncts: Vec<BoundExpr>) -> Option<BoundExpr> {
    let mut it = conjuncts.into_iter();
    let first = it.next()?;
    Some(it.fold(first, |acc, c| BoundExpr::Binary {
        left: Box::new(acc),
        op: BinaryOp::And,
        right: Box::new(c),
    }))
}

fn push_filter_nf(input: Plan, predicate: BoundExpr) -> Plan {
    match input {
        Plan::Join { left, right, kind: JoinKind::Inner, on } => {
            let mut conjuncts = Vec::new();
            split_and(predicate, &mut conjuncts);
            if !conjuncts.iter().all(error_free) {
                // A fallible conjunct pins the whole predicate above the join.
                let pred = and_all(conjuncts);
                let join = Plan::Join { left, right, kind: JoinKind::Inner, on };
                return match pred {
                    Some(p) => Plan::Filter { input: Box::new(join), predicate: p },
                    None => join,
                };
            }
            let left_arity = left.arity();
            let mut left_preds = Vec::new();
            let mut right_preds = Vec::new();
            let mut keep = Vec::new();
            for c in conjuncts {
                let mut cols = Vec::new();
                c.collect_columns(&mut cols);
                if cols.iter().all(|&i| i < left_arity) {
                    left_preds.push(c);
                } else if cols.iter().all(|&i| i >= left_arity) {
                    right_preds.push(c.remap_columns(&|i| i - left_arity));
                } else {
                    keep.push(c);
                }
            }
            let mut new_left = *left;
            for p in left_preds {
                new_left = push_filter_nf(new_left, p);
            }
            let mut new_right = *right;
            for p in right_preds {
                new_right = push_filter_nf(new_right, p);
            }
            let join = Plan::Join {
                left: Box::new(new_left),
                right: Box::new(new_right),
                kind: JoinKind::Inner,
                on,
            };
            match and_all(keep) {
                Some(p) => Plan::Filter { input: Box::new(join), predicate: p },
                None => join,
            }
        }
        Plan::Filter { input: inner, predicate: inner_pred } => {
            if error_free(&predicate) {
                let combined = BoundExpr::Binary {
                    left: Box::new(inner_pred),
                    op: BinaryOp::And,
                    right: Box::new(predicate),
                };
                push_filter_nf(*inner, combined)
            } else {
                Plan::Filter {
                    input: Box::new(Plan::Filter { input: inner, predicate: inner_pred }),
                    predicate,
                }
            }
        }
        other => Plan::Filter { input: Box::new(other), predicate },
    }
}

// -------------------------------------- pass 3: projection-pushdown normal form

/// Narrow base-table scans to the columns actually consumed, mirroring the
/// optimizer's pruning rule (independently implemented). Projections and
/// aggregates trigger narrowing; filters and joins propagate it; every
/// other operator is a barrier.
fn projection_nf(plan: Plan) -> Plan {
    match plan {
        Plan::Project { input, exprs, schema } => {
            let mut need = Vec::new();
            for e in &exprs {
                e.collect_columns(&mut need);
            }
            let (narrowed, remap) = narrow_nf(*input, need);
            let exprs = exprs.into_iter().map(|e| e.remap_columns(&|i| remap(i))).collect();
            Plan::Project { input: Box::new(narrowed), exprs, schema }
        }
        Plan::Aggregate { input, group_exprs, aggs, schema } => {
            let mut need = Vec::new();
            for e in &group_exprs {
                e.collect_columns(&mut need);
            }
            for a in &aggs {
                if let Some(arg) = &a.arg {
                    arg.collect_columns(&mut need);
                }
            }
            let (narrowed, remap) = narrow_nf(*input, need);
            let group_exprs =
                group_exprs.into_iter().map(|e| e.remap_columns(&|i| remap(i))).collect();
            let aggs = aggs
                .into_iter()
                .map(|a| AggExpr { kind: a.kind, arg: a.arg.map(|x| x.remap_columns(&|i| remap(i))) })
                .collect();
            Plan::Aggregate { input: Box::new(narrowed), group_exprs, aggs, schema }
        }
        Plan::Filter { input, predicate } => {
            Plan::Filter { input: Box::new(projection_nf(*input)), predicate }
        }
        Plan::Join { left, right, kind, on } => Plan::Join {
            left: Box::new(projection_nf(*left)),
            right: Box::new(projection_nf(*right)),
            kind,
            on,
        },
        Plan::Distinct { input } => Plan::Distinct { input: Box::new(projection_nf(*input)) },
        Plan::Sort { input, keys } => {
            Plan::Sort { input: Box::new(projection_nf(*input)), keys }
        }
        Plan::Limit { input, limit, offset } => {
            Plan::Limit { input: Box::new(projection_nf(*input)), limit, offset }
        }
        scan @ Plan::Scan { .. } => scan,
    }
}

type RemapFn = Box<dyn Fn(usize) -> usize>;

fn narrow_nf(plan: Plan, need: Vec<usize>) -> (Plan, RemapFn) {
    match plan {
        Plan::Scan { table, schema, projection } => {
            // Output positions consumed → base-table columns, sorted/deduped.
            let base_of_out: Vec<usize> = match &projection {
                Some(p) => p.clone(),
                None => (0..schema.len()).collect(),
            };
            let mut base: Vec<usize> = need
                .iter()
                .filter_map(|&i| base_of_out.get(i).copied())
                .collect();
            base.sort_unstable();
            base.dedup();
            let mapping: BTreeMap<usize, usize> = base_of_out
                .iter()
                .enumerate()
                .filter_map(|(out_pos, col)| {
                    base.iter().position(|c| c == col).map(|new| (out_pos, new))
                })
                .collect();
            // Full-width identity projections normalize back to `None`.
            let projection = Some(base).filter(|p| {
                p.len() != schema.len() || p.iter().enumerate().any(|(i, &c)| i != c)
            });
            let scan = Plan::Scan { table, schema, projection };
            (scan, Box::new(move |i| mapping.get(&i).copied().unwrap_or(0)))
        }
        Plan::Filter { input, predicate } => {
            let mut need = need;
            predicate.collect_columns(&mut need);
            let (narrowed, remap) = narrow_nf(*input, need);
            let predicate = predicate.remap_columns(&|i| remap(i));
            (Plan::Filter { input: Box::new(narrowed), predicate }, remap)
        }
        Plan::Join { left, right, kind, on } => {
            let left_arity = left.arity();
            let mut need = need;
            on.collect_columns(&mut need);
            let left_need: Vec<usize> =
                need.iter().copied().filter(|&i| i < left_arity).collect();
            let right_need: Vec<usize> = need
                .iter()
                .copied()
                .filter(|&i| i >= left_arity)
                .map(|i| i - left_arity)
                .collect();
            let (nl, rl) = narrow_nf(*left, left_need);
            let (nr, rr) = narrow_nf(*right, right_need);
            let new_left_arity = nl.arity();
            let remap: RemapFn = Box::new(move |i| {
                if i < left_arity {
                    rl(i)
                } else {
                    new_left_arity + rr(i - left_arity)
                }
            });
            let on = on.remap_columns(&|i| remap(i));
            (Plan::Join { left: Box::new(nl), right: Box::new(nr), kind, on }, remap)
        }
        other => (projection_nf(other), Box::new(|i| i)),
    }
}

// --------------------------------------- pass 4: expression normalization

fn normalize_plan_exprs(plan: Plan, max_cnf: usize) -> Plan {
    match plan {
        scan @ Plan::Scan { .. } => scan,
        Plan::Filter { input, predicate } => Plan::Filter {
            input: Box::new(normalize_plan_exprs(*input, max_cnf)),
            predicate: norm_expr(predicate, max_cnf),
        },
        Plan::Join { left, right, kind, on } => Plan::Join {
            left: Box::new(normalize_plan_exprs(*left, max_cnf)),
            right: Box::new(normalize_plan_exprs(*right, max_cnf)),
            kind,
            on: norm_expr(on, max_cnf),
        },
        Plan::Project { input, exprs, schema } => Plan::Project {
            input: Box::new(normalize_plan_exprs(*input, max_cnf)),
            exprs: exprs.into_iter().map(|e| norm_expr(e, max_cnf)).collect(),
            schema,
        },
        Plan::Aggregate { input, group_exprs, aggs, schema } => Plan::Aggregate {
            input: Box::new(normalize_plan_exprs(*input, max_cnf)),
            group_exprs: group_exprs.into_iter().map(|e| norm_expr(e, max_cnf)).collect(),
            aggs: aggs
                .into_iter()
                .map(|a| AggExpr { kind: a.kind, arg: a.arg.map(|x| norm_expr(x, max_cnf)) })
                .collect(),
            schema,
        },
        Plan::Distinct { input } => {
            Plan::Distinct { input: Box::new(normalize_plan_exprs(*input, max_cnf)) }
        }
        Plan::Sort { input, keys } => {
            Plan::Sort { input: Box::new(normalize_plan_exprs(*input, max_cnf)), keys }
        }
        Plan::Limit { input, limit, offset } => Plan::Limit {
            input: Box::new(normalize_plan_exprs(*input, max_cnf)),
            limit,
            offset,
        },
    }
}

/// Normalize one expression: orient comparisons, eliminate double negation,
/// flatten + order + deduplicate error-free conjunctions/disjunctions, and
/// distribute OR over AND into CNF within the atom budget.
fn norm_expr(e: BoundExpr, max_cnf: usize) -> BoundExpr {
    let e = map_children(e, &|c| norm_expr(c, max_cnf));
    match e {
        // NOT NOT x ≡ x in three-valued logic (¬¬T=T, ¬¬F=F, ¬¬N=N) and
        // both forms evaluate x exactly once: same errors.
        BoundExpr::Not(inner) => match *inner {
            BoundExpr::Not(x) if bool_shaped(&x) => *x,
            other => BoundExpr::Not(Box::new(other)),
        },
        BoundExpr::Binary { left, op, right } => norm_binary(*left, op, *right, max_cnf),
        BoundExpr::InList { expr, mut list, negated } => {
            // Membership is order-insensitive for error-free items (the
            // early return on a match cannot change the result, only which
            // items are *looked at* — and error-free items cannot error).
            if list.iter().all(error_free) {
                list.sort_by_key(ser_key);
                list.dedup();
            }
            BoundExpr::InList { expr, list, negated }
        }
        other => other,
    }
}

fn norm_binary(left: BoundExpr, op: BinaryOp, right: BoundExpr, max_cnf: usize) -> BoundExpr {
    use BinaryOp::*;
    match op {
        // Orient strict/loose comparisons one way. Both operands are always
        // evaluated either way, so this is sound even for fallible operands
        // (runtime errors are identified with each other).
        Gt => BoundExpr::Binary { left: Box::new(right), op: Lt, right: Box::new(left) },
        GtEq => BoundExpr::Binary { left: Box::new(right), op: LtEq, right: Box::new(left) },
        // Symmetric comparisons: order operands canonically.
        Eq | NotEq => {
            let (l, r) = if ser_key(&left) <= ser_key(&right) {
                (left, right)
            } else {
                (right, left)
            };
            BoundExpr::Binary { left: Box::new(l), op, right: Box::new(r) }
        }
        And => norm_connective(left, And, right, max_cnf),
        Or => norm_connective(left, Or, right, max_cnf),
        _ => BoundExpr::Binary { left: Box::new(left), op, right: Box::new(right) },
    }
}

fn flatten(e: BoundExpr, op: BinaryOp, out: &mut Vec<BoundExpr>) {
    match e {
        BoundExpr::Binary { left, op: o, right } if o == op => {
            flatten(*left, op, out);
            flatten(*right, op, out);
        }
        other => out.push(other),
    }
}

fn rebuild(mut parts: Vec<BoundExpr>, op: BinaryOp) -> BoundExpr {
    // Non-empty by construction: flatten() always pushes at least one atom.
    let first = parts.remove(0);
    parts.into_iter().fold(first, |acc, p| BoundExpr::Binary {
        left: Box::new(acc),
        op,
        right: Box::new(p),
    })
}

/// Normalize an `AND`/`OR` spine: flatten; when **all** atoms are
/// error-free, sort + deduplicate them (Kleene AND/OR are commutative,
/// associative, and idempotent, and error-free atoms make evaluation-order
/// changes unobservable), and for `OR` distribute over inner `AND`s into
/// CNF while the atom count stays within budget. Any fallible atom freezes
/// the original order.
fn norm_connective(left: BoundExpr, op: BinaryOp, right: BoundExpr, max_cnf: usize) -> BoundExpr {
    let mut parts = Vec::new();
    flatten(left, op, &mut parts);
    flatten(right, op, &mut parts);
    if !parts.iter().all(error_free) {
        return rebuild(parts, op);
    }
    if op == BinaryOp::Or {
        // CNF: (a AND b) OR c → (a OR c) AND (b OR c). Cross the conjunct
        // sets of every disjunct; bail out when the result would exceed the
        // atom budget.
        let conjunct_sets: Vec<Vec<BoundExpr>> = parts
            .iter()
            .map(|p| {
                let mut cs = Vec::new();
                flatten(p.clone(), BinaryOp::And, &mut cs);
                cs
            })
            .collect();
        let product: usize = conjunct_sets.iter().map(Vec::len).product();
        if product > 1 {
            let total_atoms = product * conjunct_sets.len();
            if total_atoms <= max_cnf {
                let mut clauses: Vec<Vec<BoundExpr>> = vec![Vec::new()];
                for set in &conjunct_sets {
                    let mut next = Vec::new();
                    for clause in &clauses {
                        for c in set {
                            let mut cl = clause.clone();
                            cl.push(c.clone());
                            next.push(cl);
                        }
                    }
                    clauses = next;
                }
                let conjuncts: Vec<BoundExpr> = clauses
                    .into_iter()
                    .map(|disjuncts| sort_dedup_rebuild(disjuncts, BinaryOp::Or))
                    .collect();
                return sort_dedup_rebuild(conjuncts, BinaryOp::And);
            }
        }
    }
    sort_dedup_rebuild(parts, op)
}

fn sort_dedup_rebuild(mut parts: Vec<BoundExpr>, op: BinaryOp) -> BoundExpr {
    parts.sort_by_key(ser_key);
    parts.dedup();
    rebuild(parts, op)
}

// ------------------------------------------------------------ serialization

/// Structural sort key of an expression (its canonical serialization).
fn ser_key(e: &BoundExpr) -> String {
    let mut s = String::new();
    ser_expr(e, &mut s);
    s
}

fn ser_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Int(i) => out.push_str(&format!("i:{i}")),
        // Bit pattern, not decimal rendering: -0.0 vs 0.0 and NaN payloads
        // must not collide or diverge between runs.
        Value::Float(f) => out.push_str(&format!("f:{:016x}", f.to_bits())),
        Value::Str(s) => out.push_str(&format!("s:{}:{s}", s.len())),
        Value::Bool(b) => out.push_str(&format!("b:{b}")),
        Value::Timestamp(t) => out.push_str(&format!("t:{t}")),
    }
}

fn ser_expr(e: &BoundExpr, out: &mut String) {
    match e {
        BoundExpr::Literal(v) => {
            out.push_str("lit(");
            ser_value(v, out);
            out.push(')');
        }
        BoundExpr::Column(i) => out.push_str(&format!("col({i})")),
        BoundExpr::Binary { left, op, right } => {
            out.push_str(&format!("bin({op:?},"));
            ser_expr(left, out);
            out.push(',');
            ser_expr(right, out);
            out.push(')');
        }
        BoundExpr::Neg(x) => {
            out.push_str("neg(");
            ser_expr(x, out);
            out.push(')');
        }
        BoundExpr::Not(x) => {
            out.push_str("not(");
            ser_expr(x, out);
            out.push(')');
        }
        BoundExpr::IsNull { expr, negated } => {
            out.push_str(&format!("isnull({negated},"));
            ser_expr(expr, out);
            out.push(')');
        }
        BoundExpr::InList { expr, list, negated } => {
            out.push_str(&format!("in({negated},"));
            ser_expr(expr, out);
            for item in list {
                out.push(',');
                ser_expr(item, out);
            }
            out.push(')');
        }
        BoundExpr::Between { expr, low, high, negated } => {
            out.push_str(&format!("between({negated},"));
            ser_expr(expr, out);
            out.push(',');
            ser_expr(low, out);
            out.push(',');
            ser_expr(high, out);
            out.push(')');
        }
        BoundExpr::Like { expr, pattern, negated } => {
            out.push_str(&format!("like({negated},{}:{pattern},", pattern.len()));
            ser_expr(expr, out);
            out.push(')');
        }
        BoundExpr::Case { branches, else_expr } => {
            out.push_str("case(");
            for (c, v) in branches {
                ser_expr(c, out);
                out.push(':');
                ser_expr(v, out);
                out.push(';');
            }
            if let Some(x) = else_expr {
                out.push_str("else:");
                ser_expr(x, out);
            }
            out.push(')');
        }
    }
}

fn ser_schema(s: &Schema, out: &mut String) {
    out.push_str(&s.describe());
}

fn ser_plan(p: &Plan, out: &mut String) {
    match p {
        Plan::Scan { table, schema, projection } => {
            out.push_str(&format!("scan({}:{table},", table.len()));
            ser_schema(schema, out);
            out.push_str(&format!(",{projection:?})"));
        }
        Plan::Filter { input, predicate } => {
            out.push_str("filter(");
            ser_expr(predicate, out);
            out.push(',');
            ser_plan(input, out);
            out.push(')');
        }
        Plan::Join { left, right, kind, on } => {
            out.push_str(&format!("join({kind:?},"));
            ser_expr(on, out);
            out.push(',');
            ser_plan(left, out);
            out.push(',');
            ser_plan(right, out);
            out.push(')');
        }
        Plan::Project { input, exprs, schema } => {
            out.push_str("project(");
            for e in exprs {
                ser_expr(e, out);
                out.push(';');
            }
            ser_schema(schema, out);
            out.push(',');
            ser_plan(input, out);
            out.push(')');
        }
        Plan::Aggregate { input, group_exprs, aggs, schema } => {
            out.push_str("agg(");
            for e in group_exprs {
                ser_expr(e, out);
                out.push(';');
            }
            out.push('|');
            for a in aggs {
                out.push_str(&format!("{:?}:", a.kind));
                if let Some(arg) = &a.arg {
                    ser_expr(arg, out);
                }
                out.push(';');
            }
            ser_schema(schema, out);
            out.push(',');
            ser_plan(input, out);
            out.push(')');
        }
        Plan::Distinct { input } => {
            out.push_str("distinct(");
            ser_plan(input, out);
            out.push(')');
        }
        Plan::Sort { input, keys } => {
            out.push_str(&format!("sort({keys:?},"));
            ser_plan(input, out);
            out.push(')');
        }
        Plan::Limit { input, limit, offset } => {
            out.push_str(&format!("limit({limit:?},{offset},"));
            ser_plan(input, out);
            out.push(')');
        }
    }
}

/// FNV-1a over the canonical serialization: dependency-free, stable across
/// runs and platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ------------------------------------------------------- refutation search

/// Collect `table → full base schema` for every scan in the plan; `None`
/// when the same table appears with inconsistent schemas.
fn scan_schemas(plan: &Plan) -> Option<BTreeMap<String, Schema>> {
    let mut out = BTreeMap::new();
    collect_scans(plan, &mut out).then_some(out)
}

fn merge_scan_schemas(into: &mut BTreeMap<String, Schema>, plan: &Plan) -> Option<()> {
    collect_scans(plan, into).then_some(())
}

fn collect_scans(plan: &Plan, out: &mut BTreeMap<String, Schema>) -> bool {
    match plan {
        Plan::Scan { table, schema, .. } => match out.get(table) {
            Some(existing) => existing.describe() == schema.describe(),
            None => {
                out.insert(table.clone(), schema.clone());
                true
            }
        },
        Plan::Filter { input, .. }
        | Plan::Distinct { input }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. } => collect_scans(input, out),
        Plan::Join { left, right, .. } => collect_scans(left, out) && collect_scans(right, out),
    }
}

/// Per-type value pools for the table generator, seeded with adversarial
/// defaults (zeros for division, empty strings, duplicates for joins /
/// DISTINCT / GROUP BY) and widened with every literal appearing in the
/// plans under comparison plus its integer neighbours — the boundary values
/// that distinguish `x > 10` from `x > 11` lie next to the constants the
/// plans mention, not in any fixed range.
#[derive(Debug, Clone)]
struct ValuePools {
    ints: Vec<i64>,
    floats: Vec<f64>,
    strs: Vec<String>,
    timestamps: Vec<i64>,
}

impl ValuePools {
    fn new() -> Self {
        Self {
            ints: vec![-2, -1, 0, 1, 2],
            floats: vec![-1.5, -1.0, 0.0, 0.5, 2.5],
            strs: ["", "a", "b", "ZH", "it"].map(str::to_owned).to_vec(),
            timestamps: vec![0, 1, 2, 3],
        }
    }

    fn from_plans(plans: &[&Plan]) -> Self {
        let mut pools = Self::new();
        for plan in plans {
            visit_plan_exprs(plan, &mut |e| collect_literals(e, &mut pools));
        }
        pools.ints.sort_unstable();
        pools.ints.dedup();
        pools.timestamps.sort_unstable();
        pools.timestamps.dedup();
        pools.strs.sort();
        pools.strs.dedup();
        pools.floats.sort_by(f64::total_cmp);
        pools.floats.dedup_by(|a, b| a.to_bits() == b.to_bits());
        pools
    }

    fn add(&mut self, v: &Value) {
        match v {
            Value::Int(i) => {
                self.ints.extend([i.saturating_sub(1), *i, i.saturating_add(1)]);
            }
            Value::Float(f) => self.floats.push(*f),
            Value::Str(s) => self.strs.push(s.clone()),
            Value::Timestamp(t) => {
                self.timestamps.extend([t.saturating_sub(1), *t, t.saturating_add(1)]);
            }
            Value::Null | Value::Bool(_) => {}
        }
    }
}

fn visit_plan_exprs(plan: &Plan, f: &mut impl FnMut(&BoundExpr)) {
    match plan {
        Plan::Scan { .. } => {}
        Plan::Filter { input, predicate } => {
            f(predicate);
            visit_plan_exprs(input, f);
        }
        Plan::Join { left, right, on, .. } => {
            f(on);
            visit_plan_exprs(left, f);
            visit_plan_exprs(right, f);
        }
        Plan::Project { input, exprs, .. } => {
            exprs.iter().for_each(&mut *f);
            visit_plan_exprs(input, f);
        }
        Plan::Aggregate { input, group_exprs, aggs, .. } => {
            group_exprs.iter().for_each(&mut *f);
            aggs.iter().filter_map(|a| a.arg.as_ref()).for_each(&mut *f);
            visit_plan_exprs(input, f);
        }
        Plan::Distinct { input } | Plan::Sort { input, .. } | Plan::Limit { input, .. } => {
            visit_plan_exprs(input, f)
        }
    }
}

fn collect_literals(e: &BoundExpr, pools: &mut ValuePools) {
    match e {
        BoundExpr::Literal(v) => pools.add(v),
        BoundExpr::Column(_) => {}
        BoundExpr::Binary { left, right, .. } => {
            collect_literals(left, pools);
            collect_literals(right, pools);
        }
        BoundExpr::Neg(x) | BoundExpr::Not(x) => collect_literals(x, pools),
        BoundExpr::IsNull { expr, .. } => collect_literals(expr, pools),
        BoundExpr::InList { expr, list, .. } => {
            collect_literals(expr, pools);
            list.iter().for_each(|i| collect_literals(i, pools));
        }
        BoundExpr::Between { expr, low, high, .. } => {
            collect_literals(expr, pools);
            collect_literals(low, pools);
            collect_literals(high, pools);
        }
        BoundExpr::Like { expr, pattern, .. } => {
            // LIKE patterns compare against strings: seed the literal text
            // and its wildcard-stripped stem so matches are reachable.
            pools.strs.push(pattern.clone());
            pools.strs.push(pattern.replace(['%', '_'], ""));
            collect_literals(expr, pools);
        }
        BoundExpr::Case { branches, else_expr } => {
            for (c, v) in branches {
                collect_literals(c, pools);
                collect_literals(v, pools);
            }
            if let Some(x) = else_expr {
                collect_literals(x, pools);
            }
        }
    }
}

/// Draw one value of type `dt` from the pools, ~20% NULL.
fn gen_value(dt: DataType, rng: &mut StdRng, pools: &ValuePools) -> Value {
    if rng.gen_bool(0.2) {
        return Value::Null;
    }
    match dt {
        DataType::Int => Value::Int(pools.ints[rng.gen_range(0usize..pools.ints.len())]),
        DataType::Float => Value::Float(pools.floats[rng.gen_range(0usize..pools.floats.len())]),
        DataType::Str => Value::Str(pools.strs[rng.gen_range(0usize..pools.strs.len())].clone()),
        DataType::Bool => Value::Bool(rng.gen_bool(0.5)),
        DataType::Timestamp => {
            Value::Timestamp(pools.timestamps[rng.gen_range(0usize..pools.timestamps.len())])
        }
    }
}

#[expect(clippy::unwrap_used, reason = "an empty table is always valid")]
fn gen_table(schema: &Schema, rows: usize, rng: &mut StdRng, pools: &ValuePools) -> Table {
    let mut columns = Vec::with_capacity(schema.len());
    for field in schema.fields() {
        let dt = field.data_type();
        let values: Vec<Value> = (0..rows).map(|_| gen_value(dt, rng, pools)).collect();
        // from_values only rejects type mismatches; generated values match.
        match Column::from_values(dt, &values) {
            Ok(c) => columns.push(c),
            Err(_) => columns.push(Column::from_values(dt, &vec![Value::Null; rows]).unwrap_or_else(|_| Column::from_ints(&[]))),
        }
    }
    Table::from_columns(schema.clone(), columns).unwrap_or_else(|_| {
        // Unreachable: columns were built from this exact schema.
        Table::from_columns(Schema::new(vec![]), vec![]).unwrap()
    })
}

/// Execute a plan (no optimizer — the engine judges plans as given) and
/// render the outcome. All `Err` outcomes are identified with each other:
/// canonicalization may change *which* error fires first, never whether one
/// fires.
fn run_outcome(catalog: &Catalog, plan: &Plan) -> String {
    match execute_plan(catalog, plan, ExecOptions { rules: OptimizerRules::none(), track_lineage: false, vectorized: None }) {
        Ok(result) => format!(
            "schema: {}\n{}",
            result.table.schema().describe(),
            result.table.render(usize::MAX)
        ),
        Err(_) => "runtime error".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cda_dataframe::Field;
    use cda_sql::parser::parse;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = Table::from_columns(
            Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
                Field::new("c", DataType::Str),
            ]),
            vec![
                Column::from_ints(&[1, 2, 3, 0]),
                Column::from_ints(&[4, 0, 6, 2]),
                Column::from_strs(&["x", "y", "z", "x"]),
            ],
        )
        .unwrap();
        c.register("t", t.clone()).unwrap();
        c.register("u", t).unwrap();
        c
    }

    fn plan(sql: &str) -> Plan {
        plan_select(&catalog(), &parse(sql).unwrap()).unwrap()
    }

    fn engine() -> EquivEngine {
        EquivEngine::new().with_seed(7)
    }

    #[test]
    fn domain_fast_path_refutes_with_genuine_counterexample() {
        // Left is provably empty on every database (contradictory
        // equalities); right scans freely. The fast path must refute with
        // a witness that actually reproduces.
        let p = plan("SELECT a FROM t WHERE a = 5 AND a = 6");
        let q = plan("SELECT a FROM t WHERE a = 5");
        let ce = engine().refute_by_domains(&p, &q).expect("fast path applies");
        assert!(ce.recheck(&p, &q), "counterexample must reproduce");
        // The witness is domain-guided: the live side's refined domain
        // (a = 5) produced a row the dead side provably rejects.
        assert!(ce.left_outcome != ce.right_outcome);
        let r = engine().check(&p, &q);
        assert!(!r.is_equivalent(), "{r:?}");
        // Symmetric orientation works too.
        assert!(engine().refute_by_domains(&q, &p).is_some());
        // Both-live (or both-empty) pairs are out of scope for the fast
        // path — it must decline rather than guess.
        let a = plan("SELECT a FROM t WHERE a = 5");
        let b = plan("SELECT b FROM t WHERE b = 5");
        assert!(engine().refute_by_domains(&a, &b).is_none());
        let e1 = plan("SELECT a FROM t WHERE a = 5 AND a = 6");
        let e2 = plan("SELECT b FROM t WHERE b = 1 AND b = 2");
        assert!(engine().refute_by_domains(&e1, &e2).is_none());
    }

    #[test]
    fn identical_plans_share_a_fingerprint() {
        let p = plan("SELECT a FROM t WHERE b > 1");
        assert_eq!(engine().fingerprint(&p), engine().fingerprint(&p.clone()));
        assert!(engine().check(&p, &p.clone()).is_equivalent());
    }

    #[test]
    fn commuted_conjunction_certifies_equivalent() {
        let p = plan("SELECT a FROM t WHERE b > 1 AND c = 'x'");
        let q = plan("SELECT a FROM t WHERE c = 'x' AND b > 1");
        let r = engine().check(&p, &q);
        assert!(r.is_equivalent(), "{r:?}");
    }

    #[test]
    fn reversed_comparison_certifies_equivalent() {
        let p = plan("SELECT a FROM t WHERE b > 1");
        let q = plan("SELECT a FROM t WHERE 1 < b");
        assert!(engine().check(&p, &q).is_equivalent());
    }

    #[test]
    fn tautological_filter_folds_away() {
        let p = plan("SELECT a FROM t WHERE 1 = 1");
        let q = plan("SELECT a FROM t");
        assert!(engine().check(&p, &q).is_equivalent());
    }

    #[test]
    fn duplicate_conjunct_dedupes() {
        let p = plan("SELECT a FROM t WHERE b > 1 AND b > 1");
        let q = plan("SELECT a FROM t WHERE b > 1");
        assert!(engine().check(&p, &q).is_equivalent());
    }

    #[test]
    fn cnf_distribution_normalizes_or_over_and() {
        let p = plan("SELECT a FROM t WHERE (b > 1 AND c = 'x') OR b = 0");
        let q = plan("SELECT a FROM t WHERE (b > 1 OR b = 0) AND (c = 'x' OR b = 0)");
        assert!(engine().check(&p, &q).is_equivalent());
    }

    #[test]
    fn fallible_conjunction_is_not_reordered() {
        // 10 / b errors when b = 0: the two orders short-circuit differently,
        // so their fingerprints must differ and refutation must find the
        // divergence (a row with b = 0 that the pure conjunct would mask).
        let p = plan("SELECT a FROM t WHERE b > 0 AND 10 / b > 1");
        let q = plan("SELECT a FROM t WHERE 10 / b > 1 AND b > 0");
        let e = engine();
        assert_ne!(e.fingerprint(&p), e.fingerprint(&q));
        match e.check(&p, &q) {
            EquivResult::NotEquivalent { counterexample } => {
                assert!(counterexample.recheck(&p, &q), "counterexample must re-check");
            }
            // The orders only diverge on rows with b = 0/NULL patterns the
            // small trials usually generate; Unknown is an acceptable
            // (sound) outcome, NotEquivalent must never be wrong.
            EquivResult::Unknown { .. } => {}
            EquivResult::Equivalent { .. } => panic!("must not certify a reorder of 10/b"),
        }
    }

    #[test]
    fn different_filters_are_refuted_with_recheckable_counterexample() {
        let p = plan("SELECT a FROM t WHERE b > 1");
        let q = plan("SELECT a FROM t WHERE b > 2");
        match engine().check(&p, &q) {
            EquivResult::NotEquivalent { counterexample } => {
                assert!(counterexample.recheck(&p, &q));
                assert!(!counterexample.describe().is_empty());
                // and the witness must NOT re-check against equivalent plans
                assert!(!counterexample.recheck(&p, &p.clone()));
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
    }

    #[test]
    fn limit_vs_no_limit_is_refuted() {
        let p = plan("SELECT a FROM t");
        let q = plan("SELECT a FROM t LIMIT 1");
        match engine().check(&p, &q) {
            EquivResult::NotEquivalent { counterexample } => {
                assert!(counterexample.recheck(&p, &q));
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn canonicalization_preserves_results_on_the_corpus() {
        let c = catalog();
        let e = engine();
        for sql in [
            "SELECT a FROM t",
            "SELECT a, b FROM t WHERE b > 1 AND c = 'x'",
            "SELECT c, SUM(a) FROM t GROUP BY c",
            "SELECT t.a FROM t JOIN u ON t.a = u.a WHERE t.b > 1 AND u.b < 5",
            "SELECT t.a FROM t LEFT JOIN u ON t.a = u.a WHERE u.b IS NULL",
            "SELECT DISTINCT c FROM t ORDER BY c LIMIT 2",
            "SELECT a FROM t WHERE b BETWEEN 0 AND 5 ORDER BY a DESC",
            "SELECT a FROM t WHERE c IN ('y', 'x')",
        ] {
            let p = plan_select(&c, &parse(sql).unwrap()).unwrap();
            let canon = e.canonicalize(&p);
            let opts = ExecOptions { rules: OptimizerRules::none(), track_lineage: true, vectorized: None };
            let before = execute_plan(&c, &p, opts).unwrap();
            let after = execute_plan(&c, &canon, opts).unwrap();
            assert_eq!(
                before.table.render(usize::MAX),
                after.table.render(usize::MAX),
                "{sql}"
            );
            assert_eq!(
                before.table.schema().describe(),
                after.table.schema().describe(),
                "{sql}"
            );
        }
    }

    #[test]
    fn fingerprint_is_stable_across_engine_instances() {
        let p = plan("SELECT c, SUM(a) FROM t WHERE b > 1 GROUP BY c");
        let f1 = EquivEngine::new().fingerprint(&p);
        let f2 = EquivEngine::new().with_seed(99).fingerprint(&p);
        assert_eq!(f1, f2, "the fingerprint must not depend on the search seed");
        assert_eq!(f1.to_string().len(), 16);
    }

    #[test]
    fn certifier_covers_every_optimizer_rule() {
        let c = catalog();
        let queries: Vec<String> = [
            "SELECT a FROM t WHERE 1 = 1",
            "SELECT a FROM t WHERE b > 1 AND 2 > 1",
            "SELECT t.a FROM t JOIN u ON t.a = u.a WHERE t.b > 1 AND u.b < 5",
            "SELECT t.a FROM t JOIN u ON 1 = 1 WHERE t.a = u.b",
            "SELECT t.a FROM t LEFT JOIN u ON t.a = u.a WHERE u.b IS NULL",
            "SELECT c, SUM(a) FROM t GROUP BY c",
            "SELECT a FROM t WHERE b > 1 ORDER BY a LIMIT 2",
        ]
        .into_iter()
        .map(String::from)
        .collect();
        let report = certify_optimizer(&engine(), &c, &queries);
        // every query × every rule variant was checked
        assert_eq!(report.checks.len(), queries.len() * CERTIFIED_RULES.len());
        for (rule, _) in CERTIFIED_RULES {
            assert!(report.checks.iter().any(|ch| ch.rule == rule), "{rule} uncovered");
        }
        assert!(
            report.all_certified(),
            "uncertified rewrites:\n{:#?}",
            report.uncertified()
        );
        assert!(report.findings().is_empty());
        assert_eq!(report.certified(), report.checks.len());
    }

    #[test]
    fn uncertified_rewrites_become_a014_findings() {
        // Force a failure by "certifying" two genuinely different plans.
        let p = plan("SELECT a FROM t WHERE b > 1");
        let q = plan("SELECT a FROM t WHERE b > 2");
        let result = engine().check(&p, &q);
        let report = EquivReport {
            checks: vec![RuleCheck { rule: "all", sql: "SELECT ...".into(), result }],
        };
        assert!(!report.all_certified());
        let findings = report.findings();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, Code::UncertifiedRewrite);
        assert_eq!(findings[0].code.as_str(), "A014");
        assert!(findings[0].message.contains("optimizer rule `all`"));
    }

    #[test]
    fn error_free_classification() {
        let col = BoundExpr::Column(0);
        let lit = BoundExpr::Literal(Value::Int(1));
        let cmp = BoundExpr::Binary {
            left: Box::new(col.clone()),
            op: BinaryOp::Lt,
            right: Box::new(lit.clone()),
        };
        assert!(error_free(&cmp));
        let div = BoundExpr::Binary {
            left: Box::new(lit.clone()),
            op: BinaryOp::Div,
            right: Box::new(col.clone()),
        };
        assert!(!error_free(&div));
        let div_cmp = BoundExpr::Binary {
            left: Box::new(div),
            op: BinaryOp::Lt,
            right: Box::new(lit.clone()),
        };
        assert!(!error_free(&div_cmp), "fallible operand taints the comparison");
        let conj = BoundExpr::Binary {
            left: Box::new(cmp.clone()),
            op: BinaryOp::And,
            right: Box::new(cmp.clone()),
        };
        assert!(error_free(&conj));
        // AND over a bare column could be a type error: not error-free.
        let odd = BoundExpr::Binary {
            left: Box::new(col),
            op: BinaryOp::And,
            right: Box::new(cmp),
        };
        assert!(!error_free(&odd));
    }

    #[test]
    fn unknown_when_no_counterexample_found() {
        // Two semantically equal plans the canonicalizer cannot identify:
        // b + 0 > 1 vs b > 1 (arithmetic is fallible, so not normalized).
        let p = plan("SELECT a FROM t WHERE b + 0 > 1");
        let q = plan("SELECT a FROM t WHERE b > 1");
        match engine().check(&p, &q) {
            EquivResult::Unknown { reason } => {
                assert!(reason.contains("refutation"), "{reason}");
            }
            EquivResult::Equivalent { .. } => {
                panic!("b + 0 is fallible in general; must not certify")
            }
            // NULL inputs make `b + 0 > 1` NULL where `b > 1` is NULL too —
            // but an Int overflow aside they agree; a found counterexample
            // would indicate a generator/semantics mismatch.
            EquivResult::NotEquivalent { counterexample } => {
                panic!("spurious counterexample: {}", counterexample.describe())
            }
        }
    }

    #[test]
    fn scan_projection_identity_normalizes() {
        let full = Plan::Scan {
            table: "t".into(),
            schema: Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
            ]),
            projection: Some(vec![0, 1]),
        };
        let none = Plan::Scan {
            table: "t".into(),
            schema: Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
            ]),
            projection: None,
        };
        let e = engine();
        assert_eq!(e.fingerprint(&full), e.fingerprint(&none));
    }
}

//! `sqlcheck` — the pre-execution static soundness gate for generated SQL.
//!
//! The configurable [`Analyzer`] compiles a candidate statement once
//! ([`Analyzer::gate`]) and judges it without executing it:
//!
//! 1. **binding**, by `cda_sql`'s binder ([`cda_sql::bind_statement`]), the
//!    one place names and types are resolved. It returns every
//!    [`BindFault`] — unknown tables and columns, ambiguous references,
//!    type misuse (arithmetic on text, `SUM` over a text column, `LIKE`
//!    over a number, a non-BOOL condition, CASE arms of unrelated types),
//!    misplaced aggregates and HAVING, bare non-aggregated columns
//!    outside `GROUP BY`, write-target and write-type faults, and the
//!    comparisons that can never hold — and the gate maps each to its code
//!    and message in one exhaustive `match`;
//! 2. a **plan pass** over the bound logical plan: predicates that
//!    constant-fold to `FALSE`/`NULL` (provably-empty results), tautological
//!    filters, division by a literal zero, joins with no usable join
//!    predicate (accidental cartesian products), out-of-range column
//!    references, and `LIMIT 0`;
//! 3. the **abstract-interpretation** pass (A015–A018, [`crate::absint`]);
//! 4. a **cost pass** (when the analyzer is built
//!    [`with_stats`](Analyzer::with_stats)): the [`crate::cardest`]
//!    cardinality estimator bounds the output row count, upgrades the A009
//!    cartesian-join warning to a quantitative one, and — given a
//!    [`with_row_budget`](Analyzer::with_row_budget) — raises A013 when the
//!    estimated result size exceeds the budget.
//!
//! A statement with a binding fault that is more than a warning has no
//! plan, so the later passes do not run on it and both engines refuse it
//! at bind time too.
//!
//! Each finding carries a stable code (`A001`…), a [`Severity`], an NL
//! message suitable for the answer annotation layer, and (from the cost
//! pass) the estimated row-count bounds. The subset of findings for which
//! [`Code::dooms_execution`] holds proves that executing the query would
//! fail — at bind time for a binding fault; for the plan and absint
//! codes, once rows flow through the offending operator — which is what
//! lets consistency UQ skip the execution entirely: the wall-clock saving
//! experiment E13 measures, while E14 measures the cost pass's accuracy
//! (q-error) and overhead.

use crate::cardest::{estimate, CardEstimate, Statistics};
use cda_dataframe::Value;
use cda_sql::ast::{BinaryOp, JoinKind, Statement};
use cda_sql::optimizer::fold_expr;
use cda_sql::plan::{BoundExpr, Plan};
use cda_sql::{
    BindFault, Catalog, Clause, Comparison, Compiled, DmlKind, DmlPlan, SqlError, StatementPlan,
};
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; the query is fine.
    Info,
    /// Suspicious but executable; folded into the confidence score.
    Warn,
    /// The query is statically unsound and should not be executed.
    Reject,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Reject => "reject",
        })
    }
}

/// Stable finding codes. Codes are append-only: once published in an
/// experiment table they never change meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// A001 — the query does not parse.
    SyntaxError,
    /// A002 — unknown table.
    UnknownTable,
    /// A003 — unknown or ambiguous column reference.
    UnknownColumn,
    /// A004 — type misuse the binder refuses (arithmetic on text,
    /// `SUM`/`AVG`/`STDDEV` over a non-numeric column, `LIKE` over a
    /// non-STR value, `NOT`/`AND`/`OR` or a condition over a non-BOOL one).
    TypeMismatch,
    /// A005 — bare non-aggregated column outside `GROUP BY`.
    BareColumn,
    /// A006 — predicate constant-folds to `FALSE`/`NULL`: provably empty.
    UnsatisfiablePredicate,
    /// A007 — predicate constant-folds to `TRUE`: tautological filter.
    TautologicalFilter,
    /// A008 — division (or modulo) by a literal zero.
    DivisionByZero,
    /// A009 — join with no predicate relating both sides (cartesian).
    CartesianJoin,
    /// A010 — bound-plan column index out of range for its input.
    ColumnOutOfRange,
    /// A011 — `LIMIT 0`: provably empty result.
    LimitZero,
    /// A012 — comparison between incompatible types (always `NULL`).
    SuspiciousComparison,
    /// A013 — estimated output cardinality exceeds the configured row budget.
    RowBudgetExceeded,
    /// A014 — an optimizer rewrite failed to certify as semantics-preserving
    /// (refuted with a counterexample, or undecided within the equivalence
    /// engine's budget). Raised by [`crate::equiv::EquivReport::findings`].
    UncertifiedRewrite,
    /// A015 — abstract interpretation proves the result is empty on every
    /// database consistent with the facts used (contradictory predicates,
    /// disjoint join keys, statistics-refuted ranges). Strictly deeper than
    /// A006's constant folding.
    ProvablyEmpty,
    /// A016 — a filter is true on every row of the *current* data (e.g.
    /// `IS NOT NULL` over a column with no NULLs): not wrong, but it has no
    /// effect and likely misstates the user's intent. Constant tautologies
    /// stay A007.
    DataGroundedTautology,
    /// A017 — an output column is provably NULL in every result row.
    ProvablyNullColumn,
    /// A018 — an always-evaluated expression provably raises a runtime
    /// error under 3VL (e.g. a `NeverNull` numerator divided by a divisor
    /// whose domain is exactly `{0}`, with at least one guaranteed row).
    ProvableRuntimeError,
    /// A019 — a DML statement targets an unknown table or column
    /// (INSERT column list, UPDATE SET target, or the statement's table).
    UnknownWriteTarget,
    /// A020 — a DML statement's shape cannot execute: INSERT row arity
    /// differs from its column list, a non-constant INSERT value, or a
    /// value whose type cannot be written into the target column.
    WriteShapeMismatch,
    /// A021 — the write is a provable no-op: its WHERE clause is provably
    /// empty (constant-folded or refuted by abstract interpretation), so no
    /// row can match.
    ProvablyNoopWrite,
    /// A022 — a DELETE provably removes every row of the table (no WHERE
    /// clause, or one that is provably true on all current rows).
    FullTableDelete,
    /// A023 — a write narrows the stored type (FLOAT value into an INT
    /// column): it only succeeds for lossless values and will abort on any
    /// fractional one.
    NarrowingWrite,
}

impl Code {
    /// The stable code string (`A001`…).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::SyntaxError => "A001",
            Code::UnknownTable => "A002",
            Code::UnknownColumn => "A003",
            Code::TypeMismatch => "A004",
            Code::BareColumn => "A005",
            Code::UnsatisfiablePredicate => "A006",
            Code::TautologicalFilter => "A007",
            Code::DivisionByZero => "A008",
            Code::CartesianJoin => "A009",
            Code::ColumnOutOfRange => "A010",
            Code::LimitZero => "A011",
            Code::SuspiciousComparison => "A012",
            Code::RowBudgetExceeded => "A013",
            Code::UncertifiedRewrite => "A014",
            Code::ProvablyEmpty => "A015",
            Code::DataGroundedTautology => "A016",
            Code::ProvablyNullColumn => "A017",
            Code::ProvableRuntimeError => "A018",
            Code::UnknownWriteTarget => "A019",
            Code::WriteShapeMismatch => "A020",
            Code::ProvablyNoopWrite => "A021",
            Code::FullTableDelete => "A022",
            Code::NarrowingWrite => "A023",
        }
    }

    /// The fixed severity of this code.
    pub fn severity(self) -> Severity {
        match self {
            Code::SyntaxError
            | Code::UnknownTable
            | Code::UnknownColumn
            | Code::TypeMismatch
            | Code::BareColumn
            | Code::UnsatisfiablePredicate
            | Code::DivisionByZero
            | Code::ColumnOutOfRange
            | Code::ProvableRuntimeError
            | Code::UnknownWriteTarget
            | Code::WriteShapeMismatch => Severity::Reject,
            Code::TautologicalFilter
            | Code::CartesianJoin
            | Code::LimitZero
            | Code::SuspiciousComparison
            | Code::RowBudgetExceeded
            | Code::UncertifiedRewrite
            | Code::ProvablyEmpty
            | Code::DataGroundedTautology
            | Code::ProvablyNullColumn
            | Code::ProvablyNoopWrite
            | Code::FullTableDelete
            | Code::NarrowingWrite => Severity::Warn,
        }
    }

    /// True when a finding of this code proves execution would fail (given
    /// rows actually reach the offending operator). This is the subset safe
    /// to use as a *pre-execution gate*: discarding such candidates cannot
    /// change what execution-based verification would have accepted.
    pub fn dooms_execution(self) -> bool {
        matches!(
            self,
            Code::SyntaxError
                | Code::UnknownTable
                | Code::UnknownColumn
                | Code::TypeMismatch
                | Code::BareColumn
                | Code::DivisionByZero
                | Code::ColumnOutOfRange
                | Code::ProvableRuntimeError
                | Code::UnknownWriteTarget
                | Code::WriteShapeMismatch
        )
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One static-analysis finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Stable code.
    pub code: Code,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// NL rendering for the answer annotation layer.
    pub message: String,
    /// Estimated `[lo, hi]` output row bounds attached by the cost pass
    /// (`u64::MAX` = unbounded above).
    pub estimated_rows: Option<(u64, u64)>,
}

impl Finding {
    /// Build a finding; the severity comes from the code.
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: code.severity(),
            message: message.into(),
            estimated_rows: None,
        }
    }

    /// Attach estimated output row bounds from the cost pass.
    pub fn with_estimated_rows(mut self, bounds: (u64, u64)) -> Self {
        self.estimated_rows = Some(bounds);
        self
    }

    /// Render as `[A00x reject] message`, with the estimated row bounds
    /// appended when the cost pass attached them. This is the single
    /// rendering entry point — every consumer (annotations, summary,
    /// dialogue, benches) goes through it rather than formatting ad hoc.
    pub fn render(&self) -> String {
        let mut out = format!("[{} {}] {}", self.code, self.severity, self.message);
        if let Some((lo, hi)) = self.estimated_rows {
            let hi = if hi == u64::MAX { "inf".to_owned() } else { hi.to_string() };
            out.push_str(&format!(" (estimated rows {lo}..{hi})"));
        }
        out
    }
}

/// The outcome of analyzing one query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// All findings, in discovery order.
    pub findings: Vec<Finding>,
    /// Output cardinality estimate from the cost pass (None when the
    /// analyzer has no statistics or the query never reached planning).
    pub estimate: Option<CardEstimate>,
    /// The row budget the cost pass checked against, if one was configured.
    pub row_budget: Option<u64>,
    /// The binder's faults, warnings included, in the order of their
    /// findings: what repair reads the misspelt or misused names from.
    pub faults: Vec<BindFault>,
}

impl Report {
    fn push(&mut self, code: Code, message: impl Into<String>) {
        self.push_finding(Finding::new(code, message));
    }

    /// Add a finding unless an identical one is already present.
    pub(crate) fn push_finding(&mut self, f: Finding) {
        if !self.findings.contains(&f) {
            self.findings.push(f);
        }
    }

    /// True when the analysis raised nothing at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The worst severity present, if any.
    pub(crate) fn max_severity(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// True when any finding has `Reject` severity.
    pub(crate) fn is_rejected(&self) -> bool {
        self.max_severity() == Some(Severity::Reject)
    }

    /// True when some finding proves execution would fail
    /// (see [`Code::dooms_execution`]).
    pub fn dooms_execution(&self) -> bool {
        self.findings.iter().any(|f| f.code.dooms_execution())
    }

    /// The NL renderings of all findings, for answer annotations.
    pub fn annotations(&self) -> Vec<String> {
        self.findings.iter().map(Finding::render).collect()
    }

    /// One-line NL summary of the findings (empty string when clean).
    pub fn summary(&self) -> String {
        self.annotations().join("; ")
    }

    /// True when the cost pass flagged the estimated result size as
    /// exceeding the configured row budget (A013).
    pub fn exceeds_budget(&self) -> bool {
        self.findings.iter().any(|f| f.code == Code::RowBudgetExceeded)
    }

    /// Confidence multiplier for the static signal: 1.0 when clean, scaled
    /// down per warning; 0.0 when rejected (a rejected query carries no
    /// trustworthy claim). Quantitative cost findings (A013 with row
    /// bounds) weigh in proportionally to how far the estimate overshoots
    /// the budget — one extra 0.9 factor per decade of overshoot, clamped
    /// at four decades — instead of the flat per-warning 0.9.
    pub fn confidence_factor(&self) -> f64 {
        if self.is_rejected() {
            return 0.0;
        }
        let mut factor = 1.0f64;
        for f in self.findings.iter().filter(|f| f.severity == Severity::Warn) {
            factor *= match (f.code, f.estimated_rows, self.row_budget) {
                (Code::RowBudgetExceeded, Some((_, hi)), Some(budget)) if budget > 0 => {
                    let overshoot = (hi as f64 / budget as f64).max(1.0);
                    0.9f64.powf(1.0 + overshoot.log10().clamp(0.0, 4.0))
                }
                _ => 0.9,
            };
        }
        factor
    }
}

/// The configurable static-analysis entry point: a catalog plus optional
/// table statistics and row budget.
///
/// ```
/// # use cda_analyzer::sqlcheck::Analyzer;
/// # use cda_analyzer::cardest::Statistics;
/// # let catalog = cda_sql::Catalog::new();
/// let stats = Statistics::from_catalog(&catalog);
/// let analyzer = Analyzer::new(&catalog).with_stats(&stats).with_row_budget(1_000_000);
/// let report = analyzer.analyze("SELECT 1 FROM missing");
/// assert!(report.dooms_execution());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Analyzer<'a> {
    catalog: &'a Catalog,
    stats: Option<&'a Statistics>,
    row_budget: Option<u64>,
    absint: bool,
}

impl<'a> Analyzer<'a> {
    /// An analyzer over `catalog` with no cost pass (no statistics, no
    /// budget).
    pub fn new(catalog: &'a Catalog) -> Self {
        Self { catalog, stats: None, row_budget: None, absint: true }
    }

    /// Enable the cost pass with these table statistics.
    pub fn with_stats(mut self, stats: &'a Statistics) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Raise A013 when the estimated result size exceeds `rows`
    /// (only effective together with [`with_stats`](Self::with_stats)).
    pub fn with_row_budget(mut self, rows: u64) -> Self {
        self.row_budget = Some(rows);
        self
    }

    /// Toggle the abstract-interpretation pass (A015–A018 plus cardinality
    /// sharpening; on by default). With it off the report — findings,
    /// estimates, and confidence folding — is byte-identical to the
    /// pre-absint analyzer.
    pub fn with_absint(mut self, on: bool) -> Self {
        self.absint = on;
        self
    }

    /// The catalog this analyzer checks against.
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// Statically analyze one SQL query (anything but a SELECT is a syntax
    /// error here). Never executes.
    pub fn analyze(&self, sql: &str) -> Report {
        let parsed = cda_sql::parser::parse(sql).map(Statement::Select);
        self.gate_parsed(parsed, "query").0
    }

    /// Statically analyze any supported statement: the report of
    /// [`gate`](Self::gate). Never executes.
    pub fn analyze_statement(&self, sql: &str) -> Report {
        self.gate(sql).0
    }

    /// The static soundness gate — and the one place SQL text is compiled.
    ///
    /// Parses `sql`, binds and optimizes the statement
    /// ([`cda_sql::bind_statement`]) and reports its binding faults, then
    /// runs the plan, abstract-
    /// interpretation and cost passes over the logical plan (a SELECT) or
    /// the write gate A019–A023 over the bound DML statement and its read
    /// side. A statement that parses and binds comes back compiled next to
    /// its report, so fingerprinting, effect analysis and execution reuse
    /// this one parse and bind; whether it may run is the caller's question
    /// to [`Report::dooms_execution`]. Never executes.
    pub fn gate(&self, sql: &str) -> (Report, Option<Compiled>) {
        self.gate_parsed(cda_sql::parser::parse_statement(sql), "statement")
    }

    fn gate_parsed(
        &self,
        parsed: cda_sql::Result<Statement>,
        noun: &str,
    ) -> (Report, Option<Compiled>) {
        let mut report = Report { row_budget: self.row_budget, ..Report::default() };
        let statement = match parsed {
            Ok(s) => s,
            Err(e) => {
                report.push(Code::SyntaxError, format!("the {noun} is not valid SQL ({e})"));
                return (report, None);
            }
        };
        let write = statement.is_write();
        let (plan, faults) = match cda_sql::bind_statement(self.catalog, &statement) {
            Ok((plan, warnings)) => (Some(plan), warnings),
            Err(faults) => (None, faults),
        };
        for fault in &faults {
            report.push_finding(self.bind_finding(fault, write));
        }
        report.faults = faults;
        let Some(plan) = plan else { return (report, None) };
        match &plan {
            StatementPlan::Query { logical, .. } => self.plan_passes(logical, &mut report),
            StatementPlan::Write(dml) => self.write_passes(&statement, dml, &mut report),
        }
        (report, Some(Compiled { statement, plan }))
    }

    /// The finding a binding fault reports: the binder resolved the names
    /// and types, and this is the one place its faults get codes (A002–A005,
    /// A012, A019, A020, A023) and NL messages.
    fn bind_finding(&self, fault: &BindFault, write: bool) -> Finding {
        let unbound = |noun: &str| {
            format!("the {noun} cannot be bound to a plan ({})", SqlError::from(fault.clone()))
        };
        let (code, message) = match fault {
            BindFault::UnknownTable(table) if write => (
                Code::UnknownWriteTarget,
                format!(
                    "the write targets table {table:?}, which does not exist (available: {})",
                    self.catalog.table_names().join(", ")
                ),
            ),
            BindFault::UnknownTable(table) => (
                Code::UnknownTable,
                format!(
                    "the query reads from table {table:?}, which does not exist (available: {})",
                    self.catalog.table_names().join(", ")
                ),
            ),
            BindFault::DuplicateAlias(_) => (Code::UnknownTable, unbound("query")),
            BindFault::UnknownColumn { column, known } => (
                Code::UnknownColumn,
                format!(
                    "the query references column {column:?}, which does not exist in the tables \
                     in scope (known columns: {})",
                    known.join(", ")
                ),
            ),
            BindFault::AmbiguousColumn(name) => (
                Code::UnknownColumn,
                format!(
                    "the column reference {name:?} is ambiguous — qualify it with a table name"
                ),
            ),
            BindFault::Arithmetic { op, left, right, .. } => (
                Code::TypeMismatch,
                format!("arithmetic {op:?} over a {left} and a {right} fails at runtime"),
            ),
            BindFault::Negation { found, .. } => {
                (Code::TypeMismatch, format!("unary minus over a {found} value fails at runtime"))
            }
            BindFault::NotBool { context, found } => {
                let message =
                    format!("{context} needs a BOOL but is given a value of type {found}");
                (Code::TypeMismatch, message)
            }
            BindFault::LikeNotStr(t) => {
                (Code::TypeMismatch, format!("LIKE needs a STR but is given a value of type {t}"))
            }
            BindFault::NonNumericAggregate { kind, found, .. } => (
                Code::TypeMismatch,
                format!(
                    "{}() over a {found} column fails at runtime — it needs numeric values",
                    kind.name()
                ),
            ),
            BindFault::BareColumn { name, clause, .. } => (
                Code::BareColumn,
                match clause {
                    Clause::Having => {
                        format!("HAVING references column {name:?}, which is not grouped")
                    }
                    Clause::OrderBy => {
                        format!("ORDER BY references column {name:?}, which is not grouped")
                    }
                    Clause::Select | Clause::On | Clause::Where | Clause::GroupBy => format!(
                        "column {name:?} is selected bare but is neither in GROUP BY nor inside an \
                         aggregate"
                    ),
                },
            ),
            BindFault::GroupedWildcard => (
                Code::BareColumn,
                "SELECT * cannot be combined with GROUP BY or aggregates — every output column \
                 must be grouped or aggregated"
                    .to_owned(),
            ),
            BindFault::AggregateInGroupBy | BindFault::HavingWithoutGrouping => {
                (Code::BareColumn, unbound("query"))
            }
            BindFault::CaseArms { first, other } => (
                Code::TypeMismatch,
                format!(
                    "CASE arms of types {first} and {other} share no type — no column holds both"
                ),
            ),
            BindFault::IncompatibleComparison { left, right, site } => (
                Code::SuspiciousComparison,
                format!(
                    "comparing a {left} with a {right} always yields NULL — {}",
                    match site {
                        Comparison::Operator => "this condition can never hold",
                        Comparison::InItem => "this IN list item can never match",
                        Comparison::BetweenBound => "this BETWEEN bound can never hold",
                    }
                ),
            ),
            BindFault::UnknownWriteColumn { insert: true, table, column } => (
                Code::UnknownWriteTarget,
                format!("INSERT into {table:?} names unknown column {column:?}"),
            ),
            BindFault::UnknownWriteColumn { insert: false, table, column } => (
                Code::UnknownWriteTarget,
                format!("UPDATE {table:?} SET names unknown column {column:?}"),
            ),
            BindFault::InsertArity { values, columns } => (
                Code::WriteShapeMismatch,
                format!("an INSERT row supplies {values} values for {columns} columns"),
            ),
            BindFault::WriteType { table, column, value, target } => (
                Code::WriteShapeMismatch,
                format!(
                    "a {value} value cannot be written into column {table}.{column} of type \
                     {target}"
                ),
            ),
            BindFault::FractionalInt { table, column, value } => (
                Code::WriteShapeMismatch,
                format!("value {value} can never be stored into INT column {table}.{column}"),
            ),
            BindFault::NarrowingWrite { table, column } => (
                Code::NarrowingWrite,
                format!(
                    "writing a FLOAT value into INT column {table}.{column} narrows the stored \
                     type and aborts on any fractional value"
                ),
            ),
            BindFault::Unplannable(_) if write => (Code::WriteShapeMismatch, unbound("write")),
            BindFault::Unplannable(_) => (Code::TypeMismatch, unbound("query")),
        };
        Finding::new(code, message)
    }

    /// The deep half of the DML gate, over the bound statement: A008 over
    /// the SET expressions, then the plan, abstract-interpretation and cost
    /// passes over the statement's read side (so a filtered write gets
    /// A006/A007/A008 checks, the A021/A022 verdicts and an A013
    /// affected-row governor).
    fn write_passes(&self, stmt: &Statement, plan: &DmlPlan, report: &mut Report) {
        if let DmlKind::Update { sets, .. } = &plan.kind {
            for (_, expr) in sets {
                check_div_zero(expr, report);
            }
        }
        let Some(read) = plan.read_plan() else { return };
        check_plan(&read, report);
        let analysis = self.absint.then(|| crate::absint::analyze(&read, self.stats));
        let provably_empty = analysis.as_ref().and_then(|a| a.provably_empty.clone());
        let shallow_empty =
            report.findings.iter().any(|f| f.code == Code::UnsatisfiablePredicate);
        let noop = provably_empty.is_some() || shallow_empty;
        if noop {
            let verb = if matches!(stmt, Statement::Delete(_)) { "DELETE" } else { "UPDATE" };
            let why = provably_empty
                .unwrap_or_else(|| "its WHERE clause constant-folds to FALSE".to_owned());
            report.push(
                Code::ProvablyNoopWrite,
                format!("the {verb} provably affects no rows: {why}"),
            );
        }
        if let Statement::Delete(d) = stmt {
            let full = if noop {
                None
            } else if d.filter.is_none() {
                Some("it has no WHERE clause".to_owned())
            } else if report.findings.iter().any(|f| f.code == Code::TautologicalFilter)
                || analysis.as_ref().is_some_and(|a| !a.tautologies.is_empty())
            {
                Some("its WHERE clause is true on every current row".to_owned())
            } else {
                None
            };
            if let Some(why) = full {
                report.push(
                    Code::FullTableDelete,
                    format!("the DELETE provably removes every row of {:?} ({why})", d.table),
                );
            }
        }
        // A013 governor over the affected-row bound.
        self.cost_pass(&read, analysis.as_ref(), report);
    }

    fn plan_passes(&self, plan: &Plan, report: &mut Report) {
        check_plan(plan, report);
        let analysis = self.absint.then(|| crate::absint::analyze(plan, self.stats));
        if let Some(analysis) = &analysis {
            Self::absint_pass(analysis, report);
        }
        self.cost_pass(plan, analysis.as_ref(), report);
    }

    /// Convenience for gates: does static analysis prove this query cannot
    /// execute successfully?
    pub fn execution_doomed(&self, sql: &str) -> bool {
        self.analyze(sql).dooms_execution()
    }

    /// Abstract-interpretation pass: fold the provable facts of
    /// [`crate::absint::analyze`] into A015–A018 findings. Facts already
    /// reported by the shallower constant-folding checks (A006/A008/A011)
    /// are not re-reported — the deeper code only fires where the shallow
    /// one is silent.
    fn absint_pass(analysis: &crate::absint::Analysis, report: &mut Report) {
        if let Some(why) = &analysis.provably_empty {
            let already = report.findings.iter().any(|f| {
                matches!(f.code, Code::UnsatisfiablePredicate | Code::LimitZero)
            });
            if !already {
                report.push(
                    Code::ProvablyEmpty,
                    format!("abstract interpretation proves the result is empty: {why}"),
                );
            }
        }
        for clause in &analysis.tautologies {
            report.push(
                Code::DataGroundedTautology,
                format!(
                    "the {clause} condition is true on every row of the current data and \
                     has no effect"
                ),
            );
        }
        for name in &analysis.null_columns {
            report.push(
                Code::ProvablyNullColumn,
                format!("output column {name:?} is provably NULL in every result row"),
            );
        }
        if !report.findings.iter().any(|f| f.code == Code::DivisionByZero) {
            for detail in &analysis.runtime_errors {
                report.push(
                    Code::ProvableRuntimeError,
                    format!("evaluating {detail} provably fails at runtime"),
                );
            }
        }
    }

    /// Cost pass: estimate output cardinality, make A009 quantitative,
    /// raise A013 when the estimate exceeds the row budget. `analysis` is
    /// the plan's abstract interpretation when that pass is on.
    fn cost_pass(
        &self,
        plan: &Plan,
        analysis: Option<&crate::absint::Analysis>,
        report: &mut Report,
    ) {
        let Some(stats) = self.stats else { return };
        let mut est = estimate(plan, stats);
        if let Some(analysis) = analysis {
            // Intersect with the abstract interpreter's root row bounds:
            // both are sound, so the tighter of each side stays sound.
            let (alo, ahi) = (analysis.tree.node.rows_lo, analysis.tree.node.rows_hi);
            est.lo = est.lo.max(alo);
            est.hi = est.hi.min(ahi);
            if est.lo <= est.hi {
                est.est = est.est.clamp(est.lo as f64, est.hi as f64);
            }
        }
        report.estimate = Some(est);
        for f in report.findings.iter_mut() {
            if f.code == Code::CartesianJoin && f.estimated_rows.is_none() {
                f.estimated_rows = Some((est.lo, est.hi));
            }
        }
        if let Some(budget) = self.row_budget {
            if est.point() > budget {
                report.push_finding(
                    Finding::new(
                        Code::RowBudgetExceeded,
                        format!("estimated result size {est} exceeds the row budget of {budget} rows"),
                    )
                    .with_estimated_rows((est.lo, est.hi)),
                );
            }
        }
    }
}

// ------------------------------------------------------------ plan pass

fn check_plan(plan: &Plan, report: &mut Report) {
    check_node(plan, true, report);
}

/// The plan checks of one node and its inputs. `reaches_root` says whether
/// an empty result here makes the whole result empty: a grouping-free
/// aggregate answers one row over no input, and a LEFT JOIN keeps its left
/// rows whatever its right side holds, so an unsatisfiable filter below
/// either is not reported as making the result provably empty (A006).
fn check_node(plan: &Plan, reaches_root: bool, report: &mut Report) {
    match plan {
        Plan::Scan { schema, projection, table } => {
            if let Some(p) = projection {
                for &i in p {
                    if i >= schema.len() {
                        report.push(
                            Code::ColumnOutOfRange,
                            format!(
                                "scan of {table:?} projects column {i}, but the table has \
                                 only {} columns",
                                schema.len()
                            ),
                        );
                    }
                }
            }
        }
        Plan::Filter { input, predicate } => {
            check_node(input, reaches_root, report);
            check_bound(predicate, input.arity(), report);
            match fold_expr(predicate.clone()) {
                BoundExpr::Literal(Value::Bool(false)) | BoundExpr::Literal(Value::Null)
                    if reaches_root =>
                {
                    report.push(
                        Code::UnsatisfiablePredicate,
                        "a filter condition can never hold, so the result is provably empty",
                    );
                }
                BoundExpr::Literal(Value::Bool(true)) => report.push(
                    Code::TautologicalFilter,
                    "a filter condition is always true and has no effect",
                ),
                _ => {}
            }
        }
        Plan::Join { left, right, on, kind } => {
            check_node(left, reaches_root, report);
            check_node(right, reaches_root && *kind == JoinKind::Inner, report);
            let la = left.arity();
            check_bound(on, la + right.arity(), report);
            let mut cols = Vec::new();
            fold_expr(on.clone()).collect_columns(&mut cols);
            if cols.is_empty() {
                report.push(
                    Code::CartesianJoin,
                    "the join condition is constant — this is a cartesian product of the \
                     two tables",
                );
            } else if cols.iter().all(|&i| i < la) || cols.iter().all(|&i| i >= la) {
                report.push(
                    Code::CartesianJoin,
                    "the join condition only references one side — this is effectively a \
                     cartesian product",
                );
            }
        }
        Plan::Project { input, exprs, .. } => {
            check_node(input, reaches_root, report);
            for e in exprs {
                check_bound(e, input.arity(), report);
            }
        }
        Plan::Aggregate { input, group_exprs, aggs, .. } => {
            check_node(input, reaches_root && !group_exprs.is_empty(), report);
            for e in group_exprs {
                check_bound(e, input.arity(), report);
            }
            for a in aggs {
                if let Some(arg) = &a.arg {
                    check_bound(arg, input.arity(), report);
                }
            }
        }
        Plan::Distinct { input } => check_node(input, reaches_root, report),
        Plan::Sort { input, keys } => {
            check_node(input, reaches_root, report);
            for k in keys {
                if k.column >= input.arity() {
                    report.push(
                        Code::ColumnOutOfRange,
                        format!(
                            "sort key references column {}, but its input has only {} columns",
                            k.column,
                            input.arity()
                        ),
                    );
                }
            }
        }
        Plan::Limit { input, limit, .. } => {
            check_node(input, reaches_root, report);
            if *limit == Some(0) {
                report.push(Code::LimitZero, "LIMIT 0 makes the result provably empty");
            }
        }
    }
}

/// Bound-expression checks: out-of-range columns + division by literal zero.
fn check_bound(expr: &BoundExpr, arity: usize, report: &mut Report) {
    let mut cols = Vec::new();
    expr.collect_columns(&mut cols);
    for &i in &cols {
        if i >= arity {
            report.push(
                Code::ColumnOutOfRange,
                format!("an expression references column {i}, but its input has only {arity} columns"),
            );
        }
    }
    check_div_zero(expr, report);
}

fn check_div_zero(expr: &BoundExpr, report: &mut Report) {
    if let BoundExpr::Binary { op: BinaryOp::Div | BinaryOp::Mod, right, .. } = expr {
        let zero = match fold_expr((**right).clone()) {
            BoundExpr::Literal(Value::Int(0)) => true,
            BoundExpr::Literal(Value::Float(x)) => x == 0.0,
            _ => false,
        };
        if zero {
            report.push(
                Code::DivisionByZero,
                "the query divides by a literal zero, which fails at runtime",
            );
        }
    }
    expr.for_each_child(|child| check_div_zero(child, report));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cda_dataframe::{Column, DataType, Field, Schema, Table};
    use cda_sql::execute;
    use cda_sql::plan::SortSpec;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let emp = Table::from_columns(
            Schema::new(vec![
                Field::new("canton", DataType::Str),
                Field::new("sector", DataType::Str),
                Field::new("jobs", DataType::Int),
                Field::new("rate", DataType::Float),
            ]),
            vec![
                Column::from_strs(&["ZH", "ZH", "GE", "VD"]),
                Column::from_strs(&["it", "fin", "it", "health"]),
                Column::from_ints(&[100, 200, 50, 30]),
                Column::from_floats(&[0.1, 0.2, 0.3, 0.4]),
            ],
        )
        .unwrap();
        c.register("emp", emp).unwrap();
        let regions = Table::from_columns(
            Schema::new(vec![
                Field::new("canton", DataType::Str),
                Field::new("population", DataType::Int),
            ]),
            vec![Column::from_strs(&["ZH", "GE"]), Column::from_ints(&[1_500_000, 500_000])],
        )
        .unwrap();
        c.register("regions", regions).unwrap();
        c
    }

    fn analyze(c: &Catalog, sql: &str) -> Report {
        Analyzer::new(c).analyze(sql)
    }

    fn codes(sql: &str) -> Vec<Code> {
        analyze(&catalog(), sql).findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn clean_queries_have_no_findings() {
        for sql in [
            "SELECT canton, SUM(jobs) AS result FROM emp GROUP BY canton ORDER BY result DESC",
            "SELECT * FROM emp WHERE jobs > 50",
            "SELECT e.canton, r.population FROM emp e JOIN regions r ON e.canton = r.canton",
            "SELECT COUNT(*) FROM emp WHERE sector = 'it'",
            "SELECT DISTINCT sector FROM emp ORDER BY sector LIMIT 2",
            "SELECT canton, AVG(rate) FROM emp GROUP BY canton HAVING AVG(rate) > 0.1",
        ] {
            let r = analyze(&catalog(), sql);
            assert!(r.is_clean(), "{sql}: {:?}", r.findings);
        }
    }

    #[test]
    fn a001_syntax_error() {
        assert_eq!(codes("SELECT FROM FROM"), vec![Code::SyntaxError]);
    }

    #[test]
    fn a002_unknown_table() {
        let r = analyze(&catalog(), "SELECT x FROM nope");
        assert!(r.findings.iter().any(|f| f.code == Code::UnknownTable), "{:?}", r.findings);
        assert!(r.summary().contains("emp"), "lists available tables: {}", r.summary());
    }

    #[test]
    fn a003_unknown_and_ambiguous_columns() {
        assert!(codes("SELECT nope FROM emp").contains(&Code::UnknownColumn));
        // `canton` exists in both joined tables
        assert!(codes("SELECT canton FROM emp JOIN regions ON emp.canton = regions.canton")
            .contains(&Code::UnknownColumn));
    }

    #[test]
    fn a004_type_mismatches() {
        assert!(codes("SELECT SUM(canton) FROM emp").contains(&Code::TypeMismatch));
        assert!(codes("SELECT jobs + canton FROM emp").contains(&Code::TypeMismatch));
        assert!(codes("SELECT -canton FROM emp").contains(&Code::TypeMismatch));
        // string concatenation via + is allowed
        assert!(analyze(&catalog(), "SELECT canton + sector FROM emp").is_clean());
        // CASE arms need one type; INT widens to FLOAT
        let mixed = "SELECT CASE WHEN jobs > 0 THEN jobs ELSE 'x' END + 1 FROM emp";
        assert_eq!(codes(mixed), vec![Code::TypeMismatch]);
        assert!(analyze(&catalog(), "SELECT CASE WHEN jobs > 0 THEN rate ELSE 1 END FROM emp")
            .is_clean());
    }

    #[test]
    fn a005_bare_columns_outside_group_by() {
        assert!(codes("SELECT canton, sector, SUM(jobs) FROM emp GROUP BY canton")
            .contains(&Code::BareColumn));
        assert!(codes("SELECT canton, SUM(jobs) FROM emp").contains(&Code::BareColumn));
        assert!(codes("SELECT * FROM emp GROUP BY canton").contains(&Code::BareColumn));
        assert_eq!(codes("SELECT canton FROM emp HAVING canton = 'ZH'"), vec![Code::BareColumn]);
        assert_eq!(codes("SELECT COUNT(*) FROM emp GROUP BY COUNT(*)"), vec![Code::BareColumn]);
        // the names inside a misplaced clause or aggregate are still bound
        let misplaced = [
            ("SELECT canton FROM emp HAVING nope = 'ZH'", Code::BareColumn),
            ("SELECT canton FROM emp WHERE COUNT(nope) > 1", Code::TypeMismatch),
            ("SELECT SUM(COUNT(nope)) FROM emp", Code::TypeMismatch),
        ];
        for (sql, code) in misplaced {
            assert_eq!(codes(sql), vec![Code::UnknownColumn, code], "{sql}");
        }
    }

    #[test]
    fn a006_unsatisfiable_predicate() {
        assert!(codes("SELECT canton FROM emp WHERE 1 = 2").contains(&Code::UnsatisfiablePredicate));
        assert!(codes("SELECT canton FROM emp WHERE 2 > 1 AND 1 > 2")
            .contains(&Code::UnsatisfiablePredicate));
    }

    #[test]
    fn a007_tautological_filter() {
        assert!(codes("SELECT canton FROM emp WHERE 1 = 1").contains(&Code::TautologicalFilter));
    }

    #[test]
    fn a008_division_by_literal_zero() {
        assert!(codes("SELECT jobs / 0 FROM emp").contains(&Code::DivisionByZero));
        assert!(codes("SELECT jobs FROM emp WHERE jobs % 0 = 1").contains(&Code::DivisionByZero));
        // dividing by a column is not statically zero
        assert!(analyze(&catalog(), "SELECT rate / jobs FROM emp").is_clean());
    }

    #[test]
    fn a009_cartesian_joins() {
        assert!(codes("SELECT e.canton FROM emp e JOIN regions r ON 1 = 1")
            .contains(&Code::CartesianJoin));
        assert!(codes("SELECT e.canton FROM emp e JOIN regions r ON e.jobs > 10")
            .contains(&Code::CartesianJoin));
        assert!(!codes("SELECT e.canton FROM emp e JOIN regions r ON e.canton = r.canton")
            .contains(&Code::CartesianJoin));
    }

    #[test]
    fn a010_out_of_range_columns_in_hand_built_plans() {
        let c = Catalog::new();
        let a = Analyzer::new(&c);
        let plan_report = |plan: &Plan| {
            let mut report = Report::default();
            a.plan_passes(plan, &mut report);
            report
        };
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let scan = Plan::Scan { table: "t".into(), schema, projection: None };
        let bad_sort = Plan::Sort {
            input: Box::new(scan.clone()),
            keys: vec![SortSpec { column: 7, descending: false }],
        };
        assert!(plan_report(&bad_sort)
            .findings
            .iter()
            .any(|f| f.code == Code::ColumnOutOfRange));
        let bad_filter =
            Plan::Filter { input: Box::new(scan), predicate: BoundExpr::Column(3) };
        assert!(plan_report(&bad_filter)
            .findings
            .iter()
            .any(|f| f.code == Code::ColumnOutOfRange));
    }

    #[test]
    fn a011_limit_zero() {
        assert!(codes("SELECT canton FROM emp LIMIT 0").contains(&Code::LimitZero));
        assert!(!codes("SELECT canton FROM emp LIMIT 1").contains(&Code::LimitZero));
    }

    #[test]
    fn a012_suspicious_comparison() {
        let r = analyze(&catalog(), "SELECT canton FROM emp WHERE canton > 5");
        assert!(r.findings.iter().any(|f| f.code == Code::SuspiciousComparison));
        // warn-only: the query still executes (returning nothing)
        assert!(!r.is_rejected());
        assert!(!r.dooms_execution());
    }

    #[test]
    fn doomed_queries_really_fail_to_execute() {
        let c = catalog();
        for sql in [
            "SELECT FROM FROM",
            "SELECT x FROM nope",
            "SELECT nope FROM emp",
            "SELECT SUM(canton) FROM emp",
            "SELECT jobs + canton FROM emp",
            "SELECT canton, SUM(jobs) FROM emp",
            "SELECT jobs / 0 FROM emp",
        ] {
            let report = analyze(&c, sql);
            assert!(report.dooms_execution(), "{sql}: {:?}", report.findings);
            assert!(execute(&c, sql).is_err(), "doomed query executed: {sql}");
        }
    }

    #[test]
    fn executable_queries_are_never_doomed() {
        let c = catalog();
        for sql in [
            "SELECT canton FROM emp WHERE 1 = 2",       // empty but executable
            "SELECT canton FROM emp LIMIT 0",           // empty but executable
            "SELECT canton FROM emp WHERE canton > 5",  // NULL filter, executable
            "SELECT e.canton FROM emp e JOIN regions r ON 1 = 1",
        ] {
            let report = analyze(&c, sql);
            assert!(!report.dooms_execution(), "{sql}: {:?}", report.findings);
            assert!(execute(&c, sql).is_ok(), "{sql}");
        }
    }

    #[test]
    fn severity_ordering_and_rendering() {
        assert!(Severity::Reject > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
        let f = Finding::new(Code::LimitZero, "LIMIT 0 makes the result provably empty");
        assert_eq!(
            f.render(),
            "[A011 warn] LIMIT 0 makes the result provably empty"
        );
        assert_eq!(Code::SyntaxError.to_string(), "A001");
    }

    #[test]
    fn confidence_factor_scales_with_findings() {
        let clean = analyze(&catalog(), "SELECT canton FROM emp");
        assert_eq!(clean.confidence_factor(), 1.0);
        let warned = analyze(&catalog(), "SELECT canton FROM emp WHERE canton > 5");
        assert!(warned.confidence_factor() < 1.0 && warned.confidence_factor() > 0.0);
        let rejected = analyze(&catalog(), "SELECT nope FROM emp");
        assert_eq!(rejected.confidence_factor(), 0.0);
    }

    #[test]
    fn report_helpers() {
        let c = catalog();
        let r = analyze(&c, "SELECT nope FROM emp");
        assert!(r.is_rejected());
        assert_eq!(r.max_severity(), Some(Severity::Reject));
        assert!(!r.annotations().is_empty());
        let a = Analyzer::new(&c);
        assert!(a.execution_doomed("SELECT nope FROM emp"));
        assert!(!a.execution_doomed("SELECT canton FROM emp"));
    }

    #[test]
    fn a013_estimated_output_exceeds_budget() {
        let c = catalog();
        let stats = Statistics::from_catalog(&c);
        let tight = Analyzer::new(&c).with_stats(&stats).with_row_budget(2);
        let r = tight.analyze("SELECT * FROM emp");
        assert!(r.exceeds_budget(), "{:?}", r.findings);
        assert!(!r.dooms_execution(), "A013 is a warning, never a doom");
        assert!(!r.is_rejected());
        let f = r.findings.iter().find(|f| f.code == Code::RowBudgetExceeded).unwrap();
        assert_eq!(f.estimated_rows, Some((4, 4)));
        let text = f.render();
        assert!(text.contains("row budget of 2"), "{text}");
        assert!(text.contains("estimated rows 4..4"), "{text}");

        // A generous budget raises nothing: zero false rejects by budget.
        let generous = Analyzer::new(&c).with_stats(&stats).with_row_budget(1_000_000);
        let r = generous.analyze("SELECT * FROM emp");
        assert!(!r.exceeds_budget());
        assert!(r.is_clean(), "{:?}", r.findings);
        assert_eq!(r.estimate.map(|e| e.point()), Some(4));
    }

    #[test]
    fn a009_becomes_quantitative_with_stats() {
        let c = catalog();
        let stats = Statistics::from_catalog(&c);
        let r = Analyzer::new(&c)
            .with_stats(&stats)
            .analyze("SELECT e.canton FROM emp e JOIN regions r ON 1 = 1");
        let f = r.findings.iter().find(|f| f.code == Code::CartesianJoin).unwrap();
        assert_eq!(f.estimated_rows, Some((8, 8)), "4 emp rows x 2 region rows");
        let text = f.render();
        assert!(text.ends_with("(estimated rows 8..8)"), "{text}");
        // Without stats the same finding stays shape-only, rendered as before.
        let bare = analyze(&c, "SELECT e.canton FROM emp e JOIN regions r ON 1 = 1");
        let f = bare.findings.iter().find(|f| f.code == Code::CartesianJoin).unwrap();
        assert_eq!(f.estimated_rows, None);
        assert!(!f.render().contains("estimated"));
    }

    #[test]
    fn confidence_weights_budget_overshoot_log_scaled() {
        let mk = |hi: u64, budget: u64| {
            let mut r = Report { row_budget: Some(budget), ..Report::default() };
            r.push_finding(
                Finding::new(Code::RowBudgetExceeded, "over budget")
                    .with_estimated_rows((0, hi)),
            );
            r.confidence_factor()
        };
        // 100x overshoot: two decades -> 0.9^(1+2)
        assert!((mk(100_000, 1_000) - 0.9f64.powi(3)).abs() < 1e-12);
        // At (or below) budget: the flat single-warning factor.
        assert!((mk(1_000, 1_000) - 0.9f64).abs() < 1e-12);
        // Astronomical overshoot clamps at four decades -> 0.9^5.
        assert!((mk(u64::MAX, 1_000) - 0.9f64.powi(5)).abs() < 1e-12);
        // A013 without payload degrades to the flat 0.9 weight.
        let mut r = Report::default();
        r.push_finding(Finding::new(Code::RowBudgetExceeded, "over budget"));
        assert!((r.confidence_factor() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn a012_covers_in_and_between_positions() {
        // IN list item of an incompatible type (regression: previously the
        // gate recursed into the items but never compared them with
        // the subject).
        assert!(codes("SELECT canton FROM emp WHERE canton IN ('ZH', 5)")
            .contains(&Code::SuspiciousComparison));
        // BETWEEN bound of an incompatible type.
        assert!(codes("SELECT canton FROM emp WHERE canton BETWEEN 1 AND 2")
            .contains(&Code::SuspiciousComparison));
        assert!(codes("SELECT canton FROM emp WHERE jobs BETWEEN 1 AND canton")
            .contains(&Code::SuspiciousComparison));
        // Comparison nested inside a CASE arm (regression pin: recursion
        // into branches must keep firing the plain-comparison check).
        assert!(codes("SELECT jobs FROM emp WHERE CASE WHEN canton > 5 THEN 1 = 1 ELSE 1 = 2 END")
            .contains(&Code::SuspiciousComparison));
        // Compatible positions stay silent.
        let r = analyze(&catalog(), "SELECT canton FROM emp WHERE jobs BETWEEN 1 AND 200");
        assert!(!r.findings.iter().any(|f| f.code == Code::SuspiciousComparison), "{:?}", r.findings);
        let r = analyze(&catalog(), "SELECT canton FROM emp WHERE canton IN ('ZH', 'GE')");
        assert!(!r.findings.iter().any(|f| f.code == Code::SuspiciousComparison), "{:?}", r.findings);
    }

    #[test]
    fn a015_provably_empty_beyond_constant_folding() {
        // Contradictory equalities over one column: invisible to constant
        // folding (A006 silent), proven by domain refinement.
        let r = analyze(&catalog(), "SELECT canton FROM emp WHERE jobs = 5 AND jobs = 6");
        assert!(r.findings.iter().any(|f| f.code == Code::ProvablyEmpty), "{:?}", r.findings);
        assert!(!r.findings.iter().any(|f| f.code == Code::UnsatisfiablePredicate));
        assert!(!r.dooms_execution(), "empty results still execute");
        assert!(execute(&catalog(), "SELECT canton FROM emp WHERE jobs = 5 AND jobs = 6").is_ok());
        // Constant-folded FALSE stays A006 — no A015 double report.
        let r = analyze(&catalog(), "SELECT canton FROM emp WHERE 1 = 2");
        assert!(r.findings.iter().any(|f| f.code == Code::UnsatisfiablePredicate));
        assert!(!r.findings.iter().any(|f| f.code == Code::ProvablyEmpty));
        // Statistics-refuted range: needs the cost pass's stats.
        let c = catalog();
        let stats = Statistics::from_catalog(&c);
        let r = Analyzer::new(&c)
            .with_stats(&stats)
            .analyze("SELECT canton FROM emp WHERE jobs > 100000");
        assert!(r.findings.iter().any(|f| f.code == Code::ProvablyEmpty), "{:?}", r.findings);
        assert_eq!(r.estimate.map(|e| (e.lo, e.hi)), Some((0, 0)), "bounds sharpened to empty");
    }

    #[test]
    fn a016_data_grounded_tautology() {
        let c = catalog();
        let stats = Statistics::from_catalog(&c);
        let a = Analyzer::new(&c).with_stats(&stats);
        // No NULLs in canton on this catalog: IS NOT NULL filters nothing.
        let r = a.analyze("SELECT canton FROM emp WHERE canton IS NOT NULL");
        assert!(r.findings.iter().any(|f| f.code == Code::DataGroundedTautology), "{:?}", r.findings);
        assert!(!r.is_rejected());
        // Constant tautologies remain A007, never A016.
        let r = a.analyze("SELECT canton FROM emp WHERE 1 = 1");
        assert!(r.findings.iter().any(|f| f.code == Code::TautologicalFilter));
        assert!(!r.findings.iter().any(|f| f.code == Code::DataGroundedTautology));
        // Without statistics there is no data to ground the claim.
        let r = analyze(&c, "SELECT canton FROM emp WHERE canton IS NOT NULL");
        assert!(!r.findings.iter().any(|f| f.code == Code::DataGroundedTautology));
    }

    #[test]
    fn a017_provably_null_output_column() {
        let r = analyze(&catalog(), "SELECT jobs + NULL FROM emp");
        assert!(r.findings.iter().any(|f| f.code == Code::ProvablyNullColumn), "{:?}", r.findings);
        assert!(!r.is_rejected(), "NULL columns execute fine");
        assert!(execute(&catalog(), "SELECT jobs + NULL FROM emp").is_ok());
    }

    #[test]
    fn a018_provable_runtime_error() {
        let mut c = catalog();
        let zt = Table::from_columns(
            Schema::new(vec![Field::new("n", DataType::Int), Field::new("z", DataType::Int)]),
            vec![Column::from_ints(&[1, 2]), Column::from_ints(&[0, 0])],
        )
        .unwrap();
        c.register("zt", zt).unwrap();
        let stats = Statistics::from_catalog(&c);
        let a = Analyzer::new(&c).with_stats(&stats);
        // The divisor is a *column* whose domain is exactly {0}: A008's
        // literal check is silent, the abstract interpreter proves the
        // error.
        let r = a.analyze("SELECT n / z FROM zt");
        assert!(r.findings.iter().any(|f| f.code == Code::ProvableRuntimeError), "{:?}", r.findings);
        assert!(r.dooms_execution());
        assert!(execute(&c, "SELECT n / z FROM zt").is_err(), "the doom is real");
        // Literal zero stays A008; A018 does not double-report.
        let r = a.analyze("SELECT n / 0 FROM zt");
        assert!(r.findings.iter().any(|f| f.code == Code::DivisionByZero));
        assert!(!r.findings.iter().any(|f| f.code == Code::ProvableRuntimeError));
        // A nullable divisor column never fires: NULL/0 is NULL, not an
        // error, so the proof obligation fails (zero false rejects).
        let mut c2 = Catalog::new();
        let nz = Table::from_columns(
            Schema::new(vec![Field::new("n", DataType::Int), Field::new("z", DataType::Int)]),
            vec![
                Column::from_ints(&[1, 2]),
                Column::from_opt_ints(&[Some(0), None]),
            ],
        )
        .unwrap();
        c2.register("nz", nz).unwrap();
        let stats2 = Statistics::from_catalog(&c2);
        let r = Analyzer::new(&c2).with_stats(&stats2).analyze("SELECT n / z FROM nz");
        assert!(!r.findings.iter().any(|f| f.code == Code::ProvableRuntimeError), "{:?}", r.findings);
    }

    #[test]
    fn absint_off_is_byte_identical_to_legacy() {
        let c = catalog();
        let stats = Statistics::from_catalog(&c);
        let on = Analyzer::new(&c).with_stats(&stats);
        let off = on.with_absint(false);
        let sql = "SELECT canton FROM emp WHERE canton IS NOT NULL";
        let r_on = on.analyze(sql);
        let r_off = off.analyze(sql);
        assert!(r_on.findings.iter().any(|f| f.code == Code::DataGroundedTautology));
        assert!(r_off.is_clean(), "{:?}", r_off.findings);
        assert_eq!(r_off.confidence_factor(), 1.0);
        assert!(r_on.confidence_factor() < 1.0);
        // Queries absint has nothing to say about are bit-for-bit equal
        // either way, estimates included.
        for sql in ["SELECT * FROM emp WHERE jobs > 50", "SELECT COUNT(*) FROM emp"] {
            assert_eq!(on.analyze(sql), off.analyze(sql), "{sql}");
        }
    }

    #[test]
    fn absint_toggle_only_moves_the_deep_findings() {
        let c = catalog();
        // The cross-type comparison is the binder's A012 either way;
        // only the abstract interpreter also proves the result empty.
        let sql = "SELECT canton FROM emp WHERE canton > 5";
        let codes_of = |r: &Report| r.findings.iter().map(|f| f.code).collect::<Vec<_>>();
        let on = Analyzer::new(&c).analyze(sql);
        assert_eq!(codes_of(&on), vec![Code::SuspiciousComparison, Code::ProvablyEmpty]);
        let off = Analyzer::new(&c).with_absint(false).analyze(sql);
        assert_eq!(codes_of(&off), vec![Code::SuspiciousComparison]);
        // A constant-folded FALSE is the plan pass's A006 with absint on or
        // off — never doubled as A015.
        for a in [Analyzer::new(&c), Analyzer::new(&c).with_absint(false)] {
            let r = a.analyze("SELECT canton FROM emp WHERE 1 = 2");
            assert_eq!(codes_of(&r), vec![Code::UnsatisfiablePredicate]);
        }
    }

    #[test]
    fn gate_hands_back_the_compiled_statement_when_it_binds() {
        let c = catalog();
        let a = Analyzer::new(&c);
        let (report, compiled) = a.gate("SELECT canton FROM emp WHERE jobs > 50");
        assert!(report.is_clean());
        let compiled = compiled.unwrap();
        let (logical, optimized) = compiled.query().unwrap();
        assert_ne!(logical, optimized, "the optimizer pushed the filter down");
        assert!(compiled.write().is_none());
        let (report, compiled) = a.gate("UPDATE emp SET jobs = jobs + 1 WHERE canton = 'ZH'");
        assert!(!report.dooms_execution(), "{:?}", report.findings);
        assert_eq!(compiled.unwrap().write().unwrap().table, "emp");
        // Doomed by a binding fault: nothing bound to hand back.
        for sql in ["SELECT nope FROM emp", "SELECT canton, SUM(jobs) FROM emp"] {
            let (report, compiled) = a.gate(sql);
            assert!(report.dooms_execution() && compiled.is_none(), "{sql}");
        }
        // Doomed by the plan pass: it bound, and whether to run it is the
        // caller's question to the report.
        let (report, compiled) = a.gate("SELECT jobs / 0 FROM emp");
        assert!(report.dooms_execution() && compiled.is_some());
        // `analyze` is the SELECT-only front of the same gate.
        assert_eq!(a.analyze("SELECT jobs / 0 FROM emp"), a.gate("SELECT jobs / 0 FROM emp").0);
        assert_eq!(
            codes("DELETE FROM emp"),
            vec![Code::SyntaxError],
            "a write is not a query"
        );
    }

    #[test]
    fn a008_covers_update_set_and_insert_values() {
        let c = catalog();
        let a = Analyzer::new(&c);
        // Division by a literal zero in a SET expression used to pass the
        // gate and fail at execution.
        let sql = "UPDATE emp SET rate = rate + 1 / 0 WHERE canton = 'ZH'";
        let (report, compiled) = a.gate(sql);
        assert!(report.findings.iter().any(|f| f.code == Code::DivisionByZero), "{:?}", report.findings);
        assert!(report.dooms_execution());
        // The doom is real: executed anyway, the bound statement fails.
        let compiled = compiled.unwrap();
        let plan = compiled.write().unwrap();
        assert!(cda_sql::execute_dml(&c, plan, cda_sql::ExecOptions::default()).is_err());
        // INSERT values are folded when the statement is bound, so the same
        // fault surfaces there as a binding failure (A020).
        let (report, compiled) = a.gate("INSERT INTO regions (canton, population) VALUES ('BE', 1 / 0)");
        assert!(report.dooms_execution() && compiled.is_none(), "{:?}", report.findings);
        // A column divisor is not a literal zero.
        assert!(!a.gate("UPDATE emp SET rate = rate / jobs").0.dooms_execution());
    }
}

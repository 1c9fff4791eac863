//! The one `Statement → plan` entry: SQL text is compiled once, and every
//! later layer consumes the compiled statement.
//!
//! [`plan_statement`] is the single match over [`Statement`] — SELECT binds
//! through [`plan_select`] and is optimized, INSERT/UPDATE/DELETE bind
//! through [`plan_dml`] — and [`compile`] is parse + [`plan_statement`]. The
//! resulting [`Compiled`] carries everything the layers above read: the AST
//! (static gate), the logical plan (plan pass, abstract interpretation,
//! cardinality, fingerprint), and the plan that executes (optimized `Plan`
//! for [`execute_plan_checked`], [`DmlPlan`] for [`execute_dml_checked`]).
//! Reads are simply statements with an empty write set. The string-taking
//! fronts ([`execute`](crate::execute),
//! [`execute_with_options`](crate::execute_with_options)) are wrappers over
//! this path.
//!
//! [`execute_plan_checked`]: crate::execute_plan_checked
//! [`execute_dml_checked`]: crate::execute_dml_checked

use crate::ast::{Select, Statement};
use crate::catalog::Catalog;
use crate::dml::{plan_dml, DmlPlan};
use crate::optimizer::{optimize, OptimizerRules};
use crate::parser::parse_statement;
use crate::plan::Plan;
use crate::planner::plan_select;
use crate::Result;

/// The bound, executable form of one statement.
#[derive(Debug, Clone)]
pub enum StatementPlan {
    /// A SELECT: it writes nothing.
    Query {
        /// The bound plan as written — what the static analyses and the
        /// equivalence fingerprint read.
        logical: Plan,
        /// `logical` after the optimizer — the plan that executes, and the
        /// one whose scans define the statement's read set.
        optimized: Plan,
    },
    /// A bound INSERT/UPDATE/DELETE.
    Write(DmlPlan),
}

/// A parsed, bound and optimized statement.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The parsed statement.
    pub statement: Statement,
    /// Its bound, executable form.
    pub plan: StatementPlan,
}

impl Compiled {
    /// `(logical, optimized)` when the statement is a query.
    pub fn query(&self) -> Option<(&Plan, &Plan)> {
        match &self.plan {
            StatementPlan::Query { logical, optimized } => Some((logical, optimized)),
            StatementPlan::Write(_) => None,
        }
    }

    /// The bound DML plan when the statement is a write.
    pub fn write(&self) -> Option<&DmlPlan> {
        match &self.plan {
            StatementPlan::Query { .. } => None,
            StatementPlan::Write(plan) => Some(plan),
        }
    }
}

/// Bind a SELECT and optimize it with `rules`: `(logical, optimized)`.
pub(crate) fn plan_query(
    catalog: &Catalog,
    select: &Select,
    rules: OptimizerRules,
) -> Result<(Plan, Plan)> {
    let logical = plan_select(catalog, select)?;
    let optimized = optimize(logical.clone(), rules);
    Ok((logical, optimized))
}

/// Bind any parsed statement against the catalog; a query is also optimized
/// (default rules).
pub fn plan_statement(catalog: &Catalog, statement: &Statement) -> Result<StatementPlan> {
    Ok(match statement {
        Statement::Select(select) => {
            let (logical, optimized) = plan_query(catalog, select, OptimizerRules::all())?;
            StatementPlan::Query { logical, optimized }
        }
        write => StatementPlan::Write(plan_dml(catalog, write)?),
    })
}

/// Parse, bind, and optimize one statement.
pub fn compile(catalog: &Catalog, sql: &str) -> Result<Compiled> {
    let statement = parse_statement(sql)?;
    let plan = plan_statement(catalog, &statement)?;
    Ok(Compiled { statement, plan })
}

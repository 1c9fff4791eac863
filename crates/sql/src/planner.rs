//! Name binding, typing and logical planning: AST → [`Plan`].
//!
//! The binder is the one place a statement's names and types are resolved
//! (this module for SELECT, [`crate::dml`] for writes through the same
//! `Binder`). It resolves (possibly qualified) column names against the
//! scope built from the FROM/JOIN clauses, types every expression while it
//! binds it by the rules the engines evaluate with, rewrites aggregate
//! queries into an `Aggregate` + `Project` pair, places HAVING as a
//! post-aggregate filter, and resolves ORDER BY keys against the output (by
//! alias, ordinal, or — when neither matches — as hidden extra projection
//! columns dropped by a final projection).
//!
//! The typing rules, each a [`BindFault`] when broken:
//!
//! * arithmetic needs numeric operands (INT, FLOAT, TIMESTAMP), except
//!   `STR + STR`; unary minus needs INT or FLOAT;
//! * `NOT`, `AND`, `OR` and every WHERE, HAVING, JOIN ON and CASE WHEN
//!   condition need BOOL or NULL;
//! * `LIKE` needs STR or NULL; `SUM`, `AVG` and `STDDEV` need numeric;
//! * the arms of a CASE need one type, INT widening to FLOAT or TIMESTAMP
//!   as an output column does.
//!
//! NULL-typed operands pass every rule. A comparison between types that
//! never compare (text with non-text, BOOL with numeric) is always NULL; it
//! is collected as a warning and the statement still binds.
//!
//! Binding does not stop at the first fault: it recovers and collects every
//! fault, reported in clause order (unknown tables, SELECT items, JOIN ON,
//! WHERE, GROUP BY, HAVING, ORDER BY, then the grouping faults).
//! [`bind_select`] returns them all — the static gate maps each to a
//! finding; [`plan_select`] returns the first as its error, so both engines
//! refuse at bind time what would fail, or silently select nothing, at run
//! time.

use crate::ast::{BinaryOp, Expr, OrderDirection, Select, SelectItem, TableRef};
use crate::catalog::Catalog;
use crate::error::SqlError;
use crate::exec::common_type;
use crate::plan::{AggExpr, BoundExpr, Plan, SortSpec};
use crate::Result;
use cda_dataframe::kernels::AggKind;
use cda_dataframe::{DataType, Field, Schema, Value};
use std::fmt;
use std::ops::Range;

/// A clause of a SELECT, in the order binding faults are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Clause {
    /// The SELECT list.
    Select,
    /// A JOIN's ON condition.
    On,
    /// WHERE.
    Where,
    /// GROUP BY.
    GroupBy,
    /// HAVING.
    Having,
    /// ORDER BY.
    OrderBy,
}

/// Which comparison a [`BindFault::IncompatibleComparison`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    /// A comparison operator (`=`, `<`, …).
    Operator,
    /// An item of an `IN` list against its subject.
    InItem,
    /// A `BETWEEN` bound against its subject.
    BetweenBound,
}

/// One fault in a statement's names or types, found while binding it.
#[derive(Debug, Clone, PartialEq)]
pub enum BindFault {
    /// The statement reads or writes a table the catalog does not hold.
    UnknownTable(String),
    /// Two FROM/JOIN entries share a scope name.
    DuplicateAlias(String),
    /// A column reference no table in scope has.
    UnknownColumn {
        /// The reference as written, qualified when it was.
        column: String,
        /// Every column in scope, in scope order.
        known: Vec<String>,
    },
    /// A column reference more than one table in scope has.
    AmbiguousColumn(String),
    /// Arithmetic over a non-numeric operand, other than `STR + STR`.
    Arithmetic {
        /// The operator.
        op: BinaryOp,
        /// Left operand type.
        left: DataType,
        /// Right operand type.
        right: DataType,
        /// The non-numeric operands that are column references, by name.
        columns: Vec<String>,
    },
    /// Unary minus over a value that is neither INT nor FLOAT.
    Negation {
        /// The operand's type.
        found: DataType,
        /// The operand's name, when it is a column reference.
        column: Option<String>,
    },
    /// `NOT`, `AND`, `OR` or a condition over a value that is neither BOOL
    /// nor NULL.
    NotBool {
        /// The operator or clause (`NOT`, `AND`, `WHERE`, `CASE WHEN`, …).
        context: &'static str,
        /// The operand's type.
        found: DataType,
    },
    /// `LIKE` over a value that is neither STR nor NULL.
    LikeNotStr(DataType),
    /// `SUM`, `AVG` or `STDDEV` over a non-numeric argument.
    NonNumericAggregate {
        /// The aggregate.
        kind: AggKind,
        /// The argument's type.
        found: DataType,
        /// The argument's name, when it is a column reference.
        column: Option<String>,
    },
    /// A column outside GROUP BY and outside every aggregate.
    BareColumn {
        /// The qualifier, when written.
        table: Option<String>,
        /// The column name.
        name: String,
        /// Where it appears: the SELECT list, HAVING or ORDER BY.
        clause: Clause,
    },
    /// `SELECT *` in a grouped or aggregate query.
    GroupedWildcard,
    /// An aggregate in a GROUP BY key.
    AggregateInGroupBy,
    /// HAVING in a query with neither GROUP BY nor aggregates.
    HavingWithoutGrouping,
    /// Two CASE arms whose values no one type holds.
    CaseArms {
        /// The type of the arms before.
        first: DataType,
        /// The arm's type.
        other: DataType,
    },
    /// A comparison between types that never compare, so it is always NULL.
    /// A warning: the statement still binds.
    IncompatibleComparison {
        /// Subject (left operand) type.
        left: DataType,
        /// Compared-with type.
        right: DataType,
        /// Which comparison.
        site: Comparison,
    },
    /// An INSERT column list or an UPDATE SET target names a column the
    /// target table does not have.
    UnknownWriteColumn {
        /// True for INSERT, false for UPDATE.
        insert: bool,
        /// The target table as written.
        table: String,
        /// The unknown column.
        column: String,
    },
    /// An INSERT row whose arity differs from its column list.
    InsertArity {
        /// Values in the row.
        values: usize,
        /// Columns written.
        columns: usize,
    },
    /// A value whose type can never be stored in its target column.
    WriteType {
        /// The target table as written.
        table: String,
        /// The target column.
        column: String,
        /// The value's type.
        value: DataType,
        /// The column's type.
        target: DataType,
    },
    /// A FLOAT literal with a fractional part written into an INT column.
    FractionalInt {
        /// The target table as written.
        table: String,
        /// The target column.
        column: String,
        /// The literal.
        value: f64,
    },
    /// A FLOAT value written into an INT column: stored only when lossless.
    /// A warning: the statement still binds.
    NarrowingWrite {
        /// The target table as written.
        table: String,
        /// The target column.
        column: String,
    },
    /// Any other reason the statement has no plan: a misplaced or nested
    /// aggregate, an ORDER BY ordinal out of range, a duplicate write
    /// column, a non-constant or unstorable INSERT value, ….
    Unplannable(SqlError),
}

impl BindFault {
    /// True for the faults that leave the statement bound.
    pub fn is_warning(&self) -> bool {
        matches!(self, BindFault::IncompatibleComparison { .. } | BindFault::NarrowingWrite { .. })
    }
}

impl fmt::Display for BindFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindFault::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            BindFault::DuplicateAlias(n) => write!(f, "duplicate table name or alias {n:?}"),
            BindFault::UnknownColumn { column, .. } => write!(f, "unknown column {column:?}"),
            BindFault::AmbiguousColumn(n) => write!(f, "ambiguous column reference {n:?}"),
            BindFault::Arithmetic { op, left, right, .. } => {
                write!(f, "arithmetic {op:?} needs numeric operands, got {left} and {right}")
            }
            BindFault::Negation { found, .. } => write!(f, "cannot negate {found}"),
            BindFault::NotBool { context, found } => {
                write!(f, "{context} expects BOOL, got {found}")
            }
            BindFault::LikeNotStr(t) => write!(f, "LIKE expects STR, got {t}"),
            BindFault::NonNumericAggregate { kind, found, .. } => {
                write!(f, "{} expects numeric values, got {found}", kind.name())
            }
            BindFault::BareColumn { table, name, .. } => {
                let qualified = table.as_ref().map_or_else(|| name.clone(), |t| format!("{t}.{name}"));
                write!(f, "column {qualified:?} must appear in GROUP BY or inside an aggregate")
            }
            BindFault::GroupedWildcard => {
                f.write_str("SELECT * cannot be combined with GROUP BY / aggregates")
            }
            BindFault::AggregateInGroupBy => f.write_str("aggregates are not allowed in GROUP BY"),
            BindFault::HavingWithoutGrouping => {
                f.write_str("HAVING requires GROUP BY or aggregates")
            }
            BindFault::CaseArms { first, other } => {
                write!(f, "CASE arms of types {first} and {other} have no common type")
            }
            BindFault::IncompatibleComparison { left, right, .. } => {
                write!(f, "comparing {left} with {right} is always NULL")
            }
            BindFault::UnknownWriteColumn { insert, column, .. } => {
                let at = if *insert { "INSERT" } else { "UPDATE SET" };
                write!(f, "unknown column {column:?} in {at}")
            }
            BindFault::InsertArity { values, columns } => {
                write!(f, "INSERT row has {values} values but {columns} columns")
            }
            BindFault::WriteType { table, column, value, target } => {
                write!(f, "cannot write a {value} value into column {table}.{column} of type {target}")
            }
            BindFault::FractionalInt { table, column, value } => {
                write!(f, "cannot write FLOAT value {value} into column {table}.{column} of type INT")
            }
            BindFault::NarrowingWrite { table, column } => write!(
                f,
                "a FLOAT value written into INT column {table}.{column} is stored only when lossless"
            ),
            BindFault::Unplannable(e) => write!(f, "{e}"),
        }
    }
}

impl From<BindFault> for SqlError {
    fn from(fault: BindFault) -> Self {
        match fault {
            BindFault::Unplannable(e) => e,
            BindFault::UnknownTable(_)
            | BindFault::DuplicateAlias(_)
            | BindFault::UnknownColumn { .. }
            | BindFault::AmbiguousColumn(_)
            | BindFault::UnknownWriteColumn { .. }
            | BindFault::InsertArity { .. } => SqlError::Binding(fault.to_string()),
            other => SqlError::Semantic(other.to_string()),
        }
    }
}

/// What binding a statement yields: the bound value with its warnings, or
/// every fault (at least one of them not a warning).
pub type Bound<T> = std::result::Result<(T, Vec<BindFault>), Vec<BindFault>>;

/// The error a failed binding reports through the `Result`-returning
/// fronts: its first fault that is not a warning.
pub(crate) fn first_error(faults: Vec<BindFault>) -> SqlError {
    faults
        .into_iter()
        .find(|f| !f.is_warning())
        .map_or_else(|| SqlError::Semantic("the statement did not bind".into()), SqlError::from)
}

/// Bind a parsed SELECT against a catalog, collecting every fault.
pub fn bind_select(catalog: &Catalog, select: &Select) -> Bound<Plan> {
    let mut binder = Binder::new(catalog);
    let plan = binder.select(select);
    binder.finish(plan)
}

/// Plan a parsed SELECT against a catalog; its first fault is the error.
pub fn plan_select(catalog: &Catalog, select: &Select) -> Result<Plan> {
    bind_select(catalog, select).map(|(plan, _)| plan).map_err(first_error)
}

/// Static type of a bound expression; `None` when it is NULL-typed.
pub(crate) type Ty = Option<DataType>;

/// The binding scope: one entry per table in FROM/JOIN order.
#[derive(Default)]
pub(crate) struct Scope {
    /// (scope name, schema, flat offset of the table's first column)
    entries: Vec<(String, Schema, usize)>,
    total: usize,
}

impl Scope {
    /// The scope of a write: its one target table.
    pub(crate) fn single(name: &str, schema: Schema) -> Self {
        let total = schema.len();
        Self { entries: vec![(name.to_owned(), schema, 0)], total }
    }

    fn push(&mut self, name: &str, schema: Schema) -> std::result::Result<(), BindFault> {
        if self.entries.iter().any(|(n, _, _)| n.eq_ignore_ascii_case(name)) {
            return Err(BindFault::DuplicateAlias(name.to_owned()));
        }
        let len = schema.len();
        self.entries.push((name.to_owned(), schema, self.total));
        self.total += len;
        Ok(())
    }

    fn resolve(
        &self,
        table: Option<&str>,
        name: &str,
    ) -> std::result::Result<(usize, DataType), BindFault> {
        let mut found: Option<(usize, DataType)> = None;
        for (scope_name, schema, offset) in &self.entries {
            if let Some(t) = table {
                if !scope_name.eq_ignore_ascii_case(t) {
                    continue;
                }
            }
            if let Some((i, dt)) = schema
                .index_of(name)
                .and_then(|i| schema.field_at(i).map(|f| (i, f.data_type())))
            {
                if found.is_some() {
                    return Err(BindFault::AmbiguousColumn(name.to_owned()));
                }
                found = Some((offset + i, dt));
            }
        }
        found.ok_or_else(|| BindFault::UnknownColumn {
            column: table.map_or_else(|| name.to_owned(), |t| format!("{t}.{name}")),
            known: self
                .entries
                .iter()
                .flat_map(|(_, s, _)| s.fields().iter().map(|f| f.name().to_owned()))
                .collect(),
        })
    }

    /// All columns in scope as (flat index, field) for wildcard expansion.
    fn all_columns(&self) -> Vec<(usize, Field)> {
        let mut out = Vec::with_capacity(self.total);
        for (_, schema, offset) in &self.entries {
            for (i, f) in schema.fields().iter().enumerate() {
                out.push((offset + i, f.clone()));
            }
        }
        out
    }
}

/// The group keys and aggregate calls of a grouped query, registered in
/// the order binding first meets them.
#[derive(Default)]
pub(crate) struct Grouping {
    /// (key as written, bound over the input, its type, the faults binding
    /// it met)
    keys: Vec<(Expr, BoundExpr, Ty, Range<usize>)>,
    /// Distinct aggregate calls as written.
    calls: Vec<Expr>,
    /// The bound calls, parallel to `calls`.
    aggs: Vec<AggExpr>,
    /// Their result types, parallel to `calls`.
    types: Vec<Ty>,
}

/// What column references bind against.
pub(crate) enum Input<'s> {
    /// The FROM/JOIN scope: rows before any aggregation.
    Rows(&'s Scope),
    /// The output of the Aggregate node over this scope.
    Groups(&'s Scope, &'s mut Grouping),
}

fn input<'s>(scope: &'s Scope, grouping: &'s mut Option<Grouping>) -> Input<'s> {
    match grouping {
        Some(g) => Input::Groups(scope, g),
        None => Input::Rows(scope),
    }
}

/// Rank of the grouping faults: after every clause.
const GROUPING_RANK: u8 = 7;

/// A fault with where it is reported: the rank of its clause, then the
/// order it was met in.
struct Noted {
    rank: u8,
    seq: usize,
    fault: BindFault,
}

/// The binder: the catalog, and every fault met so far.
pub(crate) struct Binder<'a> {
    pub(crate) catalog: &'a Catalog,
    faults: Vec<Noted>,
    seq: usize,
    /// The SELECT clause being bound; `None` for tables and for writes.
    clause: Option<Clause>,
}

impl<'a> Binder<'a> {
    pub(crate) fn new(catalog: &'a Catalog) -> Self {
        Self { catalog, faults: Vec::new(), seq: 0, clause: None }
    }

    fn rank(&self) -> u8 {
        self.clause.map_or(0, |c| c as u8 + 1)
    }

    fn note(&mut self, rank: u8, fault: BindFault) {
        self.seq += 1;
        self.faults.push(Noted { rank, seq: self.seq, fault });
    }

    pub(crate) fn fault(&mut self, fault: BindFault) {
        self.note(self.rank(), fault);
    }

    /// How many faults so far are not warnings.
    pub(crate) fn errors(&self) -> usize {
        self.faults.iter().filter(|n| !n.fault.is_warning()).count()
    }

    /// Report the faults met binding a GROUP BY key where the key is first
    /// used, when that comes before GROUP BY.
    fn reuse_key(&mut self, faults: Range<usize>) {
        let rank = self.rank();
        for k in faults {
            if self.faults[k].rank > rank {
                self.seq += 1;
                self.faults[k].rank = rank;
                self.faults[k].seq = self.seq;
            }
        }
    }

    /// The faults in clause order, with `value` when none of them is more
    /// than a warning.
    pub(crate) fn finish<T>(mut self, value: T) -> Bound<T> {
        self.faults.sort_by_key(|n| (n.rank, n.seq));
        let faults: Vec<BindFault> = self.faults.into_iter().map(|n| n.fault).collect();
        if faults.iter().all(BindFault::is_warning) {
            Ok((value, faults))
        } else {
            Err(faults)
        }
    }

    /// Bind a condition: it must be BOOL or NULL.
    pub(crate) fn condition(
        &mut self,
        expr: &Expr,
        input: &mut Input<'_>,
        context: &'static str,
    ) -> BoundExpr {
        let (bound, ty) = self.bind(expr, input);
        self.expect_bool(ty, context);
        bound
    }

    fn expect_bool(&mut self, ty: Ty, context: &'static str) {
        if let Some(found) = ty.filter(|t| *t != DataType::Bool) {
            self.fault(BindFault::NotBool { context, found });
        }
    }

    /// A comparison between `left` and `right`: warn when it is always NULL.
    fn compare(&mut self, left: Ty, right: Ty, site: Comparison) {
        let class = |t: DataType| match t {
            DataType::Str => 0u8,
            DataType::Bool => 1,
            _ => 2, // Int / Float / Timestamp compare cross-type
        };
        if let (Some(left), Some(right)) = (left, right) {
            if class(left) != class(right) {
                self.fault(BindFault::IncompatibleComparison { left, right, site });
            }
        }
    }

    fn unplannable(&mut self, message: &str) {
        self.fault(BindFault::Unplannable(SqlError::Semantic(message.to_owned())));
    }

    /// Bind and type an expression. A fault leaves a NULL in the
    /// expression's place, or types the faulty expression as NULL, so
    /// binding goes on without faulting its enclosing expressions again.
    pub(crate) fn bind(&mut self, expr: &Expr, input: &mut Input<'_>) -> (BoundExpr, Ty) {
        let null = || BoundExpr::Literal(Value::Null);
        if let Input::Groups(_, g) = input {
            if let Some(i) = g.keys.iter().position(|(k, ..)| k == expr) {
                self.reuse_key(g.keys[i].3.clone());
                return (BoundExpr::Column(i), g.keys[i].2);
            }
        }
        match expr {
            Expr::Literal(v) => (BoundExpr::Literal(v.clone()), v.data_type()),
            Expr::Column { table, name } => {
                let (scope, grouped) = match input {
                    Input::Rows(scope) => (*scope, false),
                    Input::Groups(scope, _) => (*scope, true),
                };
                let resolved = scope.resolve(table.as_deref(), name).map_err(|f| self.fault(f)).ok();
                if !grouped {
                    return resolved.map_or((null(), None), |(i, ty)| (BoundExpr::Column(i), Some(ty)));
                }
                // Over the groups, a column that is no key is bare — in the
                // SELECT list and HAVING even when it does not resolve, in
                // ORDER BY (which also matches output names) only when it does.
                let clause = self.clause.unwrap_or(Clause::Select);
                if resolved.is_some() || clause != Clause::OrderBy {
                    let (table, name) = (table.clone(), name.clone());
                    self.note(GROUPING_RANK, BindFault::BareColumn { table, name, clause });
                }
                (null(), resolved.map(|(_, ty)| ty))
            }
            Expr::Aggregate { kind, arg: written } => {
                let Input::Groups(scope, g) = input else {
                    if let Some(arg) = written {
                        self.bind(arg, input); // for the faults of its names and types
                    }
                    match self.clause {
                        Some(Clause::GroupBy) => self.fault(BindFault::AggregateInGroupBy),
                        Some(Clause::Where) => {
                            self.unplannable("aggregates are not allowed in WHERE");
                        }
                        _ => self.unplannable("aggregate used outside SELECT/HAVING/ORDER BY"),
                    }
                    return (null(), None);
                };
                let j = match g.calls.iter().position(|c| c == expr) {
                    Some(j) => j,
                    None => {
                        let (arg, arg_ty) = match written {
                            Some(a) if a.contains_aggregate() => {
                                // Its names still resolve, or fault.
                                let mut columns = Vec::new();
                                a.collect_columns(&mut columns);
                                for (table, name) in columns {
                                    if let Err(fault) = scope.resolve(table.as_deref(), name) {
                                        self.fault(fault);
                                    }
                                }
                                self.unplannable("nested aggregates are not allowed");
                                (None, None)
                            }
                            Some(a) => {
                                let (bound, ty) = self.bind(a, &mut Input::Rows(scope));
                                (Some(bound), ty)
                            }
                            None => (None, None),
                        };
                        let numeric = matches!(kind, AggKind::Sum | AggKind::Avg | AggKind::StdDev);
                        if let Some(found) = arg_ty.filter(|t| numeric && !t.is_numeric()) {
                            let column = written.as_deref().and_then(column_name);
                            self.fault(BindFault::NonNumericAggregate { kind: *kind, found, column });
                        }
                        let ty = match kind {
                            AggKind::Count | AggKind::CountDistinct => Some(DataType::Int),
                            AggKind::Avg | AggKind::StdDev => Some(DataType::Float),
                            AggKind::Sum | AggKind::Min | AggKind::Max => arg_ty,
                        };
                        g.calls.push(expr.clone());
                        g.aggs.push(AggExpr { kind: *kind, arg });
                        g.types.push(ty);
                        g.calls.len() - 1
                    }
                };
                (BoundExpr::Column(g.keys.len() + j), g.types[j])
            }
            Expr::Binary { left, op, right } => {
                let (l, lt) = self.bind(left, input);
                let (r, rt) = self.bind(right, input);
                let ty = self.type_binary(*op, (left, lt), (right, rt));
                (BoundExpr::Binary { left: Box::new(l), op: *op, right: Box::new(r) }, ty)
            }
            Expr::Neg(operand) => {
                let (e, ty) = self.bind(operand, input);
                let ty = match ty {
                    Some(found) if !matches!(found, DataType::Int | DataType::Float) => {
                        let column = column_name(operand);
                        self.fault(BindFault::Negation { found, column });
                        None
                    }
                    ty => ty,
                };
                (BoundExpr::Neg(Box::new(e)), ty)
            }
            Expr::Not(e) => {
                let e = self.condition(e, input, "NOT");
                (BoundExpr::Not(Box::new(e)), Some(DataType::Bool))
            }
            Expr::IsNull { expr, negated } => {
                let (e, _) = self.bind(expr, input);
                (BoundExpr::IsNull { expr: Box::new(e), negated: *negated }, Some(DataType::Bool))
            }
            Expr::InList { expr, list, negated } => {
                let (e, subject) = self.bind(expr, input);
                let mut items = Vec::with_capacity(list.len());
                for item in list {
                    let (b, ty) = self.bind(item, input);
                    self.compare(subject, ty, Comparison::InItem);
                    items.push(b);
                }
                let bound = BoundExpr::InList { expr: Box::new(e), list: items, negated: *negated };
                (bound, Some(DataType::Bool))
            }
            Expr::Between { expr, low, high, negated } => {
                let (e, subject) = self.bind(expr, input);
                let (lo, lo_ty) = self.bind(low, input);
                let (hi, hi_ty) = self.bind(high, input);
                self.compare(subject, lo_ty, Comparison::BetweenBound);
                self.compare(subject, hi_ty, Comparison::BetweenBound);
                let bound = BoundExpr::Between {
                    expr: Box::new(e),
                    low: Box::new(lo),
                    high: Box::new(hi),
                    negated: *negated,
                };
                (bound, Some(DataType::Bool))
            }
            Expr::Like { expr, pattern, negated } => {
                let (e, ty) = self.bind(expr, input);
                if let Some(t) = ty.filter(|t| *t != DataType::Str) {
                    self.fault(BindFault::LikeNotStr(t));
                }
                let bound =
                    BoundExpr::Like { expr: Box::new(e), pattern: pattern.clone(), negated: *negated };
                (bound, Some(DataType::Bool))
            }
            Expr::Case { branches, else_expr } => {
                let mut arms = Vec::with_capacity(branches.len());
                let mut ty = None;
                for (c, v) in branches {
                    let c = self.condition(c, input, "CASE WHEN");
                    let (v, vt) = self.bind(v, input);
                    ty = self.case_arm(ty, vt);
                    arms.push((c, v));
                }
                let else_expr = else_expr.as_ref().map(|e| {
                    let (e, et) = self.bind(e, input);
                    ty = self.case_arm(ty, et);
                    Box::new(e)
                });
                (BoundExpr::Case { branches: arms, else_expr }, ty)
            }
        }
    }

    /// A CASE's type so far joined with one more arm's: the type of a
    /// column of both values; a fault when there is none.
    fn case_arm(&mut self, ty: Ty, arm: Ty) -> Ty {
        let (Some(first), Some(other)) = (ty, arm) else { return ty.or(arm) };
        let common = common_type(first, other);
        if common.is_none() {
            self.fault(BindFault::CaseArms { first, other });
        }
        common
    }

    /// Type a binary operator's result, checking its operands.
    fn type_binary(&mut self, op: BinaryOp, (l, left): (&Expr, Ty), (r, right): (&Expr, Ty)) -> Ty {
        if op.is_comparison() {
            self.compare(left, right, Comparison::Operator);
            return Some(DataType::Bool);
        }
        if matches!(op, BinaryOp::And | BinaryOp::Or) {
            self.expect_bool(left, op.sql());
            self.expect_bool(right, op.sql());
            return Some(DataType::Bool);
        }
        let (left, right) = (left?, right?);
        if op == BinaryOp::Add && left == DataType::Str && right == DataType::Str {
            return Some(DataType::Str);
        }
        if !(left.is_numeric() && right.is_numeric()) {
            let columns = [(l, left), (r, right)]
                .into_iter()
                .filter(|(_, t)| !t.is_numeric())
                .filter_map(|(e, _)| column_name(e))
                .collect();
            self.fault(BindFault::Arithmetic { op, left, right, columns });
            return None;
        }
        Some(if left == DataType::Int && right == DataType::Int && op != BinaryOp::Div {
            DataType::Int
        } else {
            DataType::Float
        })
    }

    fn select(&mut self, select: &Select) -> Plan {
        // 1. FROM and JOINs build the scope and the base plan.
        let mut scope = Scope::default();
        let mut plan = self.scan(&select.from, &mut scope);
        for join in &select.joins {
            self.clause = None;
            let right = self.scan(&join.table, &mut scope);
            self.clause = Some(Clause::On);
            let on = self.condition(&join.on, &mut Input::Rows(&scope), "JOIN ON");
            plan = Plan::Join { left: Box::new(plan), right: Box::new(right), kind: join.kind, on };
        }
        // 2. WHERE.
        if let Some(w) = &select.where_clause {
            self.clause = Some(Clause::Where);
            let predicate = self.condition(w, &mut Input::Rows(&scope), "WHERE");
            plan = Plan::Filter { input: Box::new(plan), predicate };
        }

        // 3. GROUP BY keys, when the query aggregates.
        let has_agg = !select.group_by.is_empty()
            || select.items.iter().any(|i| match i {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                SelectItem::Wildcard => false,
            })
            || select.having.as_ref().is_some_and(Expr::contains_aggregate);
        let mut grouping = None;
        if has_agg {
            self.clause = Some(Clause::GroupBy);
            let mut g = Grouping::default();
            for key in &select.group_by {
                let first = self.faults.len();
                let (bound, ty) = self.bind(key, &mut Input::Rows(&scope));
                g.keys.push((key.clone(), bound, ty, first..self.faults.len()));
            }
            grouping = Some(g);
        } else if let Some(h) = &select.having {
            self.clause = Some(Clause::Having);
            self.condition(h, &mut Input::Rows(&scope), "HAVING");
            self.fault(BindFault::HavingWithoutGrouping);
        }

        // 4. SELECT items, over the rows or over the groups.
        self.clause = Some(Clause::Select);
        let mut out_exprs = Vec::new();
        let mut out_fields = Vec::new();
        for item in &select.items {
            match item {
                SelectItem::Wildcard if grouping.is_some() => {
                    self.note(GROUPING_RANK, BindFault::GroupedWildcard);
                }
                SelectItem::Wildcard => {
                    for (idx, f) in scope.all_columns() {
                        out_exprs.push(BoundExpr::Column(idx));
                        out_fields.push(f);
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let (bound, ty) = self.bind(expr, &mut input(&scope, &mut grouping));
                    out_fields.push(field(output_name(expr, alias.as_deref()), ty));
                    out_exprs.push(bound);
                }
            }
        }
        // 5. HAVING, over the groups.
        let having = match (&select.having, &mut grouping) {
            (Some(h), Some(g)) => {
                self.clause = Some(Clause::Having);
                Some(self.condition(h, &mut Input::Groups(&scope, g), "HAVING"))
            }
            _ => None,
        };

        // 6. ORDER BY: resolve against output; unresolvable keys become
        //    hidden projection columns.
        self.clause = Some(Clause::OrderBy);
        let visible = out_exprs.len();
        let mut sort_keys: Vec<SortSpec> = Vec::new();
        for item in &select.order_by {
            let descending = item.direction == OrderDirection::Desc;
            let column = match self.order_key(&item.expr, select, visible, &out_fields) {
                Some(column) => column,
                None => {
                    let (bound, ty) = self.bind(&item.expr, &mut input(&scope, &mut grouping));
                    out_fields.push(field(format!("__sort_{}", out_fields.len()), ty));
                    out_exprs.push(bound);
                    out_fields.len() - 1
                }
            };
            sort_keys.push(SortSpec { column, descending });
        }
        let hidden = out_exprs.len() - visible;
        if select.distinct && hidden > 0 {
            self.unplannable("ORDER BY with DISTINCT must reference selected columns");
        }

        // 7. The Aggregate node (then HAVING's filter) under the projection.
        if let Some(g) = grouping {
            let mut agg_fields = Vec::with_capacity(g.keys.len() + g.calls.len());
            let mut group_exprs = Vec::with_capacity(g.keys.len());
            for (i, (key, bound, ty, _)) in g.keys.into_iter().enumerate() {
                let name = match key {
                    Expr::Column { name, .. } => name,
                    _ => format!("group_{i}"),
                };
                agg_fields.push(field(name, ty));
                group_exprs.push(bound);
            }
            for (j, (call, ty)) in g.calls.iter().zip(&g.types).enumerate() {
                agg_fields.push(field(format!("agg_{j}_{call}"), *ty));
            }
            let schema = Schema::new(agg_fields);
            plan = Plan::Aggregate { input: Box::new(plan), group_exprs, aggs: g.aggs, schema };
            if let Some(predicate) = having {
                plan = Plan::Filter { input: Box::new(plan), predicate };
            }
        }

        // 8. Assemble: Project → Distinct → Sort → Limit → (drop hidden).
        let out_schema = Schema::new(out_fields);
        plan = Plan::Project { input: Box::new(plan), exprs: out_exprs, schema: out_schema };
        if select.distinct {
            plan = Plan::Distinct { input: Box::new(plan) };
        }
        if !sort_keys.is_empty() {
            plan = Plan::Sort { input: Box::new(plan), keys: sort_keys };
        }
        if select.limit.is_some() || select.offset.is_some() {
            plan = Plan::Limit {
                input: Box::new(plan),
                limit: select.limit,
                offset: select.offset.unwrap_or(0),
            };
        }
        if hidden > 0 {
            let schema = plan.schema();
            let keep: Vec<usize> = (0..visible).collect();
            let exprs: Vec<BoundExpr> = keep.iter().map(|&i| BoundExpr::Column(i)).collect();
            plan = Plan::Project { input: Box::new(plan), exprs, schema: schema.project(&keep) };
        }
        plan
    }

    /// A scan of `table`, entered into the scope. An unknown table is a
    /// fault and scans nothing, so binding goes on.
    fn scan(&mut self, table: &TableRef, scope: &mut Scope) -> Plan {
        let schema = match self.catalog.get(&table.name) {
            Ok(entry) => {
                let schema = entry.table.schema().clone();
                if let Err(fault) = scope.push(table.scope_name(), schema.clone()) {
                    self.fault(fault);
                }
                schema
            }
            Err(_) => {
                self.fault(BindFault::UnknownTable(table.name.clone()));
                Schema::new(Vec::new())
            }
        };
        Plan::Scan { table: table.name.to_ascii_lowercase(), schema, projection: None }
    }

    /// Resolve one ORDER BY key to a visible output column: by ordinal, by
    /// output name, or by matching a SELECT item as written. `None` when it
    /// must be bound as a hidden column.
    fn order_key(
        &mut self,
        expr: &Expr,
        select: &Select,
        visible: usize,
        out_fields: &[Field],
    ) -> Option<usize> {
        if let Expr::Literal(Value::Int(n)) = expr {
            let n = *n;
            if n < 1 || (n as usize) > visible {
                self.unplannable(&format!("ORDER BY ordinal {n} out of range"));
                return Some(0);
            }
            return Some(n as usize - 1);
        }
        if let Expr::Column { table: None, name } = expr {
            if let Some(i) = out_fields.iter().position(|f| f.name().eq_ignore_ascii_case(name)) {
                return Some(i);
            }
        }
        select.items.iter().position(|item| matches!(item, SelectItem::Expr { expr: e, .. } if e == expr))
    }
}

/// The name of a plain column reference: the column a type fault blames.
fn column_name(expr: &Expr) -> Option<String> {
    match expr {
        Expr::Column { name, .. } => Some(name.clone()),
        _ => None,
    }
}

/// Output column name for a select item.
fn output_name(expr: &Expr, alias: Option<&str>) -> String {
    if let Some(a) = alias {
        return a.to_owned();
    }
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Aggregate { kind, arg } => match arg {
            Some(a) => format!("{}({a})", kind.name()).to_ascii_lowercase(),
            None => format!("{}(*)", kind.name()).to_ascii_lowercase(),
        },
        other => other.to_string(),
    }
}

/// An output field of a bound expression's type; a NULL-typed one is
/// declared STR.
fn field(name: String, ty: Ty) -> Field {
    Field::new(name, ty.unwrap_or(DataType::Str))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use cda_dataframe::{Column, Table};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let emp = Table::from_columns(
            Schema::new(vec![
                Field::new("canton", DataType::Str),
                Field::new("jobs", DataType::Int),
                Field::new("rate", DataType::Float),
            ]),
            vec![
                Column::from_strs(&["ZH", "GE"]),
                Column::from_ints(&[10, 20]),
                Column::from_floats(&[0.1, 0.2]),
            ],
        )
        .unwrap();
        c.register("emp", emp).unwrap();
        let reg = Table::from_columns(
            Schema::new(vec![
                Field::new("canton", DataType::Str),
                Field::new("region", DataType::Str),
            ]),
            vec![Column::from_strs(&["ZH", "GE"]), Column::from_strs(&["east", "west"])],
        )
        .unwrap();
        c.register("reg", reg).unwrap();
        c
    }

    fn plan_sql(sql: &str) -> Result<Plan> {
        plan_select(&catalog(), &parse(sql).unwrap())
    }

    #[test]
    fn simple_projection_schema() {
        let p = plan_sql("SELECT canton, jobs * 2 AS double FROM emp").unwrap();
        let s = p.schema();
        assert_eq!(s.field_at(0).unwrap().name(), "canton");
        assert_eq!(s.field_at(1).unwrap().name(), "double");
        assert_eq!(s.field_at(1).unwrap().data_type(), DataType::Int);
    }

    #[test]
    fn wildcard_expands_scope() {
        let p = plan_sql("SELECT * FROM emp").unwrap();
        assert_eq!(p.arity(), 3);
        let p = plan_sql("SELECT * FROM emp JOIN reg ON emp.canton = reg.canton").unwrap();
        assert_eq!(p.arity(), 5);
    }

    #[test]
    fn unknown_and_ambiguous_columns() {
        assert!(matches!(plan_sql("SELECT nope FROM emp"), Err(SqlError::Binding(_))));
        let e = plan_sql("SELECT canton FROM emp JOIN reg ON emp.canton = reg.canton");
        assert!(matches!(e, Err(SqlError::Binding(m)) if m.contains("ambiguous")));
        // qualified reference resolves fine
        assert!(plan_sql("SELECT emp.canton FROM emp JOIN reg ON emp.canton = reg.canton").is_ok());
    }

    #[test]
    fn duplicate_alias_rejected() {
        assert!(plan_sql("SELECT 1 FROM emp JOIN reg emp ON 1 = 1").is_err());
    }

    #[test]
    fn aggregate_plan_shape() {
        let p = plan_sql("SELECT canton, SUM(jobs) AS total FROM emp GROUP BY canton HAVING SUM(jobs) > 5")
            .unwrap();
        let text = p.explain();
        assert!(text.contains("Aggregate [1 keys, 1 aggs]"));
        assert!(text.contains("Filter")); // HAVING
        assert!(text.contains("Project"));
        let s = p.schema();
        assert_eq!(s.field_at(1).unwrap().name(), "total");
        assert_eq!(s.field_at(1).unwrap().data_type(), DataType::Int);
    }

    #[test]
    fn deduplicates_identical_aggregate_calls() {
        let p = plan_sql("SELECT SUM(jobs), SUM(jobs) + 1 FROM emp").unwrap();
        assert!(p.explain().contains("[0 keys, 1 aggs]"));
    }

    #[test]
    fn non_grouped_column_rejected() {
        let e = plan_sql("SELECT canton, SUM(jobs) FROM emp");
        assert!(matches!(e, Err(SqlError::Semantic(m)) if m.contains("GROUP BY")));
    }

    #[test]
    fn where_with_aggregate_rejected() {
        assert!(plan_sql("SELECT canton FROM emp WHERE SUM(jobs) > 1").is_err());
    }

    #[test]
    fn having_without_group_by_uses_global_group() {
        let p = plan_sql("SELECT COUNT(*) FROM emp HAVING COUNT(*) > 0").unwrap();
        assert!(p.explain().contains("[0 keys, 1 aggs]"));
    }

    #[test]
    fn having_without_aggregates_rejected() {
        assert!(plan_sql("SELECT canton FROM emp HAVING canton = 'ZH'").is_err());
    }

    #[test]
    fn wildcard_with_group_by_rejected() {
        assert!(plan_sql("SELECT * FROM emp GROUP BY canton").is_err());
    }

    #[test]
    fn order_by_alias_ordinal_and_hidden() {
        // alias
        let p = plan_sql("SELECT jobs AS j FROM emp ORDER BY j DESC").unwrap();
        assert!(p.explain().contains("Sort"));
        assert_eq!(p.arity(), 1);
        // ordinal
        let p = plan_sql("SELECT canton, jobs FROM emp ORDER BY 2").unwrap();
        assert!(p.explain().contains("Sort [SortSpec { column: 1"));
        // hidden sort column is dropped by a final projection
        let p = plan_sql("SELECT canton FROM emp ORDER BY rate").unwrap();
        assert_eq!(p.arity(), 1);
        let text = p.explain();
        assert!(text.matches("Project").count() >= 2);
    }

    #[test]
    fn order_by_ordinal_out_of_range() {
        assert!(plan_sql("SELECT canton FROM emp ORDER BY 5").is_err());
        assert!(plan_sql("SELECT canton FROM emp ORDER BY 0").is_err());
    }

    #[test]
    fn distinct_with_hidden_sort_rejected() {
        assert!(plan_sql("SELECT DISTINCT canton FROM emp ORDER BY rate").is_err());
        assert!(plan_sql("SELECT DISTINCT canton FROM emp ORDER BY canton").is_ok());
    }

    #[test]
    fn order_by_aggregate_in_grouped_query() {
        let p = plan_sql("SELECT canton FROM emp GROUP BY canton ORDER BY SUM(jobs) DESC").unwrap();
        // SUM(jobs) becomes a hidden column over the aggregate output
        assert_eq!(p.arity(), 1);
        assert!(p.explain().contains("Aggregate"));
    }

    #[test]
    fn limit_offset_plan() {
        let p = plan_sql("SELECT canton FROM emp LIMIT 1 OFFSET 1").unwrap();
        assert!(p.explain().contains("Limit Some(1) offset 1"));
    }

    #[test]
    fn type_inference() {
        let p = plan_sql("SELECT jobs / 2, rate + 1, canton, jobs > 3 FROM emp").unwrap();
        let s = p.schema();
        assert_eq!(s.field_at(0).unwrap().data_type(), DataType::Float);
        assert_eq!(s.field_at(1).unwrap().data_type(), DataType::Float);
        assert_eq!(s.field_at(2).unwrap().data_type(), DataType::Str);
        assert_eq!(s.field_at(3).unwrap().data_type(), DataType::Bool);
        // a CASE takes the type that holds every arm
        let p = plan_sql("SELECT CASE WHEN jobs > 3 THEN jobs ELSE 1.5 END FROM emp").unwrap();
        assert_eq!(p.schema().field_at(0).unwrap().data_type(), DataType::Float);
        assert!(plan_sql("SELECT CASE WHEN jobs > 3 THEN jobs ELSE 'x' END FROM emp").is_err());
    }
}

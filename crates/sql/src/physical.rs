//! Vectorized, morsel-parallel physical execution.
//!
//! This module lowers the logical [`Plan`] into partitioned operator
//! pipelines over columnar [`Vector`] batches and runs them on the
//! deterministic scheduler in [`crate::morsel`]. The row-at-a-time
//! interpreter in [`crate::exec`] stays as the **reference oracle**: for
//! every plan, the table produced here is byte-identical (schema, rows,
//! order, lineage, canonical null placeholders) to the row path — pinned by
//! the differential certification suite `cda-integration/tests/vectorized.rs`
//! and experiment E17.
//!
//! How byte-identity is preserved:
//!
//! * **Expression evaluation** is operator-at-a-time over *selection
//!   vectors*. Short-circuiting constructs (`AND`/`OR`, `CASE`, `IN`)
//!   evaluate each sub-expression over exactly the set of rows the row
//!   engine would reach, so errors are raised on exactly the same inputs
//!   (`Ok` results are byte-identical; when several rows of one morsel would
//!   error, *which* row's message surfaces may differ from strict row
//!   order — the only documented divergence).
//! * **Grouping** merges per-morsel hash tables in morsel order, which
//!   reproduces global first-seen group order; float aggregates fold in
//!   ascending row order, reproducing the row engine's summation order
//!   bit for bit.
//! * **Joins** take a hash path only when the `ON` condition is provably
//!   error-free and has equi-conjuncts; matches are emitted left-row-major
//!   with build rows ascending — the nested-loop order. Otherwise a
//!   morsel-partitioned replica of the reference nested loop runs (identical
//!   down to `join_pairs`). For hash joins `join_pairs` counts hash-bucket
//!   candidates instead of `|L|·|R|` — that reduction *is* the speedup.
//! * **Sort / limit / scan** reuse the row path's kernels outright; both
//!   paths produce the same permutation, so parallelizing them would buy
//!   nothing for determinism risk.

use crate::ast::{BinaryOp, JoinKind};
use crate::catalog::Catalog;
use crate::error::SqlError;
use crate::exec::{
    agg_over_values, column_from_values, sanitize, sort as sort_rows, ExecOptions, ExecStats,
};
use crate::morsel::{first_error, morsel_ranges, run_ordered, MorselConfig};
use crate::optimizer::split_conjuncts;
use crate::plan::{like_match, AggExpr, BoundExpr, Plan};
use crate::Result;
use cda_dataframe::batch::{Batch, ColumnWindow, Slot, SlotAccess, Vector};
use cda_dataframe::kernels::{
    build_join_table, compare, group_rows, join_key_hash, join_keys_match, slot_sql_cmp,
    values_group_hash, AggKind, CmpOp,
};
use cda_dataframe::{
    Column, ColumnBuilder, DomainTree, LineageBuilder, LineageStore, Schema, Table, Value,
};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Execute `plan` on the vectorized morsel-parallel engine. Semantically
/// (and byte-for-byte) equivalent to `exec::run`; `stats` is filled with the
/// same `rows_scanned` / `rows_materialized` counters (`join_pairs` differs
/// on the hash-join path, see the module docs).
pub(crate) fn run_vectorized(
    catalog: &Catalog,
    plan: &Plan,
    opts: ExecOptions,
    cfg: MorselConfig,
    monitor: Option<&DomainTree>,
    stats: &mut ExecStats,
) -> Result<Table> {
    let threads = cfg.effective_threads();
    run_node(catalog, plan, opts, cfg, threads, monitor, stats).map(Cow::into_owned)
}

/// Recursive driver. Scans without a projection are *borrowed* from the
/// catalog (the row engine clones them; the clone is pure overhead because
/// every operator reads its input immutably) — one of the places the
/// vectorized speedup comes from. Counters are bumped exactly as the row
/// path bumps them, so `ExecStats` stays comparable.
fn run_node<'a>(
    catalog: &'a Catalog,
    plan: &Plan,
    opts: ExecOptions,
    cfg: MorselConfig,
    threads: usize,
    monitor: Option<&DomainTree>,
    stats: &mut ExecStats,
) -> Result<Cow<'a, Table>> {
    // Same monitor-tree mirroring as `exec::run`: child `i` of this plan node
    // is checked by child `i` of the monitor.
    let sub = |i: usize| monitor.and_then(|m| m.children.get(i));
    let out: Cow<'a, Table> = match plan {
        Plan::Scan { table, projection, .. } => {
            let entry = catalog.get(table)?;
            stats.rows_scanned += entry.table.num_rows();
            match projection {
                Some(p) if !is_identity_projection(p, entry.table.num_columns()) => {
                    Cow::Owned(entry.table.project(p)?)
                }
                _ => Cow::Borrowed(&entry.table),
            }
        }
        Plan::Filter { input, predicate } => {
            // Filter directly over a column-pruned scan: only the surviving
            // rows of the projected columns materialize (a projection shares
            // buffers, then one gather) — the row path clones the pruned
            // table first. The scan's output is never materialized here, so
            // the sanitizer checks only the filter's (this node's) domain.
            match pruned_filter_selection(catalog, plan, cfg, threads, stats)? {
                Some((base, p, rows)) => Cow::Owned(base.project(p)?.take(&rows)?),
                None => {
                    let t = run_node(catalog, input, opts, cfg, threads, sub(0), stats)?;
                    Cow::Owned(filter_vec(&t, predicate, cfg, threads)?)
                }
            }
        }
        Plan::Join { left, right, kind, on } => {
            let l = run_node(catalog, left, opts, cfg, threads, sub(0), stats)?;
            let r = run_node(catalog, right, opts, cfg, threads, sub(1), stats)?;
            Cow::Owned(join_vec(&l, &r, *kind, on, opts, cfg, threads, stats)?)
        }
        Plan::Project { input, exprs, schema } => {
            let t = run_node(catalog, input, opts, cfg, threads, sub(0), stats)?;
            Cow::Owned(project_vec(&t, exprs, schema, cfg, threads)?)
        }
        Plan::Aggregate { input, group_exprs, aggs, schema } => {
            // Aggregate over a filter over a column-pruned scan: fold the
            // filter's selection of the borrowed base table (expressions
            // remapped to physical columns) instead of gathering the filtered
            // table. The filter's output is built only for the sanitizer.
            match pruned_filter_selection(catalog, input, cfg, threads, stats)? {
                Some((base, p, rows)) => {
                    if let Some(m) = sub(0) {
                        sanitize(input, Some(m), &base.project(p)?.take(&rows)?)?;
                    }
                    stats.rows_materialized += rows.len(); // the filter node's count
                    let remap = |e: &BoundExpr| e.remap_columns(&|i| p[i]);
                    let keys: Vec<BoundExpr> = group_exprs.iter().map(remap).collect();
                    let aggs: Vec<AggExpr> = aggs
                        .iter()
                        .map(|a| AggExpr { kind: a.kind, arg: a.arg.as_ref().map(remap) })
                        .collect();
                    let out =
                        aggregate_vec(base, Some(rows), &keys, &aggs, schema, opts, cfg, threads)?;
                    Cow::Owned(out)
                }
                None => {
                    let t = run_node(catalog, input, opts, cfg, threads, sub(0), stats)?;
                    let out =
                        aggregate_vec(&t, None, group_exprs, aggs, schema, opts, cfg, threads)?;
                    Cow::Owned(out)
                }
            }
        }
        Plan::Distinct { input } => {
            let t = run_node(catalog, input, opts, cfg, threads, sub(0), stats)?;
            Cow::Owned(distinct_vec(&t, opts)?)
        }
        Plan::Sort { input, keys } => {
            let t = run_node(catalog, input, opts, cfg, threads, sub(0), stats)?;
            Cow::Owned(sort_rows(&t, keys)?)
        }
        Plan::Limit { input, limit, offset } => {
            let t = run_node(catalog, input, opts, cfg, threads, sub(0), stats)?;
            let start = (*offset).min(t.num_rows());
            let end = match limit {
                Some(l) => (start + l).min(t.num_rows()),
                None => t.num_rows(),
            };
            let indices: Vec<usize> = (start..end).collect();
            Cow::Owned(t.take(&indices)?)
        }
    };
    sanitize(plan, monitor, &out)?;
    stats.rows_materialized += out.num_rows();
    Ok(out)
}

// ---------------------------------------------------------------------------
// Vector sources: where expression evaluation reads its columns from.
// ---------------------------------------------------------------------------

/// A provider of column vectors for a selection of rows.
pub(crate) trait VectorSource: Sync {
    /// Gather column `col` at the (source-level) row ids in `sel`.
    fn load(&self, col: usize, sel: &[usize]) -> Result<Vector>;
}

/// Rows of a single table.
pub(crate) struct TableSource<'a>(pub &'a Table);

impl VectorSource for TableSource<'_> {
    fn load(&self, col: usize, sel: &[usize]) -> Result<Vector> {
        let c = self.0.column(col)?;
        Vector::from_column(c, sel).map_err(Into::into)
    }
}

/// Joined row pairs: columns `0..left arity` come from the left table,
/// the rest from the right (NULL-padded when the pair has no right row,
/// i.e. a LEFT JOIN miss).
pub(crate) struct PairSource<'a> {
    left: &'a Table,
    right: &'a Table,
    pairs: &'a [(usize, Option<usize>)],
}

impl VectorSource for PairSource<'_> {
    fn load(&self, col: usize, sel: &[usize]) -> Result<Vector> {
        let la = self.left.num_columns();
        let mut vals = Vec::with_capacity(sel.len());
        for &p in sel {
            let &(li, ri) = self
                .pairs
                .get(p)
                .ok_or_else(|| SqlError::Eval("join pair selection out of bounds".into()))?;
            let v = if col < la {
                self.left.column(col)?.value(li)?
            } else {
                match ri {
                    Some(ri) => self.right.column(col - la)?.value(ri)?,
                    None => Value::Null,
                }
            };
            vals.push(v);
        }
        Ok(Vector::from_values(vals))
    }
}

// ---------------------------------------------------------------------------
// Vectorized expression evaluation (masked selections preserve the row
// engine's evaluation sets for short-circuiting constructs).
// ---------------------------------------------------------------------------

fn cmp_op(op: BinaryOp) -> Option<CmpOp> {
    match op {
        BinaryOp::Eq => Some(CmpOp::Eq),
        BinaryOp::NotEq => Some(CmpOp::NotEq),
        BinaryOp::Lt => Some(CmpOp::Lt),
        BinaryOp::LtEq => Some(CmpOp::LtEq),
        BinaryOp::Gt => Some(CmpOp::Gt),
        BinaryOp::GtEq => Some(CmpOp::GtEq),
        _ => None,
    }
}

/// Evaluate `expr` over the rows selected by `sel`; the result vector is
/// aligned with `sel` (`out.slot(i)` is the value for row `sel[i]`).
pub(crate) fn eval_vector(
    expr: &BoundExpr,
    src: &dyn VectorSource,
    sel: &[usize],
) -> Result<Vector> {
    match expr {
        BoundExpr::Literal(v) => Ok(Vector::constant(v.clone(), sel.len())),
        BoundExpr::Column(i) => src.load(*i, sel),
        BoundExpr::Binary { left, op, right } => match op {
            BinaryOp::And => eval_connective_vec(left, right, src, sel, false, "AND"),
            BinaryOp::Or => eval_connective_vec(left, right, src, sel, true, "OR"),
            _ => {
                let l = eval_vector(left, src, sel)?;
                let r = eval_vector(right, src, sel)?;
                match cmp_op(*op) {
                    Some(c) => Ok(compare(&l, &r, c)),
                    None => arith_vec(&l, *op, &r),
                }
            }
        },
        BoundExpr::Neg(e) => {
            let v = eval_vector(e, src, sel)?;
            let mut out = Vec::with_capacity(sel.len());
            for i in 0..sel.len() {
                out.push(match v.slot(i) {
                    Slot::Null => Value::Null,
                    Slot::Int(x) => Value::Int(-x),
                    Slot::Float(x) => Value::Float(-x),
                    other => {
                        return Err(SqlError::Eval(format!(
                            "cannot negate {v:?}",
                            v = other.to_value()
                        )))
                    }
                });
            }
            Ok(Vector::from_values(out))
        }
        BoundExpr::Not(e) => {
            let v = eval_vector(e, src, sel)?;
            let mut data = Vec::with_capacity(sel.len());
            let mut validity = Vec::with_capacity(sel.len());
            for i in 0..sel.len() {
                match v.slot(i) {
                    Slot::Null => {
                        data.push(false);
                        validity.push(false);
                    }
                    Slot::Bool(b) => {
                        data.push(!b);
                        validity.push(true);
                    }
                    other => {
                        return Err(SqlError::Eval(format!(
                            "NOT expects BOOL, got {v:?}",
                            v = other.to_value()
                        )))
                    }
                }
            }
            Ok(Vector::Bools { data, validity })
        }
        BoundExpr::IsNull { expr, negated } => {
            let v = eval_vector(expr, src, sel)?;
            let data: Vec<bool> = (0..sel.len()).map(|i| v.slot(i).is_null() != *negated).collect();
            let validity = vec![true; sel.len()];
            Ok(Vector::Bools { data, validity })
        }
        BoundExpr::InList { expr, list, negated } => eval_in_list(expr, list, *negated, src, sel),
        BoundExpr::Between { expr, low, high, negated } => {
            let v = eval_vector(expr, src, sel)?;
            let lo = eval_vector(low, src, sel)?;
            let hi = eval_vector(high, src, sel)?;
            let mut data = Vec::with_capacity(sel.len());
            let mut validity = Vec::with_capacity(sel.len());
            for i in 0..sel.len() {
                match (
                    slot_sql_cmp(v.slot(i), lo.slot(i)),
                    slot_sql_cmp(v.slot(i), hi.slot(i)),
                ) {
                    (Some(a), Some(b)) => {
                        let inside = a != Ordering::Less && b != Ordering::Greater;
                        data.push(inside != *negated);
                        validity.push(true);
                    }
                    _ => {
                        data.push(false);
                        validity.push(false);
                    }
                }
            }
            Ok(Vector::Bools { data, validity })
        }
        BoundExpr::Like { expr, pattern, negated } => {
            let v = eval_vector(expr, src, sel)?;
            let mut data = Vec::with_capacity(sel.len());
            let mut validity = Vec::with_capacity(sel.len());
            for i in 0..sel.len() {
                match v.slot(i) {
                    Slot::Null => {
                        data.push(false);
                        validity.push(false);
                    }
                    Slot::Str(s) => {
                        data.push(like_match(s, pattern) != *negated);
                        validity.push(true);
                    }
                    other => {
                        return Err(SqlError::Eval(format!(
                            "LIKE expects STR, got {v:?}",
                            v = other.to_value()
                        )))
                    }
                }
            }
            Ok(Vector::Bools { data, validity })
        }
        BoundExpr::Case { branches, else_expr } => {
            let n = sel.len();
            let mut out: Vec<Value> = vec![Value::Null; n];
            let mut active: Vec<usize> = (0..n).collect();
            for (cond, val) in branches {
                if active.is_empty() {
                    break;
                }
                let csel: Vec<usize> = active.iter().map(|&p| sel[p]).collect();
                let c = eval_vector(cond, src, &csel)?;
                let mut taken = Vec::new();
                let mut rest = Vec::new();
                for (k, &p) in active.iter().enumerate() {
                    if c.slot(k).as_bool() == Some(true) {
                        taken.push(p);
                    } else {
                        rest.push(p);
                    }
                }
                if !taken.is_empty() {
                    let vsel: Vec<usize> = taken.iter().map(|&p| sel[p]).collect();
                    let vv = eval_vector(val, src, &vsel)?;
                    for (k, &p) in taken.iter().enumerate() {
                        out[p] = vv.value(k);
                    }
                }
                active = rest;
            }
            if let Some(e) = else_expr {
                if !active.is_empty() {
                    let esel: Vec<usize> = active.iter().map(|&p| sel[p]).collect();
                    let ev = eval_vector(e, src, &esel)?;
                    for (k, &p) in active.iter().enumerate() {
                        out[p] = ev.value(k);
                    }
                }
            }
            Ok(Vector::from_values(out))
        }
    }
}

fn arith_vec(l: &Vector, op: BinaryOp, r: &Vector) -> Result<Vector> {
    let n = l.len().max(r.len());
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(arith_slots(l.slot(i), op, r.slot(i))?);
    }
    Ok(Vector::from_values(out))
}

/// Slot-wise arithmetic, replicating `plan::eval_binary`'s non-comparison
/// path exactly (NULL propagation, string concat via `+`, INT preservation,
/// identical error messages).
fn arith_slots(a: Slot<'_>, op: BinaryOp, b: Slot<'_>) -> Result<Value> {
    use BinaryOp::*;
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    if op == Add {
        if let (Slot::Str(x), Slot::Str(y)) = (a, b) {
            return Ok(Value::Str(format!("{x}{y}")));
        }
    }
    let (x, y) = match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => (x, y),
        _ => {
            return Err(SqlError::Eval(format!(
                "arithmetic {op:?} needs numeric operands, got {l:?} and {r:?}",
                l = a.to_value(),
                r = b.to_value()
            )))
        }
    };
    let both_int = matches!(a, Slot::Int(_)) && matches!(b, Slot::Int(_));
    let result = match op {
        Add => x + y,
        Sub => x - y,
        Mul => x * y,
        Div => {
            if y == 0.0 {
                return Err(SqlError::Eval("division by zero".into()));
            }
            x / y
        }
        Mod => {
            if y == 0.0 {
                return Err(SqlError::Eval("modulo by zero".into()));
            }
            x % y
        }
        _ => return Err(SqlError::Eval(format!("operator {op:?} is not arithmetic"))),
    };
    if both_int && (op != Div || result.fract() == 0.0) {
        Ok(Value::Int(result as i64))
    } else {
        Ok(Value::Float(result))
    }
}

/// Three-valued AND (`absorbing` FALSE) or OR (`absorbing` TRUE) with the
/// row engine's evaluation set: the right operand is evaluated only where
/// the left is not the absorbing value. `op` names the connective in type
/// errors.
fn eval_connective_vec(
    left: &BoundExpr,
    right: &BoundExpr,
    src: &dyn VectorSource,
    sel: &[usize],
    absorbing: bool,
    op: &str,
) -> Result<Vector> {
    #[derive(Clone, Copy, PartialEq)]
    enum L {
        Absorbing,
        Identity,
        Null,
    }
    let l = eval_vector(left, src, sel)?;
    let mut states = Vec::with_capacity(sel.len());
    for i in 0..sel.len() {
        let s = l.slot(i);
        states.push(match s.as_bool() {
            Some(b) if b == absorbing => L::Absorbing,
            Some(_) => L::Identity,
            None if s.is_null() => L::Null,
            None => {
                return Err(SqlError::Eval(format!(
                    "{op} expects BOOL, got {v:?}",
                    v = s.to_value()
                )))
            }
        });
    }
    let rsel: Vec<usize> = sel
        .iter()
        .zip(&states)
        .filter(|(_, st)| **st != L::Absorbing)
        .map(|(&g, _)| g)
        .collect();
    let r = eval_vector(right, src, &rsel)?;
    let mut data = Vec::with_capacity(sel.len());
    let mut validity = Vec::with_capacity(sel.len());
    let mut k = 0;
    for st in &states {
        let (value, valid) = match st {
            L::Absorbing => (absorbing, true),
            L::Identity => {
                let rs = r.slot(k);
                k += 1;
                match rs.as_bool() {
                    Some(b) => (b, true),
                    None if rs.is_null() => (false, false),
                    None => {
                        return Err(SqlError::Eval(format!(
                            "{op} expects BOOL, got {v:?}",
                            v = rs.to_value()
                        )))
                    }
                }
            }
            L::Null => {
                let rs = r.slot(k);
                k += 1;
                if rs.as_bool() == Some(absorbing) {
                    (absorbing, true)
                } else {
                    (false, false)
                }
            }
        };
        data.push(value);
        validity.push(valid);
    }
    Ok(Vector::Bools { data, validity })
}

/// IN-list with the row engine's per-row early exit: each list item is
/// evaluated only for rows not yet matched by an earlier item.
fn eval_in_list(
    expr: &BoundExpr,
    list: &[BoundExpr],
    negated: bool,
    src: &dyn VectorSource,
    sel: &[usize],
) -> Result<Vector> {
    let v = eval_vector(expr, src, sel)?;
    let n = sel.len();
    let mut out: Vec<Value> = vec![Value::Null; n];
    let mut decided = vec![false; n];
    let mut saw_null = vec![false; n];
    let mut active: Vec<usize> = Vec::new();
    for (i, d) in decided.iter_mut().enumerate() {
        if v.slot(i).is_null() {
            *d = true; // stays NULL
        } else {
            active.push(i);
        }
    }
    for item in list {
        if active.is_empty() {
            break;
        }
        let isel: Vec<usize> = active.iter().map(|&p| sel[p]).collect();
        let w = eval_vector(item, src, &isel)?;
        let mut still = Vec::with_capacity(active.len());
        for (k, &p) in active.iter().enumerate() {
            match slot_sql_cmp(v.slot(p), w.slot(k)) {
                Some(Ordering::Equal) => {
                    out[p] = Value::Bool(!negated);
                    decided[p] = true;
                }
                Some(_) => still.push(p),
                None => {
                    saw_null[p] = true;
                    still.push(p);
                }
            }
        }
        active = still;
    }
    for p in active {
        if !decided[p] {
            out[p] = if saw_null[p] { Value::Null } else { Value::Bool(negated) };
        }
    }
    Ok(Vector::from_values(out))
}

// ---------------------------------------------------------------------------
// Operators.
// ---------------------------------------------------------------------------

/// True when `p` selects every column in order (a no-op projection — the
/// optimizer emits these; the row path clones through them, the vectorized
/// path borrows instead).
fn is_identity_projection(p: &[usize], num_columns: usize) -> bool {
    p.len() == num_columns && p.iter().enumerate().all(|(i, &c)| i == c)
}

/// The row indices of `t` where `predicate` is TRUE, morsel-parallel.
fn filter_indices(
    t: &Table,
    predicate: &BoundExpr,
    cfg: MorselConfig,
    threads: usize,
) -> Result<Vec<usize>> {
    let ranges = morsel_ranges(t.num_rows(), cfg.morsel_rows);
    let src = TableSource(t);
    let test = RowTest::compile(t, predicate);
    let per: Vec<Result<Vec<usize>>> = run_ordered(ranges.len(), threads, |m| {
        if let Some(test) = &test {
            return Ok(ranges[m].clone().filter(|&r| test.truth(r) == Some(true)).collect());
        }
        let sel: Vec<usize> = ranges[m].clone().collect();
        let mask = eval_vector(predicate, &src, &sel)?;
        let mut keep = Vec::new();
        for (i, &g) in sel.iter().enumerate() {
            if mask.slot(i).as_bool() == Some(true) {
                keep.push(g);
            }
        }
        Ok(keep)
    });
    let kept = first_error(per)?;
    Ok(kept.into_iter().flatten().collect())
}

/// A filter predicate that reads its columns in place: each leaf tests one
/// column's slots against literals (no gathered vector, no boolean mask),
/// and connectives combine leaves under three-valued logic. On the shapes it
/// accepts it is `eval_vector` exactly — the same `slot_sql_cmp` per slot,
/// the same IN and BETWEEN rules — and none of them can error.
enum RowTest<'a> {
    /// `col op lit`, or `lit op col` when `lit_left`.
    Cmp { col: ColumnWindow<'a>, op: CmpOp, lit: Slot<'a>, lit_left: bool },
    IsNull { col: ColumnWindow<'a>, negated: bool },
    InList { col: ColumnWindow<'a>, list: Vec<Slot<'a>>, negated: bool },
    Between { col: ColumnWindow<'a>, low: Slot<'a>, high: Slot<'a>, negated: bool },
    And(Box<RowTest<'a>>, Box<RowTest<'a>>),
    Or(Box<RowTest<'a>>, Box<RowTest<'a>>),
    Not(Box<RowTest<'a>>),
}

impl<'a> RowTest<'a> {
    /// `predicate` over `t` as a row test; `None` for any other shape, which
    /// the caller evaluates in general.
    fn compile(t: &'a Table, predicate: &'a BoundExpr) -> Option<Self> {
        let col = |e: &BoundExpr| match e {
            BoundExpr::Column(c) => t.column(*c).ok().map(|c| ColumnWindow::new(c, 0, c.len())),
            _ => None,
        };
        let lit = |e: &'a BoundExpr| match e {
            BoundExpr::Literal(v) => Some(Slot::from_value(v)),
            _ => None,
        };
        let sub = |e: &'a BoundExpr| Self::compile(t, e).map(Box::new);
        Some(match predicate {
            BoundExpr::Binary { left, op: BinaryOp::And, right } => {
                Self::And(sub(left)?, sub(right)?)
            }
            BoundExpr::Binary { left, op: BinaryOp::Or, right } => {
                Self::Or(sub(left)?, sub(right)?)
            }
            BoundExpr::Binary { left, op, right } => {
                let op = cmp_op(*op)?;
                match (col(left), lit(right)) {
                    (Some(col), Some(lit)) => Self::Cmp { col, op, lit, lit_left: false },
                    _ => Self::Cmp { col: col(right)?, op, lit: lit(left)?, lit_left: true },
                }
            }
            BoundExpr::Not(e) => Self::Not(sub(e)?),
            BoundExpr::IsNull { expr, negated } => {
                Self::IsNull { col: col(expr)?, negated: *negated }
            }
            BoundExpr::InList { expr, list, negated } => Self::InList {
                col: col(expr)?,
                list: list.iter().map(lit).collect::<Option<_>>()?,
                negated: *negated,
            },
            BoundExpr::Between { expr, low, high, negated } => Self::Between {
                col: col(expr)?,
                low: lit(low)?,
                high: lit(high)?,
                negated: *negated,
            },
            _ => return None,
        })
    }

    /// The predicate's truth at base row `r` (`None` = unknown).
    fn truth(&self, r: usize) -> Option<bool> {
        match self {
            Self::Cmp { col, op, lit, lit_left } => {
                let (v, lit) = (col.slot_at(r), *lit);
                let ord = if *lit_left { slot_sql_cmp(lit, v) } else { slot_sql_cmp(v, lit) };
                ord.map(|o| op.holds(o))
            }
            Self::IsNull { col, negated } => Some(col.slot_at(r).is_null() != *negated),
            Self::InList { col, list, negated } => {
                let v = col.slot_at(r);
                if v.is_null() {
                    return None;
                }
                let mut saw_null = false;
                for &item in list {
                    match slot_sql_cmp(v, item) {
                        Some(Ordering::Equal) => return Some(!negated),
                        Some(_) => {}
                        None => saw_null = true,
                    }
                }
                (!saw_null).then_some(*negated)
            }
            Self::Between { col, low, high, negated } => {
                let v = col.slot_at(r);
                let (a, b) = (slot_sql_cmp(v, *low)?, slot_sql_cmp(v, *high)?);
                Some((a != Ordering::Less && b != Ordering::Greater) != *negated)
            }
            Self::And(l, r2) => match (l.truth(r), r2.truth(r)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Self::Or(l, r2) => match (l.truth(r), r2.truth(r)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            Self::Not(e) => e.truth(r).map(|b| !b),
        }
    }
}

fn filter_vec(t: &Table, predicate: &BoundExpr, cfg: MorselConfig, threads: usize) -> Result<Table> {
    let indices = filter_indices(t, predicate, cfg, threads)?;
    t.take(&indices).map_err(Into::into)
}

/// A borrowed base table, the projection mapping a scan's columns to its
/// columns, and a selection of its rows (ascending).
type PrunedSelection<'c, 'p> = (&'c Table, &'p [usize], Vec<usize>);

/// The selection a filter directly over a column-pruned scan keeps: the
/// predicate (whose column indices are scan-local) runs against the borrowed
/// base table, and the kept base rows come back ascending, with the base
/// table and the projection that maps scan columns to base columns. Bumps
/// the scan node's counters; the caller counts the filter's rows. `None`
/// when `plan` is not a filter over a projected scan.
fn pruned_filter_selection<'c, 'p>(
    catalog: &'c Catalog,
    plan: &'p Plan,
    cfg: MorselConfig,
    threads: usize,
    stats: &mut ExecStats,
) -> Result<Option<PrunedSelection<'c, 'p>>> {
    let Plan::Filter { input, predicate } = plan else {
        return Ok(None);
    };
    let Plan::Scan { table, projection: Some(p), .. } = &**input else {
        return Ok(None);
    };
    let base = &catalog.get(table)?.table;
    stats.rows_scanned += base.num_rows();
    stats.rows_materialized += base.num_rows(); // the scan node's count
    let pred = predicate.remap_columns(&|i| p[i]);
    let rows = filter_indices(base, &pred, cfg, threads)?;
    Ok(Some((base, p, rows)))
}

fn project_vec(
    t: &Table,
    exprs: &[BoundExpr],
    schema: &Schema,
    cfg: MorselConfig,
    threads: usize,
) -> Result<Table> {
    let ranges = morsel_ranges(t.num_rows(), cfg.morsel_rows);
    let src = TableSource(t);
    let per: Vec<Result<Batch>> = run_ordered(ranges.len(), threads, |m| {
        let sel: Vec<usize> = ranges[m].clone().collect();
        let vecs =
            exprs.iter().map(|e| eval_vector(e, &src, &sel)).collect::<Result<Vec<_>>>()?;
        Batch::new(vecs).map_err(Into::into)
    });
    let batches = first_error(per)?;
    let mut per_col: Vec<Vec<Vector>> =
        (0..exprs.len()).map(|_| Vec::with_capacity(batches.len())).collect();
    for b in batches {
        for (c, v) in b.into_vectors().into_iter().enumerate() {
            per_col[c].push(v);
        }
    }
    let mut columns = Vec::with_capacity(exprs.len());
    let mut fields = Vec::with_capacity(exprs.len());
    for (vecs, field) in per_col.into_iter().zip(schema.fields()) {
        let col = column_from_vectors(field.data_type(), vecs)?;
        fields.push(cda_dataframe::Field::new(field.name(), col.data_type()));
        columns.push(col);
    }
    t.with_columns(Schema::new(fields), columns).map_err(Into::into)
}

/// Typed-variant discriminant for the columnar fast path.
#[derive(Clone, Copy, PartialEq)]
enum VecKind {
    Int,
    Float,
    Str,
    Bool,
    Timestamp,
}

fn vec_kind(v: &Vector) -> Option<VecKind> {
    match v {
        Vector::Ints { .. } => Some(VecKind::Int),
        Vector::Floats { .. } => Some(VecKind::Float),
        Vector::Strs { .. } => Some(VecKind::Str),
        Vector::Bools { .. } => Some(VecKind::Bool),
        Vector::Timestamps { .. } => Some(VecKind::Timestamp),
        Vector::Const { .. } | Vector::Values(_) => None,
    }
}

fn vec_any_valid(v: &Vector) -> bool {
    match v {
        Vector::Ints { validity, .. }
        | Vector::Floats { validity, .. }
        | Vector::Strs { validity, .. }
        | Vector::Bools { validity, .. }
        | Vector::Timestamps { validity, .. } => validity.iter().any(|&b| b),
        Vector::Const { .. } | Vector::Values(_) => false,
    }
}

/// Concatenate per-morsel vectors into one output column. When every morsel
/// produced the *same* typed variant (and at least one slot is valid, so the
/// planned-type fallback is not in play), the buffers are concatenated
/// directly — no per-value boxing — with placeholders normalized to the
/// canonical values `Column::push` writes, so derived table equality against
/// the row path holds. Mixed, constant, or all-NULL results fall back to the
/// reference `column_from_values`, which owns type widening.
fn column_from_vectors(
    planned: cda_dataframe::DataType,
    vecs: Vec<Vector>,
) -> Result<Column> {
    let kind = vecs
        .first()
        .and_then(vec_kind)
        .filter(|&k| vecs.iter().all(|v| vec_kind(v) == Some(k)));
    if let Some(k) = kind {
        if vecs.iter().any(vec_any_valid) {
            let total: usize = vecs.iter().map(Vector::len).sum();
            let mut validity: Vec<bool> = Vec::with_capacity(total);
            let col = match k {
                VecKind::Int | VecKind::Timestamp => {
                    let mut data: Vec<i64> = Vec::with_capacity(total);
                    for v in vecs {
                        if let Vector::Ints { data: d, validity: va }
                        | Vector::Timestamps { data: d, validity: va } = v
                        {
                            data.extend(d);
                            validity.extend(va);
                        }
                    }
                    for (d, ok) in data.iter_mut().zip(&validity) {
                        if !ok {
                            *d = 0;
                        }
                    }
                    if k == VecKind::Int {
                        Column::from_int_parts(data, validity)?
                    } else {
                        Column::from_timestamp_parts(data, validity)?
                    }
                }
                VecKind::Float => {
                    let mut data: Vec<f64> = Vec::with_capacity(total);
                    for v in vecs {
                        if let Vector::Floats { data: d, validity: va } = v {
                            data.extend(d);
                            validity.extend(va);
                        }
                    }
                    for (d, ok) in data.iter_mut().zip(&validity) {
                        if !ok {
                            *d = 0.0;
                        }
                    }
                    Column::from_float_parts(data, validity)?
                }
                VecKind::Str => {
                    let mut data: Vec<String> = Vec::with_capacity(total);
                    for v in vecs {
                        if let Vector::Strs { data: d, validity: va } = v {
                            data.extend(d);
                            validity.extend(va);
                        }
                    }
                    for (d, ok) in data.iter_mut().zip(&validity) {
                        if !ok {
                            d.clear();
                        }
                    }
                    Column::from_str_parts(data, validity)?
                }
                VecKind::Bool => {
                    let mut data: Vec<bool> = Vec::with_capacity(total);
                    for v in vecs {
                        if let Vector::Bools { data: d, validity: va } = v {
                            data.extend(d);
                            validity.extend(va);
                        }
                    }
                    for (d, ok) in data.iter_mut().zip(&validity) {
                        if !ok {
                            *d = false;
                        }
                    }
                    Column::from_bool_parts(data, validity)?
                }
            };
            return Ok(col);
        }
    }
    let values: Vec<Value> = vecs.into_iter().flat_map(Vector::into_values).collect();
    column_from_values(planned, values)
}

/// A grouping/join key over a selection of rows: a column reference reads
/// the backing column's slots in place at the selected rows (zero-copy — no
/// string clones before hashing); computed key expressions materialize a
/// vector aligned with the selection.
enum KeySlots<'a> {
    Col { col: ColumnWindow<'a>, sel: &'a [usize] },
    Vec(Vector),
}

impl SlotAccess for KeySlots<'_> {
    fn slot_at(&self, i: usize) -> Slot<'_> {
        match self {
            KeySlots::Col { col, sel } => sel.get(i).map_or(Slot::Null, |&r| col.slot_at(r)),
            KeySlots::Vec(v) => v.slot_at(i),
        }
    }
}

/// Key accessor for `expr` over the selection `sel` of `t`'s rows.
fn key_slots<'a>(
    t: &'a Table,
    expr: &BoundExpr,
    src: &dyn VectorSource,
    sel: &'a [usize],
) -> Result<KeySlots<'a>> {
    match expr {
        BoundExpr::Column(c) => {
            let col = t.column(*c)?;
            Ok(KeySlots::Col { col: ColumnWindow::new(col, 0, col.len()), sel })
        }
        _ => Ok(KeySlots::Vec(eval_vector(expr, src, sel)?)),
    }
}

struct MorselGroups {
    keys: Vec<Vec<Value>>,
    /// Global row ids per local group, ascending.
    rows: Vec<Vec<usize>>,
}

/// Aggregate the rows `rows` of `t` (ascending; `None` = every row).
#[expect(
    clippy::too_many_arguments,
    reason = "the Aggregate node's fields plus its input selection and the morsel execution context"
)]
fn aggregate_vec(
    t: &Table,
    rows: Option<Vec<usize>>,
    group_exprs: &[BoundExpr],
    aggs: &[AggExpr],
    schema: &Schema,
    opts: ExecOptions,
    cfg: MorselConfig,
    threads: usize,
) -> Result<Table> {
    let src = TableSource(t);
    let rows = rows.unwrap_or_else(|| (0..t.num_rows()).collect());
    let mut keys: Vec<Vec<Value>> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    if group_exprs.is_empty() {
        // A grouping-free aggregate is one group, the selection in order
        // (also when it is empty): nothing to hash.
        keys.push(Vec::new());
        groups.push(rows);
    } else {
        let ranges = morsel_ranges(rows.len(), cfg.morsel_rows);
        let per: Vec<Result<MorselGroups>> = run_ordered(ranges.len(), threads, |m| {
            let sel = &rows[ranges[m].clone()];
            let keys = group_exprs
                .iter()
                .map(|e| key_slots(t, e, &src, sel))
                .collect::<Result<Vec<_>>>()?;
            let (gkeys, grows) = group_rows(&keys, sel.len());
            let rows = grows.into_iter().map(|g| g.into_iter().map(|i| sel[i]).collect()).collect();
            Ok(MorselGroups { keys: gkeys, rows })
        });
        // Merge per-morsel group tables in morsel order: global first-seen
        // order equals row order, and each group's row list stays ascending.
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        for mg in first_error(per)? {
            for (key, rows) in mg.keys.into_iter().zip(mg.rows) {
                let h = values_group_hash(&key);
                let cands = buckets.entry(h).or_default();
                match cands.iter().copied().find(|&g| keys[g] == key) {
                    Some(g) => groups[g].extend(rows),
                    None => {
                        cands.push(keys.len());
                        keys.push(key);
                        groups.push(rows);
                    }
                }
            }
        }
    }

    let out_cols = group_exprs.len() + aggs.len();
    let mut per_col: Vec<Vec<Value>> = vec![Vec::with_capacity(groups.len()); out_cols];
    let mut lineage = LineageBuilder::with_capacity(groups.len());
    for (key, rows) in keys.iter().zip(&groups) {
        for (c, kv) in key.iter().enumerate() {
            per_col[c].push(kv.clone());
        }
        for (j, agg) in aggs.iter().enumerate() {
            per_col[group_exprs.len() + j].push(aggregate_group(t, &src, rows, agg)?);
        }
        if opts.track_lineage {
            for &rix in rows {
                lineage.extend_row(t.lineage(rix)?);
            }
        }
        lineage.finish_set_row();
    }
    let mut columns = Vec::with_capacity(out_cols);
    let mut fields = Vec::with_capacity(out_cols);
    for (values, field) in per_col.into_iter().zip(schema.fields()) {
        let col = column_from_values(field.data_type(), values)?;
        fields.push(cda_dataframe::Field::new(field.name(), col.data_type()));
        columns.push(col);
    }
    Table::with_lineage(Schema::new(fields), columns, lineage.build()).map_err(Into::into)
}

/// One aggregate over one group's rows (ascending). A column argument folds
/// its typed buffer in place ([`fold_column`]); anything else evaluates the
/// argument over the group and folds the values with the reference
/// `agg_over_values`.
fn aggregate_group(
    t: &Table,
    src: &TableSource<'_>,
    rows: &[usize],
    agg: &AggExpr,
) -> Result<Value> {
    let Some(arg) = &agg.arg else {
        return Ok(Value::Int(rows.len() as i64));
    };
    if let BoundExpr::Column(c) = arg {
        if let Some(v) = fold_column(t.column(*c)?, rows, agg.kind) {
            return Ok(v);
        }
    }
    let v = eval_vector(arg, src, rows)?;
    let vals: Vec<Value> = (0..rows.len()).map(|k| v.value(k)).collect();
    agg_over_values(agg.kind, &vals)
}

/// The slot among `rows` that `cmp` ranks `want`-most (the first on ties),
/// skipping NULLs — the MIN/MAX loop of `agg_over_values`.
fn best_slot<'a, T>(
    data: &'a [T],
    valid: impl Fn(usize) -> bool,
    rows: &[usize],
    want: Ordering,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> Option<&'a T> {
    let mut best: Option<&T> = None;
    for &r in rows {
        if !valid(r) {
            continue;
        }
        let Some(x) = data.get(r) else { continue };
        match best {
            Some(b) if cmp(x, b) != want => {}
            _ => best = Some(x),
        }
    }
    best
}

/// SUM/AVG/STDDEV over the numeric values `vals` yields (NULLs already
/// skipped), bit-identical to `agg_over_values`: the same `f64` sums in the
/// same order, a two-pass STDDEV.
fn numeric_fold<I: Iterator<Item = f64>>(
    kind: AggKind,
    vals: impl Fn() -> I,
    all_int: bool,
) -> Value {
    let n = vals().count();
    if n == 0 {
        return Value::Null;
    }
    let sum: f64 = vals().sum();
    match kind {
        AggKind::Sum if all_int => Value::Int(sum as i64),
        AggKind::Sum => Value::Float(sum),
        AggKind::Avg => Value::Float(sum / n as f64),
        _ => {
            let mean = sum / n as f64;
            let var = vals().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
            Value::Float(var.sqrt())
        }
    }
}

/// `kind` folded over column `col` at `rows` (ascending), typed and in place,
/// bit-identical to `agg_over_values` over the same values: `f64`
/// accumulation in row order (SUM over INT included), a two-pass STDDEV,
/// `total_cmp` for MIN/MAX. `None` for what it does not type —
/// COUNT(DISTINCT), or a numeric fold over STR/BOOL — which takes the
/// generic path.
fn fold_column(col: &Column, rows: &[usize], kind: AggKind) -> Option<Value> {
    use cda_dataframe::DataType;
    let ok = |r: usize| col.is_valid(r);
    let ty = col.data_type();
    match kind {
        AggKind::Count => Some(Value::Int(rows.iter().filter(|&&r| ok(r)).count() as i64)),
        AggKind::CountDistinct => None,
        AggKind::Min | AggKind::Max => {
            let want = if kind == AggKind::Min {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            Some(match ty {
                DataType::Int | DataType::Timestamp => {
                    let best = best_slot(col.ints()?, ok, rows, want, |x, y| {
                        (*x as f64).total_cmp(&(*y as f64))
                    });
                    match best {
                        None => Value::Null,
                        Some(&x) if ty == DataType::Int => Value::Int(x),
                        Some(&x) => Value::Timestamp(x),
                    }
                }
                DataType::Float => best_slot(col.floats()?, ok, rows, want, f64::total_cmp)
                    .map_or(Value::Null, |&x| Value::Float(x)),
                DataType::Str => best_slot(col.strs()?, ok, rows, want, |x, y| x.cmp(y))
                    .map_or(Value::Null, |x| Value::Str(x.clone())),
                DataType::Bool => best_slot(col.bools()?, ok, rows, want, bool::cmp)
                    .map_or(Value::Null, |&x| Value::Bool(x)),
            })
        }
        AggKind::Sum | AggKind::Avg | AggKind::StdDev => match ty {
            DataType::Int | DataType::Timestamp => {
                let data = col.ints()?;
                let vals = || {
                    rows.iter()
                        .filter(|&&r| ok(r))
                        .filter_map(|&r| data.get(r))
                        .map(|&x| x as f64)
                };
                Some(numeric_fold(kind, vals, ty == DataType::Int))
            }
            DataType::Float => {
                let data = col.floats()?;
                let vals = || {
                    rows.iter()
                        .filter(|&&r| ok(r))
                        .filter_map(|&r| data.get(r))
                        .copied()
                };
                Some(numeric_fold(kind, vals, false))
            }
            DataType::Str | DataType::Bool => None,
        },
    }
}

fn distinct_vec(t: &Table, opts: ExecOptions) -> Result<Table> {
    let windows: Vec<ColumnWindow<'_>> =
        t.columns().iter().map(|c| ColumnWindow::new(c, 0, t.num_rows())).collect();
    let (_, groups) = group_rows(&windows, t.num_rows());
    let mut first_rows = Vec::with_capacity(groups.len());
    let mut lineage = LineageBuilder::with_capacity(groups.len());
    for g in &groups {
        let Some(&first) = g.first() else { continue };
        first_rows.push(first);
        if opts.track_lineage {
            for &rix in g {
                lineage.extend_row(t.lineage(rix)?);
            }
        }
        lineage.finish_set_row();
    }
    let taken = t.take(&first_rows)?;
    Table::with_lineage(taken.schema().clone(), taken.columns().to_vec(), lineage.build())
        .map_err(Into::into)
}

// ---------------------------------------------------------------------------
// Joins.
// ---------------------------------------------------------------------------

struct HashJoinPlan {
    /// Key expressions over the left table (left-local column indices).
    left_keys: Vec<BoundExpr>,
    /// Key expressions over the right table (remapped to right-local).
    right_keys: Vec<BoundExpr>,
    /// Non-equi conjuncts, still over the joined row's column space.
    residual: Vec<BoundExpr>,
}

/// Classify the ON condition for the hash path: error-free (re-implemented
/// from the optimizer's classifier, deliberately not shared — same policy as
/// `cda-analyzer::equiv`) with at least one strictly-sided equi-conjunct.
fn plan_hash_join(on: &BoundExpr, left_arity: usize) -> Option<HashJoinPlan> {
    if !on_error_free(on) {
        return None;
    }
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut residual = Vec::new();
    for c in split_conjuncts(on.clone()) {
        if let BoundExpr::Binary { left, op: BinaryOp::Eq, right } = &c {
            let mut lc = Vec::new();
            let mut rc = Vec::new();
            left.collect_columns(&mut lc);
            right.collect_columns(&mut rc);
            let sided = |cols: &[usize], left_side: bool| {
                !cols.is_empty()
                    && cols.iter().all(|&i| if left_side { i < left_arity } else { i >= left_arity })
            };
            if sided(&lc, true) && sided(&rc, false) {
                left_keys.push((**left).clone());
                right_keys.push(right.remap_columns(&|i| i - left_arity));
                continue;
            }
            if sided(&rc, true) && sided(&lc, false) {
                left_keys.push((**right).clone());
                right_keys.push(left.remap_columns(&|i| i - left_arity));
                continue;
            }
        }
        residual.push(c);
    }
    if left_keys.is_empty() {
        None
    } else {
        Some(HashJoinPlan { left_keys, right_keys, residual })
    }
}

/// `optimizer::error_free`, re-implemented for the physical layer's
/// hash-join eligibility check (a bug in one copy cannot silently license
/// the other's rewrite — the repo's certifier-independence policy).
fn on_error_free(e: &BoundExpr) -> bool {
    match e {
        BoundExpr::Literal(_) | BoundExpr::Column(_) => true,
        BoundExpr::Binary { left, op, right } => {
            if op.is_comparison() {
                on_error_free(left) && on_error_free(right)
            } else if matches!(op, BinaryOp::And | BinaryOp::Or) {
                on_bool_shaped(left)
                    && on_bool_shaped(right)
                    && on_error_free(left)
                    && on_error_free(right)
            } else {
                false
            }
        }
        BoundExpr::Neg(_) => false,
        BoundExpr::Not(x) => on_bool_shaped(x) && on_error_free(x),
        BoundExpr::IsNull { expr, .. } => on_error_free(expr),
        BoundExpr::InList { expr, list, .. } => {
            on_error_free(expr) && list.iter().all(on_error_free)
        }
        BoundExpr::Between { expr, low, high, .. } => {
            on_error_free(expr) && on_error_free(low) && on_error_free(high)
        }
        BoundExpr::Like { .. } => false,
        BoundExpr::Case { .. } => false,
    }
}

fn on_bool_shaped(e: &BoundExpr) -> bool {
    match e {
        BoundExpr::Literal(Value::Bool(_)) | BoundExpr::Literal(Value::Null) => true,
        BoundExpr::Binary { op, .. } => {
            op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or)
        }
        BoundExpr::Not(x) => on_bool_shaped(x),
        BoundExpr::IsNull { .. }
        | BoundExpr::InList { .. }
        | BoundExpr::Between { .. }
        | BoundExpr::Like { .. } => true,
        _ => false,
    }
}

#[expect(
    clippy::too_many_arguments,
    reason = "the Join node's fields plus the morsel execution context"
)]
fn join_vec(
    l: &Table,
    r: &Table,
    kind: JoinKind,
    on: &BoundExpr,
    opts: ExecOptions,
    cfg: MorselConfig,
    threads: usize,
    stats: &mut ExecStats,
) -> Result<Table> {
    match plan_hash_join(on, l.num_columns()) {
        Some(hj) => hash_join(l, r, kind, &hj, opts, cfg, threads, stats),
        None => nl_join(l, r, kind, on, opts, cfg, threads, stats),
    }
}

struct MorselPairs {
    pairs: Vec<(usize, Option<usize>)>,
    candidates: usize,
}

#[expect(
    clippy::too_many_arguments,
    reason = "the Join node's fields plus the morsel execution context"
)]
fn hash_join(
    l: &Table,
    r: &Table,
    kind: JoinKind,
    hj: &HashJoinPlan,
    opts: ExecOptions,
    cfg: MorselConfig,
    threads: usize,
    stats: &mut ExecStats,
) -> Result<Table> {
    let schema = l.schema().join(r.schema());
    // Build on the right side (the reference loop's inner side).
    let rsel: Vec<usize> = (0..r.num_rows()).collect();
    let rsrc = TableSource(r);
    let rkeys = hj
        .right_keys
        .iter()
        .map(|e| key_slots(r, e, &rsrc, &rsel))
        .collect::<Result<Vec<_>>>()?;
    let table = build_join_table(&rkeys, r.num_rows());
    let lsrc = TableSource(l);
    let ranges = morsel_ranges(l.num_rows(), cfg.morsel_rows);
    let per: Vec<Result<MorselPairs>> = run_ordered(ranges.len(), threads, |m| {
        let sel: Vec<usize> = ranges[m].clone().collect();
        let lkeys = hj
            .left_keys
            .iter()
            .map(|e| key_slots(l, e, &lsrc, &sel))
            .collect::<Result<Vec<_>>>()?;
        let mut cand: Vec<(usize, usize)> = Vec::new();
        let mut considered = 0usize;
        for i in 0..sel.len() {
            if let Some(h) = join_key_hash(&lkeys, i) {
                for &ri in table.candidates(h) {
                    considered += 1;
                    if join_keys_match(&rkeys, ri, &lkeys, i) {
                        cand.push((i, ri));
                    }
                }
            }
        }
        let matched: Vec<(usize, usize)> = if hj.residual.is_empty() {
            cand
        } else {
            let pairs: Vec<(usize, Option<usize>)> =
                cand.iter().map(|&(i, ri)| (sel[i], Some(ri))).collect();
            let psrc = PairSource { left: l, right: r, pairs: &pairs };
            let psel: Vec<usize> = (0..pairs.len()).collect();
            let mut keep = vec![true; pairs.len()];
            for c in &hj.residual {
                let v = eval_vector(c, &psrc, &psel)?;
                for (k, keep_k) in keep.iter_mut().enumerate() {
                    if v.slot(k).as_bool() != Some(true) {
                        *keep_k = false;
                    }
                }
            }
            cand.into_iter().zip(keep).filter(|(_, k)| *k).map(|(p, _)| p).collect()
        };
        // Emit left-row-major with right matches ascending; LEFT-pad misses.
        let mut pairs: Vec<(usize, Option<usize>)> = Vec::with_capacity(matched.len());
        let mut k = 0;
        for (i, &li) in sel.iter().enumerate() {
            let start = pairs.len();
            while k < matched.len() && matched[k].0 == i {
                pairs.push((li, Some(matched[k].1)));
                k += 1;
            }
            if pairs.len() == start && kind == JoinKind::Left {
                pairs.push((li, None));
            }
        }
        Ok(MorselPairs { pairs, candidates: considered })
    });
    let per = first_error(per)?;
    let mut pairs: Vec<(usize, Option<usize>)> = Vec::new();
    for mp in per {
        stats.join_pairs += mp.candidates;
        pairs.extend(mp.pairs);
    }
    gather_join_output(l, r, &schema, &pairs, opts)
}

/// Materialize joined pairs column-wise (left columns gathered, right
/// columns NULL-padded with the reference loop's `Column::push` coercions)
/// with reference lineage semantics.
fn gather_join_output(
    l: &Table,
    r: &Table,
    schema: &Schema,
    pairs: &[(usize, Option<usize>)],
    opts: ExecOptions,
) -> Result<Table> {
    let left_rows: Vec<usize> = pairs.iter().map(|&(li, _)| li).collect();
    let mut columns: Vec<Column> =
        l.columns().iter().map(|c| c.take(&left_rows)).collect::<std::result::Result<_, _>>()?;
    for (c, field) in r.columns().iter().zip(r.schema().fields()) {
        let mut out = ColumnBuilder::with_capacity(field.data_type(), pairs.len());
        for &(_, ri) in pairs {
            out.push(match ri {
                Some(ri) => c.value(ri)?,
                None => Value::Null,
            })?;
        }
        columns.push(out.finish());
    }
    Table::with_lineage(schema.clone(), columns, join_lineage(l, r, pairs, opts)?)
        .map_err(Into::into)
}

/// Join lineage: a matched pair cites the union of both rows' ids (sorted,
/// deduplicated), a LEFT-padded miss cites its left row's ids as they are.
fn join_lineage(
    l: &Table,
    r: &Table,
    pairs: &[(usize, Option<usize>)],
    opts: ExecOptions,
) -> Result<LineageStore> {
    let mut lineage = LineageBuilder::with_capacity(pairs.len());
    for &(li, ri) in pairs {
        if !opts.track_lineage {
            lineage.finish_row();
            continue;
        }
        lineage.extend_row(l.lineage(li)?);
        match ri {
            Some(ri) => {
                lineage.extend_row(r.lineage(ri)?);
                lineage.finish_set_row();
            }
            None => lineage.finish_row(),
        }
    }
    Ok(lineage.build())
}

struct NlMorsel {
    per_col: Vec<Vec<Value>>,
    /// The emitted `(left row, right row)` pairs, `None` for a LEFT miss.
    emitted: Vec<(usize, Option<usize>)>,
    pairs: usize,
}

/// Morsel-partitioned replica of the reference nested loop (used when the ON
/// condition is fallible or has no equi-key): byte-identical to `exec::join`
/// including `join_pairs` and error order.
#[expect(
    clippy::too_many_arguments,
    reason = "the Join node's fields plus the morsel execution context"
)]
fn nl_join(
    l: &Table,
    r: &Table,
    kind: JoinKind,
    on: &BoundExpr,
    opts: ExecOptions,
    cfg: MorselConfig,
    threads: usize,
    stats: &mut ExecStats,
) -> Result<Table> {
    let schema = l.schema().join(r.schema());
    let right_rows: Vec<Vec<Value>> =
        (0..r.num_rows()).map(|i| r.row(i)).collect::<std::result::Result<_, _>>()?;
    let ranges = morsel_ranges(l.num_rows(), cfg.morsel_rows);
    let per: Vec<Result<NlMorsel>> = run_ordered(ranges.len(), threads, |m| {
        let mut per_col: Vec<Vec<Value>> = vec![Vec::new(); schema.len()];
        let mut emitted = Vec::new();
        let mut pairs = 0usize;
        for li in ranges[m].clone() {
            let lrow = l.row(li)?;
            let mut matched = false;
            for (ri, rrow) in right_rows.iter().enumerate() {
                pairs += 1;
                let mut full = lrow.clone();
                full.extend(rrow.iter().cloned());
                if on.eval(&full)?.as_bool() == Some(true) {
                    matched = true;
                    for (c, v) in full.into_iter().enumerate() {
                        per_col[c].push(v);
                    }
                    emitted.push((li, Some(ri)));
                }
            }
            if !matched && kind == JoinKind::Left {
                for (c, v) in lrow.into_iter().enumerate() {
                    per_col[c].push(v);
                }
                for col in per_col.iter_mut().take(schema.len()).skip(l.num_columns()) {
                    col.push(Value::Null);
                }
                emitted.push((li, None));
            }
        }
        Ok(NlMorsel { per_col, emitted, pairs })
    });
    let outs = first_error(per)?;
    let mut columns: Vec<ColumnBuilder> =
        schema.fields().iter().map(|f| ColumnBuilder::with_capacity(f.data_type(), 0)).collect();
    let mut emitted = Vec::new();
    for out in outs {
        stats.join_pairs += out.pairs;
        for (c, vals) in out.per_col.into_iter().enumerate() {
            for v in vals {
                columns[c].push(v)?;
            }
        }
        emitted.extend(out.emitted);
    }
    let columns = columns.into_iter().map(ColumnBuilder::finish).collect();
    let lineage = join_lineage(l, r, &emitted, opts)?;
    Table::with_lineage(schema, columns, lineage).map_err(Into::into)
}

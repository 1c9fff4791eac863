//! Plan execution with lineage propagation.
//!
//! The executor interprets a [`Plan`] against a [`Catalog`], producing a
//! [`QueryResult`] that carries the result table (with per-row lineage), the
//! executed plan (for `EXPLAIN`-style explanations, P3), and execution
//! statistics (rows scanned / materialized, for the efficiency experiments).
//!
//! Lineage semantics ("why-provenance" witnesses):
//! * scan/filter/sort/limit/project keep each row's existing lineage;
//! * join rows take the **union** of both sides' lineage;
//! * aggregate rows take the union over all rows of the group;
//! * distinct rows take the union over all duplicate witnesses.

use crate::ast::JoinKind;
use crate::catalog::Catalog;
use crate::compile::plan_query;
use crate::error::SqlError;
use crate::optimizer::OptimizerRules;
use crate::parser::parse;
use crate::plan::{AggExpr, BoundExpr, Plan, SortSpec};
use crate::Result;
use cda_dataframe::kernels::{sort_indices, AggKind, SortKey, SortOrder};
use cda_dataframe::{
    Column, ColumnBuilder, DataType, DomainTree, LineageBuilder, Schema, Table, Value,
};
use std::collections::HashMap;

/// Execution options.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Optimizer rules to apply before execution.
    pub rules: OptimizerRules,
    /// Whether to compute join/aggregate/distinct lineage unions. Disabling
    /// this (experiment E4) measures the cost of provenance tracking.
    pub track_lineage: bool,
    /// When `Some`, run on the vectorized morsel-parallel engine
    /// ([`crate::physical`]) with the given scheduler configuration; `None`
    /// (the default) runs the row-at-a-time reference interpreter. Both paths
    /// produce byte-identical tables (see `crate::physical` docs).
    pub vectorized: Option<crate::morsel::MorselConfig>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self { rules: OptimizerRules::all(), track_lineage: true, vectorized: None }
    }
}

impl ExecOptions {
    /// Default options, but on the vectorized morsel-parallel engine.
    pub fn vectorized() -> Self {
        Self { vectorized: Some(crate::morsel::MorselConfig::default()), ..Self::default() }
    }
}

/// Counters collected during execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows read from base tables.
    pub rows_scanned: usize,
    /// Rows materialized by all operators (including the final result).
    pub rows_materialized: usize,
    /// Row-pairs considered by nested-loop joins.
    pub join_pairs: usize,
}

/// The result of executing one SQL query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The result table (with lineage if tracking was enabled).
    pub table: Table,
    /// The optimized plan that was executed.
    pub plan: Plan,
    /// Execution statistics.
    pub stats: ExecStats,
}

/// Parse, plan, optimize (default rules), and execute a SELECT.
pub fn execute(catalog: &Catalog, sql: &str) -> Result<QueryResult> {
    execute_with_options(catalog, sql, ExecOptions::default())
}

/// Parse, plan, optimize, and execute with explicit options.
pub fn execute_with_options(catalog: &Catalog, sql: &str, options: ExecOptions) -> Result<QueryResult> {
    let (_, plan) = plan_query(catalog, &parse(sql)?, options.rules)?;
    let mut stats = ExecStats::default();
    let table = dispatch(catalog, &plan, options, None, &mut stats)?;
    Ok(QueryResult { table, plan, stats })
}

/// Execute an already-built plan.
pub fn execute_plan(catalog: &Catalog, plan: &Plan, options: ExecOptions) -> Result<QueryResult> {
    execute_plan_checked(catalog, plan, options, None)
}

/// Execute an already-built plan under the abstract-interpretation sanitizer.
///
/// When `monitor` is `Some`, it must be the [`DomainTree`] that
/// `cda_analyzer::domain_tree` computed **for this exact plan** (same shape,
/// post-optimizer): every table an operator materializes is checked against
/// its node's static domain, and any value, null, or row-count outside the
/// domain aborts execution with [`SqlError::Eval`] naming the node and the
/// violating bound. A tree whose shape diverges from the plan fails open
/// (unmatched children are simply not checked). `None` is exactly
/// [`execute_plan`].
pub fn execute_plan_checked(
    catalog: &Catalog,
    plan: &Plan,
    options: ExecOptions,
    monitor: Option<&DomainTree>,
) -> Result<QueryResult> {
    let mut stats = ExecStats::default();
    let table = dispatch(catalog, plan, options, monitor, &mut stats)?;
    Ok(QueryResult { table, plan: plan.clone(), stats })
}

fn dispatch(
    catalog: &Catalog,
    plan: &Plan,
    opts: ExecOptions,
    monitor: Option<&DomainTree>,
    stats: &mut ExecStats,
) -> Result<Table> {
    match opts.vectorized {
        Some(cfg) => crate::physical::run_vectorized(catalog, plan, opts, cfg, monitor, stats),
        None => run(catalog, plan, opts, monitor, stats),
    }
}

/// Short operator label for sanitizer violation messages.
pub(crate) fn node_label(plan: &Plan) -> String {
    match plan {
        Plan::Scan { table, .. } => format!("Scan {table}"),
        Plan::Filter { .. } => "Filter".into(),
        Plan::Join { kind, .. } => format!("{kind:?} Join"),
        Plan::Project { .. } => "Project".into(),
        Plan::Aggregate { .. } => "Aggregate".into(),
        Plan::Distinct { .. } => "Distinct".into(),
        Plan::Sort { .. } => "Sort".into(),
        Plan::Limit { .. } => "Limit".into(),
    }
}

/// Check one materialized operator output against its static domain.
pub(crate) fn sanitize(plan: &Plan, monitor: Option<&DomainTree>, out: &Table) -> Result<()> {
    if let Some(m) = monitor {
        m.node
            .check_table(&node_label(plan), out)
            .map_err(|v| SqlError::Eval(v.to_string()))?;
    }
    Ok(())
}

fn run(
    catalog: &Catalog,
    plan: &Plan,
    opts: ExecOptions,
    monitor: Option<&DomainTree>,
    stats: &mut ExecStats,
) -> Result<Table> {
    // The monitor tree mirrors the plan tree; child `i` of this node is
    // checked by child `i` of the monitor (missing children check nothing).
    let sub = |i: usize| monitor.and_then(|m| m.children.get(i));
    let out = match plan {
        Plan::Scan { table, projection, .. } => {
            let entry = catalog.get(table)?;
            stats.rows_scanned += entry.table.num_rows();
            match projection {
                Some(p) => entry.table.project(p)?,
                None => entry.table.clone(),
            }
        }
        Plan::Filter { input, predicate } => {
            let t = run(catalog, input, opts, sub(0), stats)?;
            let mut mask = Vec::with_capacity(t.num_rows());
            for r in 0..t.num_rows() {
                let row = t.row(r)?;
                mask.push(predicate.eval(&row)?.as_bool() == Some(true));
            }
            t.filter(&mask)?
        }
        Plan::Join { left, right, kind, on } => {
            let l = run(catalog, left, opts, sub(0), stats)?;
            let r = run(catalog, right, opts, sub(1), stats)?;
            join(&l, &r, *kind, on, opts, stats)?
        }
        Plan::Project { input, exprs, schema } => {
            let t = run(catalog, input, opts, sub(0), stats)?;
            project(&t, exprs, schema)?
        }
        Plan::Aggregate { input, group_exprs, aggs, schema } => {
            let t = run(catalog, input, opts, sub(0), stats)?;
            aggregate(&t, group_exprs, aggs, schema, opts)?
        }
        Plan::Distinct { input } => {
            let t = run(catalog, input, opts, sub(0), stats)?;
            distinct(&t, opts)?
        }
        Plan::Sort { input, keys } => {
            let t = run(catalog, input, opts, sub(0), stats)?;
            sort(&t, keys)?
        }
        Plan::Limit { input, limit, offset } => {
            let t = run(catalog, input, opts, sub(0), stats)?;
            let start = (*offset).min(t.num_rows());
            let end = match limit {
                Some(l) => (start + l).min(t.num_rows()),
                None => t.num_rows(),
            };
            let indices: Vec<usize> = (start..end).collect();
            t.take(&indices)?
        }
    };
    sanitize(plan, monitor, &out)?;
    stats.rows_materialized += out.num_rows();
    Ok(out)
}

/// The type of a column holding values of types `a` and `b`: INT widens to
/// FLOAT or TIMESTAMP; `None` when no column holds both.
pub(crate) fn common_type(a: DataType, b: DataType) -> Option<DataType> {
    match (a, b) {
        _ if a == b => Some(a),
        (DataType::Int, wide @ (DataType::Float | DataType::Timestamp))
        | (wide @ (DataType::Float | DataType::Timestamp), DataType::Int) => Some(wide),
        _ => None,
    }
}

/// Build a column from evaluated values, widening the planner's guess when
/// the actual values require it (values no one type holds become STR).
pub(crate) fn column_from_values(planned: DataType, values: Vec<Value>) -> Result<Column> {
    let mut ty = planned;
    let mut has_any = false;
    for v in &values {
        let Some(vt) = v.data_type() else { continue };
        if !has_any {
            ty = vt;
            has_any = true;
            continue;
        }
        ty = common_type(ty, vt).unwrap_or(DataType::Str);
    }
    let mut col = ColumnBuilder::with_capacity(ty, values.len());
    for v in values {
        let coerced = match (ty, &v) {
            (DataType::Str, Value::Null) => Value::Null,
            (DataType::Str, Value::Str(_)) => v,
            (DataType::Str, other) => Value::Str(other.to_string()),
            (DataType::Float, Value::Int(x)) => Value::Float(*x as f64),
            _ => v,
        };
        col.push(coerced)?;
    }
    Ok(col.finish())
}

fn project(t: &Table, exprs: &[BoundExpr], schema: &Schema) -> Result<Table> {
    let n = t.num_rows();
    let mut per_col: Vec<Vec<Value>> = vec![Vec::with_capacity(n); exprs.len()];
    for r in 0..n {
        let row = t.row(r)?;
        for (c, e) in exprs.iter().enumerate() {
            per_col[c].push(e.eval(&row)?);
        }
    }
    let mut columns = Vec::with_capacity(exprs.len());
    let mut fields = Vec::with_capacity(exprs.len());
    for ((values, field), _) in per_col.into_iter().zip(schema.fields()).zip(exprs) {
        let col = column_from_values(field.data_type(), values)?;
        fields.push(cda_dataframe::Field::new(field.name(), col.data_type()));
        columns.push(col);
    }
    t.with_columns(Schema::new(fields), columns).map_err(Into::into)
}

fn join(
    l: &Table,
    r: &Table,
    kind: JoinKind,
    on: &BoundExpr,
    opts: ExecOptions,
    stats: &mut ExecStats,
) -> Result<Table> {
    let schema = l.schema().join(r.schema());
    let mut columns: Vec<ColumnBuilder> =
        schema.fields().iter().map(|f| ColumnBuilder::with_capacity(f.data_type(), 0)).collect();
    let mut lineage = LineageBuilder::with_capacity(l.num_rows());
    // Cache right rows to avoid re-extracting values in the inner loop.
    let right_rows: Vec<Vec<Value>> =
        (0..r.num_rows()).map(|i| r.row(i)).collect::<std::result::Result<_, _>>()?;
    for li in 0..l.num_rows() {
        let lrow = l.row(li)?;
        let mut matched = false;
        for (ri, rrow) in right_rows.iter().enumerate() {
            stats.join_pairs += 1;
            let mut full = lrow.clone();
            full.extend(rrow.iter().cloned());
            if on.eval(&full)?.as_bool() == Some(true) {
                matched = true;
                for (c, v) in full.into_iter().enumerate() {
                    columns[c].push(v)?;
                }
                if opts.track_lineage {
                    lineage.extend_row(l.lineage(li)?);
                    lineage.extend_row(r.lineage(ri)?);
                    lineage.finish_set_row();
                } else {
                    lineage.finish_row();
                }
            }
        }
        if !matched && kind == JoinKind::Left {
            for (c, v) in lrow.into_iter().enumerate() {
                columns[c].push(v)?;
            }
            for col in columns.iter_mut().take(schema.len()).skip(l.num_columns()) {
                col.push(Value::Null)?;
            }
            if opts.track_lineage {
                lineage.extend_row(l.lineage(li)?);
            }
            lineage.finish_row();
        }
    }
    let columns = columns.into_iter().map(ColumnBuilder::finish).collect();
    Table::with_lineage(schema, columns, lineage.build()).map_err(Into::into)
}

fn aggregate(
    t: &Table,
    group_exprs: &[BoundExpr],
    aggs: &[AggExpr],
    schema: &Schema,
    opts: ExecOptions,
) -> Result<Table> {
    // Group rows by key values.
    let mut key_index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut keys: Vec<Vec<Value>> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for rix in 0..t.num_rows() {
        let row = t.row(rix)?;
        let key: Vec<Value> =
            group_exprs.iter().map(|e| e.eval(&row)).collect::<Result<_>>()?;
        let g = *key_index.entry(key.clone()).or_insert_with(|| {
            keys.push(key);
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(rix);
    }
    // A global aggregate over an empty input still yields one row.
    if groups.is_empty() && group_exprs.is_empty() {
        keys.push(Vec::new());
        groups.push(Vec::new());
    }
    let out_cols = group_exprs.len() + aggs.len();
    let mut per_col: Vec<Vec<Value>> = vec![Vec::with_capacity(groups.len()); out_cols];
    let mut lineage = LineageBuilder::with_capacity(groups.len());
    for (key, rows) in keys.iter().zip(&groups) {
        for (c, kv) in key.iter().enumerate() {
            per_col[c].push(kv.clone());
        }
        for (j, agg) in aggs.iter().enumerate() {
            let value = eval_aggregate(t, rows, agg)?;
            per_col[group_exprs.len() + j].push(value);
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

fn eval_aggregate(t: &Table, rows: &[usize], agg: &AggExpr) -> Result<Value> {
    let Some(arg) = &agg.arg else {
        return Ok(Value::Int(rows.len() as i64));
    };
    let mut vals = Vec::with_capacity(rows.len());
    for &rix in rows {
        let row = t.row(rix)?;
        vals.push(arg.eval(&row)?);
    }
    agg_over_values(agg.kind, &vals)
}

/// Apply an aggregate over already-evaluated argument values (nulls skipped).
pub(crate) fn agg_over_values(kind: AggKind, vals: &[Value]) -> Result<Value> {
    match kind {
        AggKind::Count => Ok(Value::Int(vals.iter().filter(|v| !v.is_null()).count() as i64)),
        AggKind::CountDistinct => {
            let distinct: std::collections::HashSet<&Value> =
                vals.iter().filter(|v| !v.is_null()).collect();
            Ok(Value::Int(distinct.len() as i64))
        }
        AggKind::Min | AggKind::Max => {
            let mut best: Option<&Value> = None;
            for v in vals.iter().filter(|v| !v.is_null()) {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let newer = match kind {
                            AggKind::Min => v.total_cmp(b) == std::cmp::Ordering::Less,
                            _ => v.total_cmp(b) == std::cmp::Ordering::Greater,
                        };
                        if newer {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.cloned().unwrap_or(Value::Null))
        }
        AggKind::Sum | AggKind::Avg | AggKind::StdDev => {
            let mut nums = Vec::with_capacity(vals.len());
            let mut all_int = true;
            for v in vals.iter().filter(|v| !v.is_null()) {
                if !matches!(v, Value::Int(_)) {
                    all_int = false;
                }
                match v.as_f64() {
                    Some(x) => nums.push(x),
                    None => {
                        return Err(SqlError::Eval(format!(
                            "{} expects numeric values, got {v:?}",
                            kind.name()
                        )))
                    }
                }
            }
            if nums.is_empty() {
                return Ok(Value::Null);
            }
            let sum: f64 = nums.iter().sum();
            Ok(match kind {
                AggKind::Sum => {
                    if all_int {
                        Value::Int(sum as i64)
                    } else {
                        Value::Float(sum)
                    }
                }
                AggKind::Avg => Value::Float(sum / nums.len() as f64),
                AggKind::StdDev => {
                    let mean = sum / nums.len() as f64;
                    let var = nums.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
                        / nums.len() as f64;
                    Value::Float(var.sqrt())
                }
                other => {
                    return Err(SqlError::Eval(format!(
                        "aggregate {} is not a numeric fold",
                        other.name()
                    )))
                }
            })
        }
    }
}

fn distinct(t: &Table, opts: ExecOptions) -> Result<Table> {
    let mut seen: HashMap<Vec<Value>, usize> = HashMap::new();
    // The rows of each distinct group, first witness first.
    let mut members: Vec<Vec<usize>> = Vec::new();
    for rix in 0..t.num_rows() {
        let row = t.row(rix)?;
        match seen.get(&row) {
            Some(&g) => members[g].push(rix),
            None => {
                seen.insert(row, members.len());
                members.push(vec![rix]);
            }
        }
    }
    let mut lineage = LineageBuilder::with_capacity(members.len());
    for rows in &members {
        if opts.track_lineage {
            for &rix in rows {
                lineage.extend_row(t.lineage(rix)?);
            }
        }
        lineage.finish_set_row();
    }
    let first_rows: Vec<usize> = members.iter().map(|rows| rows[0]).collect();
    let taken = t.take(&first_rows)?;
    Table::with_lineage(taken.schema().clone(), taken.columns().to_vec(), lineage.build())
        .map_err(Into::into)
}

pub(crate) fn sort(t: &Table, keys: &[SortSpec]) -> Result<Table> {
    let kernel_keys: Vec<SortKey> = keys
        .iter()
        .map(|k| SortKey {
            column: k.column,
            order: if k.descending { SortOrder::Desc } else { SortOrder::Asc },
        })
        .collect();
    let idx = sort_indices(t, &kernel_keys)?;
    t.take(&idx).map_err(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize;
    use crate::planner::plan_select;
    use cda_dataframe::{Field, RowId};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let emp = Table::from_columns(
            Schema::new(vec![
                Field::new("canton", DataType::Str),
                Field::new("sector", DataType::Str),
                Field::new("jobs", DataType::Int),
            ]),
            vec![
                Column::from_strs(&["ZH", "ZH", "GE", "GE", "VD"]),
                Column::from_strs(&["it", "finance", "it", "gov", "it"]),
                Column::from_ints(&[100, 200, 50, 80, 30]),
            ],
        )
        .unwrap();
        c.register("emp", emp).unwrap();
        let regions = Table::from_columns(
            Schema::new(vec![
                Field::new("canton", DataType::Str),
                Field::new("region", DataType::Str),
            ]),
            vec![Column::from_strs(&["ZH", "GE"]), Column::from_strs(&["east", "west"])],
        )
        .unwrap();
        c.register("regions", regions).unwrap();
        c
    }

    fn rows(result: &QueryResult) -> Vec<Vec<Value>> {
        (0..result.table.num_rows()).map(|r| result.table.row(r).unwrap()).collect()
    }

    #[test]
    fn select_star() {
        let r = execute(&catalog(), "SELECT * FROM emp").unwrap();
        assert_eq!(r.table.num_rows(), 5);
        assert_eq!(r.table.num_columns(), 3);
        assert_eq!(r.stats.rows_scanned, 5);
    }

    #[test]
    fn filter_and_projection() {
        let r = execute(&catalog(), "SELECT canton, jobs FROM emp WHERE jobs > 60").unwrap();
        assert_eq!(
            rows(&r),
            vec![
                vec![Value::from("ZH"), Value::Int(100)],
                vec![Value::from("ZH"), Value::Int(200)],
                vec![Value::from("GE"), Value::Int(80)],
            ]
        );
    }

    #[test]
    fn filter_lineage_points_to_base_rows() {
        let c = catalog();
        let r = execute(&c, "SELECT canton FROM emp WHERE jobs = 80").unwrap();
        assert_eq!(r.table.num_rows(), 1);
        let lin = r.table.lineage(0).unwrap();
        let tag = c.get("emp").unwrap().tag;
        assert_eq!(lin, &[RowId::new(tag, 3)]);
    }

    #[test]
    fn expression_projection() {
        let r = execute(&catalog(), "SELECT jobs * 2 AS d, jobs / 8 FROM emp WHERE canton = 'VD'")
            .unwrap();
        assert_eq!(rows(&r), vec![vec![Value::Int(60), Value::Float(3.75)]]);
        assert_eq!(r.table.schema().field_at(0).unwrap().name(), "d");
    }

    #[test]
    fn group_by_with_aggregates() {
        let r = execute(
            &catalog(),
            "SELECT canton, COUNT(*) AS n, SUM(jobs) AS total, AVG(jobs) AS mean \
             FROM emp GROUP BY canton ORDER BY total DESC",
        )
        .unwrap();
        assert_eq!(
            rows(&r),
            vec![
                vec![Value::from("ZH"), Value::Int(2), Value::Int(300), Value::Float(150.0)],
                vec![Value::from("GE"), Value::Int(2), Value::Int(130), Value::Float(65.0)],
                vec![Value::from("VD"), Value::Int(1), Value::Int(30), Value::Float(30.0)],
            ]
        );
    }

    #[test]
    fn aggregate_lineage_unions_group_rows() {
        let c = catalog();
        let r = execute(&c, "SELECT canton, SUM(jobs) FROM emp GROUP BY canton").unwrap();
        let tag = c.get("emp").unwrap().tag;
        // Find the ZH row
        let zh = (0..r.table.num_rows())
            .find(|&i| r.table.value(i, 0).unwrap() == Value::from("ZH"))
            .unwrap();
        assert_eq!(r.table.lineage(zh).unwrap(), &[RowId::new(tag, 0), RowId::new(tag, 1)]);
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let r = execute(&catalog(), "SELECT COUNT(*), SUM(jobs), MIN(jobs), MAX(jobs) FROM emp")
            .unwrap();
        assert_eq!(
            rows(&r),
            vec![vec![Value::Int(5), Value::Int(460), Value::Int(30), Value::Int(200)]]
        );
    }

    #[test]
    fn global_aggregate_on_empty_input_yields_one_row() {
        let r = execute(&catalog(), "SELECT COUNT(*), SUM(jobs) FROM emp WHERE jobs > 999").unwrap();
        assert_eq!(rows(&r), vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn having_filters_groups() {
        let r = execute(
            &catalog(),
            "SELECT canton FROM emp GROUP BY canton HAVING SUM(jobs) > 100 ORDER BY canton",
        )
        .unwrap();
        assert_eq!(rows(&r), vec![vec![Value::from("GE")], vec![Value::from("ZH")]]);
    }

    #[test]
    fn inner_join() {
        let r = execute(
            &catalog(),
            "SELECT e.canton, r.region, e.jobs FROM emp e JOIN regions r ON e.canton = r.canton \
             WHERE e.sector = 'it' ORDER BY e.jobs DESC",
        )
        .unwrap();
        assert_eq!(
            rows(&r),
            vec![
                vec![Value::from("ZH"), Value::from("east"), Value::Int(100)],
                vec![Value::from("GE"), Value::from("west"), Value::Int(50)],
            ]
        );
    }

    #[test]
    fn join_lineage_unions_both_sides() {
        let c = catalog();
        let r = execute(
            &c,
            "SELECT e.canton FROM emp e JOIN regions r ON e.canton = r.canton WHERE e.jobs = 100",
        )
        .unwrap();
        let emp_tag = c.get("emp").unwrap().tag;
        let reg_tag = c.get("regions").unwrap().tag;
        let mut lin = r.table.lineage(0).unwrap().to_vec();
        lin.sort();
        assert_eq!(lin, vec![RowId::new(emp_tag, 0), RowId::new(reg_tag, 0)]);
    }

    #[test]
    fn left_join_pads_with_nulls() {
        let r = execute(
            &catalog(),
            "SELECT e.canton, r.region FROM emp e LEFT JOIN regions r ON e.canton = r.canton \
             WHERE e.canton = 'VD'",
        )
        .unwrap();
        assert_eq!(rows(&r), vec![vec![Value::from("VD"), Value::Null]]);
    }

    #[test]
    fn distinct_dedups_and_merges_lineage() {
        let c = catalog();
        let r = execute(&c, "SELECT DISTINCT canton FROM emp ORDER BY canton").unwrap();
        assert_eq!(
            rows(&r),
            vec![vec![Value::from("GE")], vec![Value::from("VD")], vec![Value::from("ZH")]]
        );
        let tag = c.get("emp").unwrap().tag;
        // GE appears in base rows 2 and 3
        assert_eq!(r.table.lineage(0).unwrap(), &[RowId::new(tag, 2), RowId::new(tag, 3)]);
    }

    #[test]
    fn order_limit_offset() {
        let r = execute(&catalog(), "SELECT jobs FROM emp ORDER BY jobs LIMIT 2 OFFSET 1").unwrap();
        assert_eq!(rows(&r), vec![vec![Value::Int(50)], vec![Value::Int(80)]]);
    }

    #[test]
    fn order_by_hidden_key_dropped() {
        let r = execute(&catalog(), "SELECT canton FROM emp ORDER BY jobs DESC LIMIT 2").unwrap();
        assert_eq!(r.table.num_columns(), 1);
        assert_eq!(rows(&r), vec![vec![Value::from("ZH")], vec![Value::from("ZH")]]);
    }

    #[test]
    fn like_in_between_case_pipeline() {
        let r = execute(
            &catalog(),
            "SELECT canton, CASE WHEN jobs >= 100 THEN 'big' ELSE 'small' END AS size \
             FROM emp WHERE canton LIKE '_H' OR canton IN ('VD') ORDER BY jobs",
        )
        .unwrap();
        assert_eq!(
            rows(&r),
            vec![
                vec![Value::from("VD"), Value::from("small")],
                vec![Value::from("ZH"), Value::from("big")],
                vec![Value::from("ZH"), Value::from("big")],
            ]
        );
    }

    #[test]
    fn count_distinct_aggregate() {
        let r = execute(
            &catalog(),
            "SELECT COUNT(DISTINCT canton) AS c, COUNT(DISTINCT sector) AS s, COUNT(canton) AS n              FROM emp",
        )
        .unwrap();
        assert_eq!(
            rows(&r),
            vec![vec![Value::Int(3), Value::Int(3), Value::Int(5)]]
        );
        // grouped
        let r = execute(
            &catalog(),
            "SELECT canton, COUNT(DISTINCT sector) AS s FROM emp GROUP BY canton ORDER BY canton",
        )
        .unwrap();
        assert_eq!(
            rows(&r),
            vec![
                vec![Value::from("GE"), Value::Int(2)],
                vec![Value::from("VD"), Value::Int(1)],
                vec![Value::from("ZH"), Value::Int(2)],
            ]
        );
        // DISTINCT only valid for COUNT
        assert!(execute(&catalog(), "SELECT SUM(DISTINCT jobs) FROM emp").is_err());
    }

    #[test]
    fn stddev_aggregate() {
        let r = execute(&catalog(), "SELECT STDDEV(jobs) FROM emp WHERE canton = 'ZH'").unwrap();
        let v = r.table.value(0, 0).unwrap().as_f64().unwrap();
        assert!((v - 50.0).abs() < 1e-9);
    }

    #[test]
    fn optimizer_options_do_not_change_results() {
        let c = catalog();
        let sql = "SELECT e.canton, SUM(e.jobs) AS s FROM emp e JOIN regions r \
                   ON e.canton = r.canton WHERE e.jobs > 40 AND r.region = 'east' \
                   GROUP BY e.canton ORDER BY s DESC";
        let full = execute_with_options(&c, sql, ExecOptions::default()).unwrap();
        let naive = execute_with_options(
            &c,
            sql,
            ExecOptions { rules: OptimizerRules::none(), track_lineage: true, vectorized: None },
        )
        .unwrap();
        assert_eq!(rows(&full), rows(&naive));
        // pushdown must reduce join pairs
        assert!(full.stats.join_pairs < naive.stats.join_pairs);
    }

    #[test]
    fn lineage_tracking_can_be_disabled() {
        let c = catalog();
        let r = execute_with_options(
            &c,
            "SELECT canton, SUM(jobs) FROM emp GROUP BY canton",
            ExecOptions { rules: OptimizerRules::all(), track_lineage: false, vectorized: None },
        )
        .unwrap();
        assert!(r.table.lineage(0).unwrap().is_empty());
    }

    #[test]
    fn lineage_store_shape_follows_the_operator_on_both_engines() {
        let c = catalog();
        for options in [ExecOptions::default(), ExecOptions::vectorized()] {
            let one_per_row = |sql: &str| {
                execute_with_options(&c, sql, options).unwrap().table.lineages().is_one_per_row()
            };
            // Scans, filters, sorts, limits and projections cite one row each.
            assert!(one_per_row("SELECT canton, jobs * 2 FROM emp WHERE jobs > 60 ORDER BY jobs"));
            assert!(one_per_row("SELECT canton FROM emp LIMIT 2 OFFSET 1"));
            // Multi-row groups and join pairs are stored as CSR.
            assert!(!one_per_row("SELECT canton, SUM(jobs) FROM emp GROUP BY canton"));
            assert!(!one_per_row("SELECT DISTINCT canton FROM emp"));
            assert!(!one_per_row(
                "SELECT e.canton, r.region FROM emp e JOIN regions r ON e.canton = r.canton"
            ));
        }
    }

    #[test]
    fn division_by_zero_surfaces_as_eval_error() {
        let e = execute(&catalog(), "SELECT jobs / 0 FROM emp");
        assert!(matches!(e, Err(SqlError::Eval(_))));
    }

    #[test]
    fn unknown_table_is_binding_error() {
        assert!(matches!(execute(&catalog(), "SELECT x FROM nope"), Err(SqlError::Binding(_))));
    }

    #[test]
    fn agg_over_values_edge_cases() {
        assert_eq!(agg_over_values(AggKind::Sum, &[]).unwrap(), Value::Null);
        assert_eq!(agg_over_values(AggKind::Count, &[Value::Null]).unwrap(), Value::Int(0));
        assert_eq!(
            agg_over_values(AggKind::Sum, &[Value::Int(1), Value::Float(0.5)]).unwrap(),
            Value::Float(1.5)
        );
        assert!(agg_over_values(AggKind::Avg, &[Value::from("x")]).is_err());
    }

    #[test]
    fn case_mixed_types_widens_column() {
        let r = execute(
            &catalog(),
            "SELECT CASE WHEN jobs > 90 THEN jobs ELSE 0.5 END AS v FROM emp ORDER BY 1",
        )
        .unwrap();
        // Planner guessed INT (first branch), executor widened to FLOAT.
        assert_eq!(r.table.schema().field_at(0).unwrap().data_type(), DataType::Float);
    }

    #[test]
    fn explain_plan_is_attached() {
        let r = execute(&catalog(), "SELECT canton FROM emp WHERE jobs > 60").unwrap();
        assert!(r.plan.explain().contains("Scan emp"));
    }

    /// A hand-built monitor for `SELECT jobs FROM emp WHERE jobs > 60`
    /// (optimized shape: Filter over a pruned Scan), with the given range on
    /// the filter's output column.
    fn monitor_for_filtered_jobs(lo: f64, hi: f64) -> DomainTree {
        use cda_dataframe::{ColDomain, Interval, NodeDomain, Nullness};
        let jobs = ColDomain {
            dtype: Some(DataType::Int),
            nullness: Nullness::NeverNull,
            range: Interval::new(lo, hi),
            strs: cda_dataframe::StrDomain::top(),
            values: None,
        };
        let scan = NodeDomain {
            cols: vec![ColDomain { range: Interval::new(30.0, 200.0), ..jobs.clone() }],
            rows_lo: 0,
            rows_hi: u64::MAX,
        };
        DomainTree {
            node: NodeDomain { cols: vec![jobs], rows_lo: 0, rows_hi: u64::MAX },
            children: vec![DomainTree::leaf(scan)],
        }
    }

    #[test]
    fn sanitizer_accepts_outputs_inside_their_domains() {
        let c = catalog();
        let select = parse("SELECT jobs FROM emp WHERE jobs > 60").unwrap();
        let plan = optimize(plan_select(&c, &select).unwrap(), OptimizerRules::all());
        let monitor = monitor_for_filtered_jobs(61.0, 200.0);
        for opts in [ExecOptions::default(), ExecOptions::vectorized()] {
            let r = execute_plan_checked(&c, &plan, opts, Some(&monitor)).unwrap();
            assert_eq!(r.table.num_rows(), 3);
        }
    }

    #[test]
    fn sanitizer_rejects_a_tampered_domain_on_both_engines() {
        let c = catalog();
        let select = parse("SELECT jobs FROM emp WHERE jobs > 60").unwrap();
        let plan = optimize(plan_select(&c, &select).unwrap(), OptimizerRules::all());
        // Deliberately-broken transfer function: claims the filter output is
        // bounded by 150, but row ZH/200 escapes it.
        let monitor = monitor_for_filtered_jobs(61.0, 150.0);
        for opts in [ExecOptions::default(), ExecOptions::vectorized()] {
            let err = execute_plan_checked(&c, &plan, opts, Some(&monitor)).unwrap_err();
            let msg = err.to_string();
            // The plan's root is the final projection of `jobs`; the escaped
            // value (ZH/200) is caught there.
            assert!(msg.contains("absint domain violation at Project"), "{msg}");
            assert!(msg.contains("outside abstract domain"), "{msg}");
        }
    }

    #[test]
    fn sanitizer_none_is_plain_execute_plan() {
        let c = catalog();
        let select = parse("SELECT jobs FROM emp WHERE jobs > 60").unwrap();
        let plan = optimize(plan_select(&c, &select).unwrap(), OptimizerRules::all());
        let plain = execute_plan(&c, &plan, ExecOptions::default()).unwrap();
        let checked =
            execute_plan_checked(&c, &plan, ExecOptions::default(), None).unwrap();
        assert_eq!(plain.table, checked.table);
        assert_eq!(plain.stats, checked.stats);
    }
}

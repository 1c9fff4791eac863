//! DML planning and execution: INSERT / UPDATE / DELETE over catalog tables.
//!
//! A [`DmlPlan`] binds a parsed write statement against the catalog: INSERT
//! values are constant-folded and coerced to the target column types, UPDATE
//! assignments and WHERE predicates become [`BoundExpr`]s over the target
//! schema. Row matching for UPDATE/DELETE reuses the *query* engines: the
//! plan's [`DmlPlan::read_plan`] is a `Filter(Scan)` executed through either
//! the row reference interpreter or the vectorized morsel engine (per
//! [`ExecOptions`]), and matched base rows are recovered from row lineage —
//! so the write path inherits the differential certification of the read
//! path. Execution never mutates the catalog: it returns the replacement
//! table, and callers commit via [`Catalog::replace_table`] (product paths
//! through the `cda_core::mutation` effects gate; repolint R010).
//!
//! The [`WriteGuard`] is the runtime half of the effect sanitizer: the
//! analyzer's static write set is converted into a guard, and
//! [`execute_dml_checked`] fails loudly if the applied write touches any
//! `(table, column)` outside it.

use crate::ast::{Insert, Statement, Update};
use crate::catalog::Catalog;
use crate::error::SqlError;
use crate::exec::{execute_plan_checked, ExecOptions, ExecStats};
use crate::plan::{BoundExpr, Plan};
use crate::planner::bind_single;
use crate::Result;
use cda_dataframe::{DataType, Schema, Table, Value};
use std::collections::BTreeSet;

/// The bound form of one DML statement.
#[derive(Debug, Clone)]
pub enum DmlKind {
    /// Append fully-widened constant rows (schema order, pre-coerced).
    Insert {
        /// One value per column per inserted row; unspecified columns are NULL.
        rows: Vec<Vec<Value>>,
    },
    /// Overwrite columns of the rows matching `filter`.
    Update {
        /// `(column index, value expression)` assignments in source order.
        sets: Vec<(usize, BoundExpr)>,
        /// Bound WHERE predicate; `None` matches every row.
        filter: Option<BoundExpr>,
    },
    /// Remove the rows matching `filter`.
    Delete {
        /// Bound WHERE predicate; `None` matches every row.
        filter: Option<BoundExpr>,
    },
}

/// A bound, executable DML statement.
#[derive(Debug, Clone)]
pub struct DmlPlan {
    /// Target table (lowercased catalog key).
    pub table: String,
    /// Schema of the target table at binding time.
    pub schema: Schema,
    /// The bound statement body.
    pub kind: DmlKind,
}

impl DmlPlan {
    /// The read-side plan whose result rows are exactly the base rows this
    /// statement writes: `Filter(Scan)` for a filtered UPDATE/DELETE, a bare
    /// `Scan` for an unfiltered one, `None` for INSERT (which reads nothing).
    ///
    /// This plan is what the abstract interpreter analyzes (a provably-empty
    /// filter makes the write a provable no-op) and what execution runs to
    /// find matched rows.
    pub fn read_plan(&self) -> Option<Plan> {
        let filter = match &self.kind {
            DmlKind::Insert { .. } => return None,
            DmlKind::Update { filter, .. } | DmlKind::Delete { filter } => filter,
        };
        let scan = Plan::Scan { table: self.table.clone(), schema: self.schema.clone(), projection: None };
        Some(match filter {
            Some(p) => Plan::Filter { input: Box::new(scan), predicate: p.clone() },
            None => scan,
        })
    }

    /// Names of the columns this statement writes: the SET targets for
    /// UPDATE, every column for INSERT (unspecified columns receive NULL)
    /// and DELETE (whole rows disappear).
    pub fn written_columns(&self) -> Vec<String> {
        match &self.kind {
            DmlKind::Insert { .. } | DmlKind::Delete { .. } => {
                self.schema.fields().iter().map(|f| f.name().to_owned()).collect()
            }
            DmlKind::Update { sets, .. } => sets
                .iter()
                .filter_map(|(i, _)| self.schema.field_at(*i).map(|f| f.name().to_owned()))
                .collect(),
        }
    }

    /// Flat column indices read by the statement's expressions (WHERE
    /// predicate plus UPDATE SET right-hand sides).
    pub fn read_columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        match &self.kind {
            DmlKind::Insert { .. } => {}
            DmlKind::Update { sets, filter } => {
                for (_, e) in sets {
                    e.collect_columns(&mut out);
                }
                if let Some(p) = filter {
                    p.collect_columns(&mut out);
                }
            }
            DmlKind::Delete { filter } => {
                if let Some(p) = filter {
                    p.collect_columns(&mut out);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Bind a parsed statement against the catalog. SELECT statements are
/// rejected — they go through [`crate::planner::plan_select`].
pub fn plan_dml(catalog: &Catalog, stmt: &Statement) -> Result<DmlPlan> {
    match stmt {
        Statement::Select(_) => {
            Err(SqlError::Semantic("SELECT is not a DML statement; use the query path".into()))
        }
        Statement::Insert(i) => plan_insert(catalog, i),
        Statement::Update(u) => plan_update(catalog, u),
        Statement::Delete(d) => {
            let entry = catalog.get(&d.table)?;
            let schema = entry.table.schema().clone();
            let table = d.table.to_ascii_lowercase();
            let filter =
                d.filter.as_ref().map(|p| bind_single(p, &table, &schema)).transpose()?;
            Ok(DmlPlan { table, schema, kind: DmlKind::Delete { filter } })
        }
    }
}

fn plan_insert(catalog: &Catalog, insert: &Insert) -> Result<DmlPlan> {
    let entry = catalog.get(&insert.table)?;
    let schema = entry.table.schema().clone();
    let table = insert.table.to_ascii_lowercase();
    // Resolve the column list (default: all columns in schema order).
    let targets: Vec<usize> = if insert.columns.is_empty() {
        (0..schema.len()).collect()
    } else {
        let mut seen = BTreeSet::new();
        insert
            .columns
            .iter()
            .map(|c| {
                let i = schema
                    .index_of(c)
                    .ok_or_else(|| SqlError::Binding(format!("unknown column {c:?} in INSERT")))?;
                if !seen.insert(i) {
                    return Err(SqlError::Binding(format!("duplicate column {c:?} in INSERT")));
                }
                Ok(i)
            })
            .collect::<Result<_>>()?
    };
    let mut rows = Vec::with_capacity(insert.rows.len());
    for row in &insert.rows {
        if row.len() != targets.len() {
            return Err(SqlError::Binding(format!(
                "INSERT row has {} values but {} columns",
                row.len(),
                targets.len()
            )));
        }
        let mut full = vec![Value::Null; schema.len()];
        for (expr, &i) in row.iter().zip(&targets) {
            let bound = bind_single(expr, &table, &schema)?;
            if !bound.is_constant() {
                return Err(SqlError::Semantic(
                    "INSERT values must be constant expressions".into(),
                ));
            }
            let v = bound.eval(&[])?;
            let field = self_field(&schema, i)?;
            full[i] = coerce_value(field.data_type(), v, &table, field.name())?;
        }
        rows.push(full);
    }
    Ok(DmlPlan { table, schema, kind: DmlKind::Insert { rows } })
}

fn plan_update(catalog: &Catalog, update: &Update) -> Result<DmlPlan> {
    let entry = catalog.get(&update.table)?;
    let schema = entry.table.schema().clone();
    let table = update.table.to_ascii_lowercase();
    let mut seen = BTreeSet::new();
    let mut sets = Vec::with_capacity(update.sets.len());
    for (col, expr) in &update.sets {
        let i = schema
            .index_of(col)
            .ok_or_else(|| SqlError::Binding(format!("unknown column {col:?} in UPDATE SET")))?;
        if !seen.insert(i) {
            return Err(SqlError::Binding(format!("duplicate column {col:?} in UPDATE SET")));
        }
        sets.push((i, bind_single(expr, &table, &schema)?));
    }
    let filter =
        update.filter.as_ref().map(|p| bind_single(p, &table, &schema)).transpose()?;
    Ok(DmlPlan { table, schema, kind: DmlKind::Update { sets, filter } })
}

fn self_field(schema: &Schema, i: usize) -> Result<&cda_dataframe::Field> {
    schema
        .field_at(i)
        .ok_or_else(|| SqlError::Binding(format!("column index {i} out of range")))
}

/// Coerce a value to a target column type: NULL is universal, INT widens to
/// FLOAT/TIMESTAMP, FLOAT narrows to INT only when lossless. Anything else
/// is a runtime type error (the static gate flags it as A020/A023 first).
fn coerce_value(target: DataType, v: Value, table: &str, column: &str) -> Result<Value> {
    let err = |v: &Value| {
        SqlError::Eval(format!(
            "cannot write {} value {v} into column {table}.{column} of type {target}",
            v.data_type().map(|t| t.to_string()).unwrap_or_else(|| "NULL".into()),
        ))
    };
    Ok(match (target, v) {
        (_, Value::Null) => Value::Null,
        (DataType::Int, Value::Int(x)) => Value::Int(x),
        (DataType::Float, Value::Float(x)) => Value::Float(x),
        (DataType::Float, Value::Int(x)) => Value::Float(x as f64),
        (DataType::Str, Value::Str(x)) => Value::Str(x),
        (DataType::Bool, Value::Bool(x)) => Value::Bool(x),
        (DataType::Timestamp, Value::Timestamp(x)) | (DataType::Timestamp, Value::Int(x)) => {
            Value::Timestamp(x)
        }
        (DataType::Int, Value::Float(x)) => {
            if x.fract() == 0.0 && x >= i64::MIN as f64 && x <= i64::MAX as f64 {
                Value::Int(x as i64)
            } else {
                return Err(err(&Value::Float(x)));
            }
        }
        (_, other) => return Err(err(&other)),
    })
}

/// The runtime half of the effect sanitizer: the static write set a DML
/// execution must stay inside. Built from the analyzer's `EffectSet`.
#[derive(Debug, Clone)]
pub struct WriteGuard {
    /// The only table the statement may write.
    pub table: String,
    /// The only columns of that table the statement may write (lowercased).
    pub columns: BTreeSet<String>,
}

impl WriteGuard {
    /// Guard permitting writes to `columns` of `table`.
    pub fn new(table: impl Into<String>, columns: impl IntoIterator<Item = String>) -> Self {
        Self {
            table: table.into().to_ascii_lowercase(),
            columns: columns.into_iter().map(|c| c.to_ascii_lowercase()).collect(),
        }
    }
}

/// The outcome of one DML execution. The catalog is *not* mutated: callers
/// commit by swapping `new_table` in via [`Catalog::replace_table`].
#[derive(Debug, Clone)]
pub struct DmlResult {
    /// Target table (lowercased catalog key).
    pub table: String,
    /// The replacement table after the write.
    pub new_table: Table,
    /// Rows inserted, updated, or deleted.
    pub affected: u64,
    /// Base-row indices that were updated/deleted (empty for INSERT),
    /// recovered from row lineage through the configured engine.
    pub matched: Vec<usize>,
    /// Columns actually written at apply time — the runtime touched set the
    /// effect sanitizer compares against the static write set.
    pub touched: Vec<String>,
    /// Statistics of the read-side matching execution.
    pub stats: ExecStats,
}

/// Execute a bound DML statement without the effect sanitizer.
pub fn execute_dml(catalog: &Catalog, plan: &DmlPlan, options: ExecOptions) -> Result<DmlResult> {
    execute_dml_checked(catalog, plan, options, None)
}

/// Execute a bound DML statement, optionally under a [`WriteGuard`].
///
/// Row matching for UPDATE/DELETE runs [`DmlPlan::read_plan`] through the
/// engine selected by `options` (row reference or vectorized) and recovers
/// matched base rows from lineage; the apply step is shared pure code. When
/// `guard` is `Some`, every `(table, column)` the apply step writes is
/// checked against it and a violation aborts with [`SqlError::Eval`] before
/// any result is returned.
pub fn execute_dml_checked(
    catalog: &Catalog,
    plan: &DmlPlan,
    options: ExecOptions,
    guard: Option<&WriteGuard>,
) -> Result<DmlResult> {
    let entry = catalog.get(&plan.table)?;
    let base = &entry.table;
    if base.schema() != &plan.schema {
        return Err(SqlError::Binding(format!(
            "table {:?} changed schema since the statement was planned",
            plan.table
        )));
    }
    let mut stats = ExecStats::default();
    let matched = match plan.read_plan() {
        None => Vec::new(),
        Some(read) => {
            // Lineage must be on: matched rows are recovered from RowIds.
            let opts = ExecOptions { track_lineage: true, ..options };
            let result = execute_plan_checked(catalog, &read, opts, None)?;
            stats = result.stats;
            let mut rows = Vec::with_capacity(result.table.num_rows());
            for r in 0..result.table.num_rows() {
                let lineage = result.table.lineage(r)?;
                match lineage {
                    [id] if id.table == entry.tag && (id.row as usize) < base.num_rows() => {
                        rows.push(id.row as usize);
                    }
                    _ => {
                        return Err(SqlError::Eval(
                            "DML row matching lost base-row identity".into(),
                        ))
                    }
                }
            }
            rows.sort_unstable();
            rows.dedup();
            rows
        }
    };
    let (new_table, affected, touched) = match &plan.kind {
        DmlKind::Insert { rows } => {
            let all: Vec<String> =
                plan.schema.fields().iter().map(|f| f.name().to_owned()).collect();
            (base.append_rows(rows)?, rows.len() as u64, all)
        }
        DmlKind::Update { sets, .. } => {
            let cols: Vec<usize> = sets.iter().map(|(i, _)| *i).collect();
            let mut values = Vec::with_capacity(matched.len());
            for &r in &matched {
                let row = base.row(r)?;
                let mut out = Vec::with_capacity(sets.len());
                for (i, expr) in sets {
                    let field = self_field(&plan.schema, *i)?;
                    let v = expr.eval(&row)?;
                    out.push(coerce_value(field.data_type(), v, &plan.table, field.name())?);
                }
                values.push(out);
            }
            let touched: Vec<String> = cols
                .iter()
                .filter_map(|&i| plan.schema.field_at(i).map(|f| f.name().to_owned()))
                .collect();
            (base.update_cells(&matched, &cols, &values)?, matched.len() as u64, touched)
        }
        DmlKind::Delete { .. } => {
            let mut keep = vec![true; base.num_rows()];
            for &r in &matched {
                keep[r] = false;
            }
            let all: Vec<String> =
                plan.schema.fields().iter().map(|f| f.name().to_owned()).collect();
            (base.filter(&keep)?, matched.len() as u64, all)
        }
    };
    if let Some(g) = guard {
        if !g.table.eq_ignore_ascii_case(&plan.table) {
            return Err(SqlError::Eval(format!(
                "effect sanitizer: write to table {:?} escapes the static write set (expected {:?})",
                plan.table, g.table
            )));
        }
        if affected > 0 {
            for col in &touched {
                if !g.columns.contains(&col.to_ascii_lowercase()) {
                    return Err(SqlError::Eval(format!(
                        "effect sanitizer: write to {}.{col} escapes the static write set",
                        plan.table
                    )));
                }
            }
        }
    }
    Ok(DmlResult { table: plan.table.clone(), new_table, affected, matched, touched, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use cda_dataframe::{Column, Field};

    fn catalog() -> Catalog {
        let emp = Table::from_columns(
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("name", DataType::Str),
                Field::new("salary", DataType::Float),
            ]),
            vec![
                Column::from_ints(&[1, 2, 3]),
                Column::from_strs(&["ada", "bob", "cyd"]),
                Column::from_floats(&[100.0, 200.0, 300.0]),
            ],
        )
        .unwrap();
        let dept = Table::from_columns(
            Schema::new(vec![Field::new("d", DataType::Int)]),
            vec![Column::from_ints(&[7])],
        )
        .unwrap();
        let mut c = Catalog::new();
        c.register("emp", emp).unwrap();
        c.register("dept", dept).unwrap();
        c
    }

    fn run(c: &Catalog, sql: &str, options: ExecOptions) -> DmlResult {
        let stmt = parse_statement(sql).unwrap();
        let plan = plan_dml(c, &stmt).unwrap();
        execute_dml(c, &plan, options).unwrap()
    }

    #[test]
    fn insert_appends_coerced_rows() {
        let c = catalog();
        let r = run(&c, "INSERT INTO emp (id, name, salary) VALUES (4, 'dee', 50), (5, 'eli', 60.5)", ExecOptions::default());
        assert_eq!(r.affected, 2);
        assert_eq!(r.new_table.num_rows(), 5);
        assert_eq!(r.new_table.value(3, 2).unwrap(), Value::Float(50.0));
        assert_eq!(r.new_table.value(4, 1).unwrap(), Value::Str("eli".into()));
    }

    #[test]
    fn insert_defaults_missing_columns_to_null() {
        let c = catalog();
        let r = run(&c, "INSERT INTO emp (id) VALUES (9)", ExecOptions::default());
        assert_eq!(r.new_table.value(3, 0).unwrap(), Value::Int(9));
        assert_eq!(r.new_table.value(3, 1).unwrap(), Value::Null);
        assert_eq!(r.new_table.value(3, 2).unwrap(), Value::Null);
    }

    #[test]
    fn update_rewrites_matching_rows_only() {
        let c = catalog();
        let r = run(&c, "UPDATE emp SET salary = salary * 2 WHERE id >= 2", ExecOptions::default());
        assert_eq!(r.affected, 2);
        assert_eq!(r.matched, vec![1, 2]);
        assert_eq!(r.new_table.value(0, 2).unwrap(), Value::Float(100.0));
        assert_eq!(r.new_table.value(1, 2).unwrap(), Value::Float(400.0));
        assert_eq!(r.new_table.value(2, 2).unwrap(), Value::Float(600.0));
        assert_eq!(r.touched, vec!["salary".to_owned()]);
    }

    #[test]
    fn delete_removes_matching_rows() {
        let c = catalog();
        let r = run(&c, "DELETE FROM emp WHERE name = 'bob'", ExecOptions::default());
        assert_eq!(r.affected, 1);
        assert_eq!(r.new_table.num_rows(), 2);
        assert_eq!(r.new_table.value(1, 1).unwrap(), Value::Str("cyd".into()));
    }

    #[test]
    fn row_matching_is_engine_equivalent() {
        let c = catalog();
        for sql in [
            "UPDATE emp SET salary = 0 WHERE id > 1 AND name LIKE '%b%'",
            "DELETE FROM emp WHERE salary >= 200",
            "UPDATE emp SET name = 'x'",
        ] {
            let row = run(&c, sql, ExecOptions::default());
            let vec = run(&c, sql, ExecOptions::vectorized());
            assert_eq!(row.matched, vec.matched, "{sql}");
            assert_eq!(row.affected, vec.affected, "{sql}");
            assert_eq!(
                row.new_table.render(64),
                vec.new_table.render(64),
                "{sql}"
            );
        }
    }

    #[test]
    fn guard_permits_declared_writes_and_rejects_escapes() {
        let c = catalog();
        let stmt = parse_statement("UPDATE emp SET salary = 1 WHERE id = 1").unwrap();
        let plan = plan_dml(&c, &stmt).unwrap();
        let ok = WriteGuard::new("emp", ["salary".to_owned()]);
        assert!(execute_dml_checked(&c, &plan, ExecOptions::default(), Some(&ok)).is_ok());
        let narrow = WriteGuard::new("emp", ["name".to_owned()]);
        let err = execute_dml_checked(&c, &plan, ExecOptions::default(), Some(&narrow))
            .unwrap_err()
            .to_string();
        assert!(err.contains("effect sanitizer"), "{err}");
        let wrong_table = WriteGuard::new("dept", ["salary".to_owned()]);
        assert!(execute_dml_checked(&c, &plan, ExecOptions::default(), Some(&wrong_table)).is_err());
    }

    #[test]
    fn insert_rejects_arity_and_type_mismatches() {
        let c = catalog();
        let stmt = parse_statement("INSERT INTO emp (id, name) VALUES (1)").unwrap();
        assert!(plan_dml(&c, &stmt).is_err());
        let stmt = parse_statement("INSERT INTO emp (id) VALUES ('zed')").unwrap();
        assert!(plan_dml(&c, &stmt).is_err());
        let stmt = parse_statement("INSERT INTO emp (id) VALUES (1.5)").unwrap();
        assert!(plan_dml(&c, &stmt).is_err(), "lossy float→int must be rejected");
        let stmt = parse_statement("INSERT INTO emp (id) VALUES (2.0)").unwrap();
        assert!(plan_dml(&c, &stmt).is_ok(), "lossless float→int is accepted");
    }

    #[test]
    fn update_eval_errors_abort_without_commit() {
        let c = catalog();
        let stmt = parse_statement("UPDATE emp SET salary = salary / 0 WHERE id = 1").unwrap();
        let plan = plan_dml(&c, &stmt).unwrap();
        assert!(execute_dml(&c, &plan, ExecOptions::default()).is_err());
        // The catalog still holds the original data.
        assert_eq!(c.get("emp").unwrap().table.value(0, 2).unwrap(), Value::Float(100.0));
    }

    #[test]
    fn statement_display_round_trips() {
        for sql in [
            "INSERT INTO emp (id, name) VALUES (1, 'a'), (2, 'b')",
            "UPDATE emp SET salary = (salary + 1) WHERE (id = 2)",
            "DELETE FROM emp WHERE (name = 'bob')",
        ] {
            let stmt = parse_statement(sql).unwrap();
            let printed = stmt.to_string();
            assert_eq!(parse_statement(&printed).unwrap(), stmt, "{sql} vs {printed}");
        }
    }
}

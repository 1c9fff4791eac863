//! Static effect analysis: per-statement read/write sets over bound plans.
//!
//! An [`EffectSet`] records, at `(table, column)` granularity, what a
//! statement *reads* and what it *writes*, plus whether it changes the
//! catalog's shape (`schema_effects`). Read sets come from a plan traversal
//! that mirrors planner semantics — every `Scan` contributes its table and
//! the columns its (pruned) projection keeps. Write sets come from the bound
//! [`DmlPlan`]: the SET targets for UPDATE, every column for INSERT/DELETE.
//! The PR 7 abstract interpreter sharpens the result: a provably-empty WHERE
//! makes an UPDATE/DELETE a provable no-op, and interval analysis bounds the
//! affected-row count for the A013 governor.
//!
//! Four consumers:
//!
//! 1. the DML soundness gate (`sqlcheck` A019–A023) runs next to it;
//! 2. **precise cache invalidation** — on commit of a write, only cached
//!    answers whose read set intersects the write set are dropped
//!    ([`EffectSet::invalidates`]); schema changes still purge by epoch;
//! 3. server write admission — sessions whose queued writes have overlapping
//!    effect sets are serialized into one drain task, disjoint writers run
//!    in parallel ([`EffectSet::conflicts_with`]);
//! 4. the runtime effect sanitizer — [`EffectSet::write_guard`] converts the
//!    static write set into a `cda_sql::WriteGuard` that execution must stay
//!    inside (`CdaConfig::effect_check`).

use crate::cardest::Statistics;
use cda_sql::ast::Statement;
use cda_sql::dml::{DmlKind, DmlPlan};
use cda_sql::plan::Plan;
use cda_sql::{Catalog, StatementPlan, WriteGuard};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// `table → columns`, all lowercased; the carrier of read and write sets.
pub type ColumnSet = BTreeMap<String, BTreeSet<String>>;

/// The statically-derived effects of one statement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EffectSet {
    /// `(table, columns)` the statement reads.
    pub reads: ColumnSet,
    /// `(table, columns)` the statement writes. Empty for SELECT.
    pub writes: ColumnSet,
    /// True when the statement changes catalog shape (registration, schema
    /// change). DML never sets this — it rewrites data, not shape.
    pub schema_effects: bool,
    /// Sound `[lo, hi]` bound on the number of written rows, sharpened by
    /// interval analysis over the statement's read side when available.
    pub affected_rows: Option<(u64, u64)>,
    /// The write is a provable no-op: its WHERE clause is provably empty.
    pub provable_noop: bool,
}

/// Do two column sets share any `(table, column)` pair?
fn intersects(a: &ColumnSet, b: &ColumnSet) -> bool {
    a.iter().any(|(t, cols)| {
        b.get(t).is_some_and(|other| cols.intersection(other).next().is_some())
    })
}

impl EffectSet {
    /// A read-only effect set (what a SELECT has).
    pub fn read_only(reads: ColumnSet) -> Self {
        Self { reads, ..Self::default() }
    }

    /// The effect set of a catalog-shape change: invalidates everything.
    pub fn schema_change() -> Self {
        Self { schema_effects: true, ..Self::default() }
    }

    /// True when the statement writes anything (data or schema).
    pub fn is_write(&self) -> bool {
        self.schema_effects || !self.writes.is_empty()
    }

    /// Must a cached answer with read set `reads` be dropped when this
    /// effect commits? Schema changes invalidate everything; data writes
    /// invalidate exactly the readers they intersect. A provable no-op
    /// still invalidates conservatively — commit decides, not the proof.
    pub fn invalidates(&self, reads: &ColumnSet) -> bool {
        self.schema_effects || intersects(&self.writes, reads)
    }

    /// Do two statements conflict (one's writes touch the other's reads or
    /// writes)? Used by the server to serialize conflicting writers while
    /// disjoint ones drain in parallel.
    pub fn conflicts_with(&self, other: &EffectSet) -> bool {
        self.schema_effects
            || other.schema_effects
            || intersects(&self.writes, &other.writes)
            || intersects(&self.writes, &other.reads)
            || intersects(&self.reads, &other.writes)
    }

    /// Fold another statement's effects into this one (for grouping a
    /// session's queued writes).
    pub fn union(&mut self, other: &EffectSet) {
        for (t, cols) in &other.reads {
            self.reads.entry(t.clone()).or_default().extend(cols.iter().cloned());
        }
        for (t, cols) in &other.writes {
            self.writes.entry(t.clone()).or_default().extend(cols.iter().cloned());
        }
        self.schema_effects |= other.schema_effects;
        self.provable_noop &= other.provable_noop;
        self.affected_rows = match (self.affected_rows, other.affected_rows) {
            (Some((a, b)), Some((c, d))) => Some((a.saturating_add(c), b.saturating_add(d))),
            (x, None) | (None, x) => x,
        };
    }

    /// The runtime half of the effect sanitizer: a [`WriteGuard`] for the
    /// single written table, or `None` when the statement writes nothing
    /// (or, defensively, more than one table — DML never does).
    pub fn write_guard(&self) -> Option<WriteGuard> {
        if self.writes.len() != 1 {
            return None;
        }
        self.writes
            .iter()
            .next()
            .map(|(t, cols)| WriteGuard::new(t.clone(), cols.iter().cloned()))
    }
}

impl fmt::Display for EffectSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_set = |s: &ColumnSet| {
            s.iter()
                .map(|(t, cols)| {
                    format!("{t}({})", cols.iter().cloned().collect::<Vec<_>>().join(","))
                })
                .collect::<Vec<_>>()
                .join(" ")
        };
        write!(f, "reads[{}] writes[{}]", fmt_set(&self.reads), fmt_set(&self.writes))?;
        if self.schema_effects {
            f.write_str(" schema")?;
        }
        if self.provable_noop {
            f.write_str(" noop")?;
        }
        Ok(())
    }
}

/// The read set of a bound plan: every `Scan`'s table with the columns its
/// projection keeps (all columns when unpruned). Traversal mirrors planner
/// semantics — no other node introduces base-table reads.
pub fn plan_reads(plan: &Plan) -> ColumnSet {
    let mut out = ColumnSet::new();
    collect_reads(plan, &mut out);
    out
}

fn collect_reads(plan: &Plan, out: &mut ColumnSet) {
    match plan {
        Plan::Scan { table, schema, projection } => {
            let cols = out.entry(table.to_ascii_lowercase()).or_default();
            match projection {
                Some(keep) => {
                    for &i in keep {
                        if let Some(f) = schema.field_at(i) {
                            cols.insert(f.name().to_ascii_lowercase());
                        }
                    }
                }
                None => {
                    for f in schema.fields() {
                        cols.insert(f.name().to_ascii_lowercase());
                    }
                }
            }
        }
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Distinct { input }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => collect_reads(input, out),
        Plan::Join { left, right, .. } => {
            collect_reads(left, out);
            collect_reads(right, out);
        }
    }
}

/// The effects of a read-only plan.
pub fn plan_effects(plan: &Plan) -> EffectSet {
    EffectSet::read_only(plan_reads(plan))
}

/// The effects of a bound DML statement, sharpened by abstract
/// interpretation over its read side when `stats` grounding is available.
pub fn dml_effects(plan: &DmlPlan, stats: Option<&Statistics>) -> EffectSet {
    let mut reads = ColumnSet::new();
    let read_cols: BTreeSet<String> = plan
        .read_columns()
        .into_iter()
        .filter_map(|i| plan.schema.field_at(i).map(|f| f.name().to_ascii_lowercase()))
        .collect();
    if !read_cols.is_empty() {
        reads.insert(plan.table.clone(), read_cols);
    }
    let mut writes = ColumnSet::new();
    writes.insert(
        plan.table.clone(),
        plan.written_columns().into_iter().map(|c| c.to_ascii_lowercase()).collect(),
    );
    let (affected_rows, provable_noop) = match (&plan.kind, plan.read_plan()) {
        (DmlKind::Insert { rows }, _) => {
            (Some((rows.len() as u64, rows.len() as u64)), rows.is_empty())
        }
        (_, Some(read)) => {
            let bounds = crate::absint::row_bounds(&read, stats);
            let empty = crate::absint::analyze(&read, stats).provably_empty.is_some();
            (Some(bounds), empty || bounds == (0, 0))
        }
        (_, None) => (None, false),
    };
    EffectSet { reads, writes, schema_effects: false, affected_rows, provable_noop }
}

/// The effects of a compiled statement. A query gets the read set of its
/// *optimized* plan (the plan that executes and is cached) and an empty
/// write set; a DML statement gets [`dml_effects`].
pub fn compiled_effects(plan: &StatementPlan, stats: Option<&Statistics>) -> EffectSet {
    match plan {
        StatementPlan::Query { optimized, .. } => plan_effects(optimized),
        StatementPlan::Write(dml) => dml_effects(dml, stats),
    }
}

/// The effects of any parsed statement against a catalog:
/// [`compiled_effects`] of its bound form. Binding errors bubble up — the
/// soundness gate reports them first.
pub fn statement_effects(
    catalog: &Catalog,
    stmt: &Statement,
    stats: Option<&Statistics>,
) -> cda_sql::Result<EffectSet> {
    let plan = cda_sql::plan_statement(catalog, stmt)?;
    Ok(compiled_effects(&plan, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cda_dataframe::{Column, DataType, Field, Schema, Table};
    use cda_sql::parser::parse_statement;

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

    fn effects(c: &Catalog, sql: &str) -> EffectSet {
        statement_effects(c, &parse_statement(sql).unwrap(), None).unwrap()
    }

    #[test]
    fn select_reads_only_projected_columns_after_pruning() {
        let c = catalog();
        let e = effects(&c, "SELECT name FROM emp WHERE id > 1");
        assert!(e.writes.is_empty() && !e.is_write());
        let cols = e.reads.get("emp").unwrap();
        assert!(cols.contains("name") && cols.contains("id"));
        assert!(!cols.contains("salary"), "pruned column must not appear in the read set");
    }

    #[test]
    fn update_reads_filter_and_rhs_writes_set_targets() {
        let c = catalog();
        let e = effects(&c, "UPDATE emp SET salary = salary * 2 WHERE id = 1");
        assert_eq!(
            e.writes.get("emp").unwrap().iter().cloned().collect::<Vec<_>>(),
            vec!["salary".to_owned()]
        );
        let reads = e.reads.get("emp").unwrap();
        assert!(reads.contains("id") && reads.contains("salary"));
        assert!(!e.schema_effects);
    }

    #[test]
    fn insert_and_delete_write_every_column() {
        let c = catalog();
        for sql in ["INSERT INTO emp (id) VALUES (9)", "DELETE FROM emp WHERE id = 1"] {
            let e = effects(&c, sql);
            assert_eq!(e.writes.get("emp").unwrap().len(), 3, "{sql}");
        }
        let ins = effects(&c, "INSERT INTO emp (id) VALUES (9)");
        assert_eq!(ins.affected_rows, Some((1, 1)));
    }

    #[test]
    fn provably_empty_where_is_a_provable_noop() {
        let c = catalog();
        let e = effects(&c, "UPDATE emp SET salary = 0 WHERE 1 = 2");
        assert!(e.provable_noop);
        assert_eq!(e.affected_rows, Some((0, 0)));
        let live = effects(&c, "UPDATE emp SET salary = 0 WHERE id = 1");
        assert!(!live.provable_noop);
    }

    #[test]
    fn invalidation_is_precise_at_table_and_column_level() {
        let c = catalog();
        let write = effects(&c, "UPDATE emp SET salary = 0");
        let reads_emp_salary = effects(&c, "SELECT salary FROM emp").reads;
        let reads_emp_name = effects(&c, "SELECT name FROM emp").reads;
        let reads_dept = effects(&c, "SELECT d FROM dept").reads;
        assert!(write.invalidates(&reads_emp_salary));
        assert!(!write.invalidates(&reads_emp_name), "column-disjoint reader survives");
        assert!(!write.invalidates(&reads_dept), "table-disjoint reader survives");
        assert!(EffectSet::schema_change().invalidates(&reads_dept));
    }

    #[test]
    fn conflict_grouping_matches_overlap() {
        let c = catalog();
        let w1 = effects(&c, "UPDATE emp SET salary = 0");
        let w2 = effects(&c, "UPDATE emp SET salary = 1 WHERE id = 2");
        let w3 = effects(&c, "DELETE FROM dept");
        assert!(w1.conflicts_with(&w2));
        assert!(!w1.conflicts_with(&w3));
        let mut grouped = w1.clone();
        grouped.union(&w3);
        assert!(grouped.conflicts_with(&w2) && grouped.conflicts_with(&w3));
    }

    #[test]
    fn write_guard_covers_exactly_the_write_set() {
        let c = catalog();
        let g = effects(&c, "UPDATE emp SET name = 'x' WHERE id = 1").write_guard().unwrap();
        assert_eq!(g.table, "emp");
        assert!(g.columns.contains("name") && !g.columns.contains("salary"));
        assert!(effects(&c, "SELECT 1 FROM emp").write_guard().is_none());
    }
}

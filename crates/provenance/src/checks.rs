//! Executable losslessness and invertibility checks.
//!
//! The paper proposes **losslessness** ("an answer explanation is indeed
//! representative of the calculations and source data used to generate it")
//! and **invertibility** ("recover individual calculations from an
//! explanation") as new, testable properties of explanations. Both are
//! implemented here as *decision procedures*, not aspirations:
//!
//! * [`check_plan_losslessness`] — replay the executed plan against a catalog
//!   restricted to **only the rows the explanation cites**; the cited rows
//!   are lossless iff the explained answer row reappears unchanged. The
//!   restricted catalog holds only the tables the plan scans, so the check
//!   costs what the citation costs, not what the world holds.
//!   [`check_losslessness`] is the SQL-text front of the same check.
//! * [`check_invertibility`] — recompute an aggregate cell from its
//!   how-provenance valuation and compare with the reported value.

use crate::semiring::HowSpan;
use crate::{ProvenanceError, Result};
use cda_dataframe::kernels::AggKind;
use cda_dataframe::{RowId, Table};
use cda_sql::plan::Plan;
use cda_sql::{Catalog, ExecOptions};
use std::collections::{BTreeSet, HashMap};

/// Outcome of a losslessness check for one answer row.
#[derive(Debug, Clone, PartialEq)]
pub struct LosslessReport {
    /// Whether the cited rows reproduce the answer row.
    pub lossless: bool,
    /// Rows cited by the explanation.
    pub cited_rows: usize,
    /// Rows in the restricted replay's result.
    pub replay_rows: usize,
}

fn replay_err(e: impl ToString) -> ProvenanceError {
    ProvenanceError::Replay(e.to_string())
}

/// Check losslessness of the explanation of result row `row` of `sql`:
/// compile the query (row engine, default rules) and run
/// [`check_plan_losslessness`] on its optimized plan.
pub fn check_losslessness(
    catalog: &Catalog,
    sql: &str,
    result: &Table,
    row: usize,
) -> Result<LosslessReport> {
    let plan = optimized_plan(catalog, sql)?;
    check_plan_losslessness(catalog, &plan, ExecOptions::default(), result, row)
}

/// The plan `sql` executes as (default optimizer rules); only a query has an
/// answer to explain.
fn optimized_plan(catalog: &Catalog, sql: &str) -> Result<Plan> {
    match cda_sql::compile(catalog, sql).map_err(replay_err)?.plan {
        cda_sql::StatementPlan::Query { optimized, .. } => Ok(optimized),
        cda_sql::StatementPlan::Write(_) => Err(replay_err("a write has no answer to explain")),
    }
}

/// Check losslessness of the explanation of row `row` of `result`, the
/// table `plan` (optimized, compiled against `catalog`) produced: restrict
/// every base table the plan scans to the rows in that row's lineage,
/// re-execute the plan under `options`, and require the original answer row
/// to appear in the replay. `Plan::Scan` binds by table name, so the plan
/// compiled against the full catalog runs unchanged against the restricted
/// one.
pub fn check_plan_losslessness(
    catalog: &Catalog,
    plan: &Plan,
    options: ExecOptions,
    result: &Table,
    row: usize,
) -> Result<LosslessReport> {
    if row >= result.num_rows() {
        return Err(ProvenanceError::RowOutOfRange { row, len: result.num_rows() });
    }
    let lineage = result.lineage(row).map_err(replay_err)?;
    let restricted = restrict_catalog(catalog, plan, lineage)?;
    let replay = cda_sql::execute_plan(&restricted, plan, options).map_err(replay_err)?;
    let target = result.row(row).map_err(replay_err)?;
    let mut found = false;
    for r in 0..replay.table.num_rows() {
        if replay.table.row(r).map_err(replay_err)? == target {
            found = true;
            break;
        }
    }
    Ok(LosslessReport {
        lossless: found,
        cited_rows: lineage.len(),
        replay_rows: replay.table.num_rows(),
    })
}

/// The (lower-cased) names of the base tables `plan` scans.
fn scanned_tables(plan: &Plan, out: &mut BTreeSet<String>) {
    match plan {
        Plan::Scan { table, .. } => {
            out.insert(table.to_ascii_lowercase());
        }
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Distinct { input }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => scanned_tables(input, out),
        Plan::Join { left, right, .. } => {
            scanned_tables(left, out);
            scanned_tables(right, out);
        }
    }
}

/// Build the catalog the replay runs against: exactly the tables `plan`
/// scans, each restricted to its cited rows — a scanned table the lineage
/// never cites, or cites in full, keeps its full contents (a shared handle,
/// not a copy). Tables the plan does not scan are not looked at.
fn restrict_catalog(catalog: &Catalog, plan: &Plan, lineage: &[RowId]) -> Result<Catalog> {
    let mut by_tag: HashMap<u32, Vec<usize>> = HashMap::new();
    for rid in lineage {
        by_tag.entry(rid.table).or_default().push(rid.row as usize);
    }
    let mut names = BTreeSet::new();
    scanned_tables(plan, &mut names);
    let mut out = Catalog::new();
    for name in names {
        let entry = catalog.get(&name).map_err(replay_err)?;
        let table = match by_tag.remove(&entry.tag) {
            Some(mut rows) => {
                rows.sort_unstable();
                rows.dedup();
                let every_row = rows.len() == entry.table.num_rows()
                    && rows.last().is_none_or(|&last| last + 1 == rows.len());
                if every_row {
                    entry.table.clone()
                } else {
                    entry.table.take(&rows).map_err(replay_err)?
                }
            }
            None => entry.table.clone(),
        };
        out.register(name, table).map_err(replay_err)?;
    }
    Ok(out)
}

/// Outcome of an invertibility check.
#[derive(Debug, Clone, PartialEq)]
pub struct InvertReport {
    /// Whether the provenance evaluation reproduced the reported value.
    pub invertible: bool,
    /// The value recomputed from provenance.
    pub recomputed: f64,
    /// The value the result table reports.
    pub reported: f64,
}

/// Check invertibility of an aggregate cell: rebuild the aggregate from the
/// lineage of result row `row` by looking up each cited base row's value of
/// `source_column` in `source_table`, applying `agg`, and comparing with the
/// reported cell `(row, col)` of `result`.
pub fn check_invertibility(
    catalog: &Catalog,
    result: &Table,
    row: usize,
    col: usize,
    agg: AggKind,
    source_table: &str,
    source_column: &str,
) -> Result<InvertReport> {
    if row >= result.num_rows() {
        return Err(ProvenanceError::RowOutOfRange { row, len: result.num_rows() });
    }
    let entry = catalog.get(source_table).map_err(replay_err)?;
    let col_idx = entry
        .table
        .schema()
        .index_of(source_column)
        .ok_or_else(|| ProvenanceError::Replay(format!("unknown column {source_column:?}")))?;
    let (lineage, span) = source_span(result, row, entry.tag)?;
    let values: std::collections::HashMap<RowId, f64> = lineage
        .iter()
        .map(|rid| {
            let v = entry
                .table
                .value(rid.row as usize, col_idx)
                .ok()
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0);
            (*rid, v)
        })
        .collect();
    let recomputed = match agg {
        AggKind::Sum => span.evaluate(&|rid| values.get(&rid).copied().unwrap_or(0.0)),
        AggKind::Count => span.count() as f64,
        AggKind::CountDistinct => {
            let distinct: std::collections::HashSet<u64> =
                values.values().map(|v| v.to_bits()).collect();
            distinct.len() as f64
        }
        AggKind::Avg => {
            let sum = span.evaluate(&|rid| values.get(&rid).copied().unwrap_or(0.0));
            if lineage.is_empty() {
                0.0
            } else {
                sum / lineage.len() as f64
            }
        }
        AggKind::Min => values.values().copied().fold(f64::INFINITY, f64::min),
        AggKind::Max => values.values().copied().fold(f64::NEG_INFINITY, f64::max),
        AggKind::StdDev => {
            let n = lineage.len() as f64;
            if n == 0.0 {
                0.0
            } else {
                let mean = values.values().sum::<f64>() / n;
                (values.values().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n).sqrt()
            }
        }
    };
    let reported = result
        .value(row, col)
        .ok()
        .and_then(|v| v.as_f64())
        .unwrap_or(f64::NAN);
    let invertible = (recomputed - reported).abs() < 1e-6 * (1.0 + reported.abs());
    Ok(InvertReport { invertible, recomputed, reported })
}

/// The witnesses of result row `row` that come from the table tagged `tag`,
/// and the how-provenance [`check_invertibility`] folds over: the whole
/// group attached as **one** lazy sum span. The canonical polynomial is
/// never materialized, so each fold is a single pass over the witnesses —
/// linear in the group size.
fn source_span(result: &Table, row: usize, tag: u32) -> Result<(Vec<RowId>, HowSpan)> {
    let lineage: Vec<RowId> = result
        .lineage(row)
        .map_err(replay_err)?
        .iter()
        .filter(|rid| rid.table == tag)
        .copied()
        .collect();
    let mut span = HowSpan::new(true);
    span.attach(&lineage);
    Ok((lineage, span))
}

/// Convenience: check every row of a grouped-aggregate result and return the
/// fraction that is lossless and invertible (the rates experiment E4 plots).
#[allow(clippy::too_many_arguments)]
pub fn verification_rates(
    catalog: &Catalog,
    sql: &str,
    result: &Table,
    agg_col: usize,
    agg: AggKind,
    source_table: &str,
    source_column: &str,
) -> Result<(f64, f64)> {
    let n = result.num_rows();
    if n == 0 {
        return Ok((1.0, 1.0));
    }
    let plan = optimized_plan(catalog, sql)?;
    let mut lossless = 0usize;
    let mut invertible = 0usize;
    for row in 0..n {
        if check_plan_losslessness(catalog, &plan, ExecOptions::default(), result, row)?.lossless {
            lossless += 1;
        }
        if check_invertibility(catalog, result, row, agg_col, agg, source_table, source_column)?
            .invertible
        {
            invertible += 1;
        }
    }
    Ok((lossless as f64 / n as f64, invertible as f64 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cda_dataframe::{Column, DataType, Field, LineageStore, Schema, Value};
    use cda_sql::execute;

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
                Column::from_strs(&["it", "fin", "it", "gov", "it"]),
                Column::from_ints(&[100, 200, 50, 80, 30]),
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
        c.register("regions", reg).unwrap();
        c
    }

    #[test]
    fn aggregate_rows_are_lossless() {
        let c = catalog();
        let sql = "SELECT canton, SUM(jobs) AS total FROM emp GROUP BY canton ORDER BY canton";
        let r = execute(&c, sql).unwrap();
        for row in 0..r.table.num_rows() {
            let report = check_losslessness(&c, sql, &r.table, row).unwrap();
            assert!(report.lossless, "row {row}: {report:?}");
            assert!(report.cited_rows >= 1);
        }
    }

    #[test]
    fn join_rows_are_lossless() {
        let c = catalog();
        let sql = "SELECT e.canton, r.region FROM emp e JOIN regions r ON e.canton = r.canton \
                   WHERE e.jobs > 60";
        let r = execute(&c, sql).unwrap();
        assert!(r.table.num_rows() > 0);
        for row in 0..r.table.num_rows() {
            assert!(check_losslessness(&c, sql, &r.table, row).unwrap().lossless);
        }
    }

    #[test]
    fn fabricated_lineage_fails_losslessness() {
        let c = catalog();
        let sql = "SELECT canton, SUM(jobs) AS total FROM emp GROUP BY canton ORDER BY canton";
        let r = execute(&c, sql).unwrap();
        // Forge a result with wrong lineage (cites only row 4, canton VD)
        let tag = c.get("emp").unwrap().tag;
        let forged = Table::with_lineage(
            r.table.schema().clone(),
            r.table.columns().to_vec(),
            LineageStore::one_per_row(vec![RowId::new(tag, 4); r.table.num_rows()]),
        )
        .unwrap();
        // the GE row cannot be reproduced from VD's row alone
        let ge_row = (0..forged.num_rows())
            .find(|&i| forged.value(i, 0).unwrap() == Value::from("GE"))
            .unwrap();
        let report = check_losslessness(&c, sql, &forged, ge_row).unwrap();
        assert!(!report.lossless);
    }

    const AGGREGATE: &str =
        "SELECT canton, SUM(jobs) AS total FROM emp GROUP BY canton ORDER BY canton";
    const JOIN: &str = "SELECT e.canton, r.region FROM emp e JOIN regions r \
                        ON e.canton = r.canton WHERE e.jobs > 60";

    /// The aggregate, join and forged-lineage cases above as `(sql, answer)`.
    fn cases(c: &Catalog) -> Vec<(&'static str, Table)> {
        let aggregate = execute(c, AGGREGATE).unwrap().table;
        let forged = Table::with_lineage(
            aggregate.schema().clone(),
            aggregate.columns().to_vec(),
            LineageStore::one_per_row(vec![
                RowId::new(c.get("emp").unwrap().tag, 4);
                aggregate.num_rows()
            ]),
        )
        .unwrap();
        vec![(AGGREGATE, aggregate), (JOIN, execute(c, JOIN).unwrap().table), (AGGREGATE, forged)]
    }

    #[test]
    fn text_entry_and_plan_entry_agree_on_both_engines() {
        let c = catalog();
        let mut verdicts = Vec::new();
        for (sql, answer) in cases(&c) {
            let plan = optimized_plan(&c, sql).unwrap();
            for row in 0..answer.num_rows() {
                let text = check_losslessness(&c, sql, &answer, row).unwrap();
                for options in [ExecOptions::default(), ExecOptions::vectorized()] {
                    let by_plan = check_plan_losslessness(&c, &plan, options, &answer, row);
                    assert_eq!(by_plan.unwrap(), text, "{sql} row {row} {options:?}");
                }
                verdicts.push(text.lossless);
            }
        }
        // honest rows pass, and the forged citation fails for GE and ZH
        assert_eq!(verdicts.iter().filter(|v| !**v).count(), 2, "{verdicts:?}");
    }

    #[test]
    fn the_restricted_catalog_holds_exactly_the_scanned_tables() {
        let c = catalog();
        let answer = execute(&c, AGGREGATE).unwrap().table;
        let restricted =
            restrict_catalog(&c, &optimized_plan(&c, AGGREGATE).unwrap(), answer.lineage(0).unwrap())
                .unwrap();
        assert_eq!(restricted.table_names(), ["emp"]);
        assert_eq!(restricted.get("emp").unwrap().table.num_rows(), 2); // GE's two rows

        // A join registers both sides; the side the lineage never cites
        // keeps its full contents.
        let emp_only: Vec<RowId> = vec![RowId::new(c.get("emp").unwrap().tag, 0)];
        let restricted = restrict_catalog(&c, &optimized_plan(&c, JOIN).unwrap(), &emp_only).unwrap();
        assert_eq!(restricted.table_names(), ["emp", "regions"]);
        assert_eq!(restricted.get("emp").unwrap().table.num_rows(), 1);
        assert_eq!(restricted.get("regions").unwrap().table.num_rows(), 2);
    }

    const UNFILTERED_SUM: &str = "SELECT SUM(jobs) AS total FROM emp";

    #[test]
    fn reports_are_pinned_and_a_fully_cited_table_is_shared() {
        let c = catalog();
        let sum = execute(&c, UNFILTERED_SUM).unwrap().table;
        // A forged total that cites every row: the replay must still run.
        let forged_sum =
            sum.with_columns(sum.schema().clone(), vec![Column::from_ints(&[461])]).unwrap();
        let mut all = cases(&c);
        all.push((UNFILTERED_SUM, sum.clone()));
        all.push((UNFILTERED_SUM, forged_sum));
        // (row, lossless, cited_rows, replay_rows) per answer row, in case order.
        const PINS: &[(usize, bool, usize, usize)] = &[
            (0, true, 2, 1),
            (1, true, 1, 1),
            (2, true, 2, 1),
            (0, true, 2, 1),
            (1, true, 2, 1),
            (2, true, 2, 1),
            (0, false, 1, 1),
            (1, true, 1, 1),
            (2, false, 1, 1),
            (0, true, 5, 1),
            (0, false, 5, 1),
        ];
        let mut got = Vec::new();
        for (sql, answer) in all {
            let plan = optimized_plan(&c, sql).unwrap();
            for row in 0..answer.num_rows() {
                let reports = [ExecOptions::default(), ExecOptions::vectorized()]
                    .map(|o| check_plan_losslessness(&c, &plan, o, &answer, row).unwrap());
                assert_eq!(reports[0], reports[1], "{sql} row {row}");
                let r = &reports[0];
                got.push((row, r.lossless, r.cited_rows, r.replay_rows));
            }
        }
        assert_eq!(got, PINS);

        let plan = optimized_plan(&c, UNFILTERED_SUM).unwrap();
        let restricted = restrict_catalog(&c, &plan, sum.lineage(0).unwrap()).unwrap();
        let full = &c.get("emp").unwrap().table;
        let shared = &restricted.get("emp").unwrap().table;
        assert_eq!(shared.columns(), full.columns());
        assert_eq!(shared.num_rows(), 5);
    }

    #[test]
    fn an_unrelated_table_changes_neither_the_report_nor_the_restricted_catalog() {
        let c = catalog();
        let mut crowded = catalog();
        let n = 100_000i64;
        let big = Table::from_columns(
            Schema::new(vec![Field::new("x", DataType::Int)]),
            vec![Column::from_ints(&(0..n).collect::<Vec<_>>())],
        )
        .unwrap();
        crowded.register("unrelated", big).unwrap();
        for (sql, answer) in cases(&c) {
            let plan = optimized_plan(&c, sql).unwrap();
            for row in 0..answer.num_rows() {
                assert_eq!(
                    check_losslessness(&crowded, sql, &answer, row).unwrap(),
                    check_losslessness(&c, sql, &answer, row).unwrap()
                );
                let lineage = answer.lineage(row).unwrap();
                let (a, b) = (
                    restrict_catalog(&crowded, &plan, lineage).unwrap(),
                    restrict_catalog(&c, &plan, lineage).unwrap(),
                );
                assert_eq!(a.table_names(), b.table_names());
                for name in a.table_names() {
                    assert_eq!(a.get(&name).unwrap().table, b.get(&name).unwrap().table);
                }
            }
        }
    }

    #[test]
    fn invertibility_folds_one_span_once_per_witness() {
        // Regression guard for the quadratic polynomial attach, stated as
        // structure instead of time: checking one aggregate row of a
        // 2k-witness group attaches the group as a single span of exactly
        // its witnesses, and the fold visits each witness once. The old
        // fold-of-`plus` construction re-merged the accumulator per
        // witness (~n²/2 inserts).
        let n = 2_000usize;
        let gs: Vec<&str> = vec!["a"; n];
        let xs: Vec<i64> = (0..n as i64).collect();
        let t = Table::from_columns(
            Schema::new(vec![Field::new("g", DataType::Str), Field::new("x", DataType::Int)]),
            vec![Column::from_strs(&gs), Column::from_ints(&xs)],
        )
        .unwrap();
        let mut c = Catalog::new();
        c.register("t", t).unwrap();
        let r = execute(&c, "SELECT g, SUM(x) AS s FROM t GROUP BY g").unwrap();

        let (lineage, span) = source_span(&r.table, 0, c.get("t").unwrap().tag).unwrap();
        assert_eq!(lineage.len(), n);
        assert_eq!((span.num_segments(), span.num_witnesses(), span.count()), (1, n, n as u64));
        let visits = std::cell::Cell::new(0usize);
        let sum = span.evaluate(&|rid| {
            visits.set(visits.get() + 1);
            rid.row as f64
        });
        assert_eq!(visits.get(), n, "one valuation per witness");
        assert_eq!(sum, (n * (n - 1) / 2) as f64);

        let inv = check_invertibility(&c, &r.table, 0, 1, AggKind::Sum, "t", "x").unwrap();
        assert!(inv.invertible, "{inv:?}");
        assert_eq!(inv.recomputed, sum);
    }

    #[test]
    fn sum_and_count_invert() {
        let c = catalog();
        let sql = "SELECT canton, SUM(jobs) AS total, COUNT(*) AS n FROM emp GROUP BY canton \
                   ORDER BY canton";
        let r = execute(&c, sql).unwrap();
        for row in 0..r.table.num_rows() {
            let inv =
                check_invertibility(&c, &r.table, row, 1, AggKind::Sum, "emp", "jobs").unwrap();
            assert!(inv.invertible, "SUM row {row}: {inv:?}");
            let inv =
                check_invertibility(&c, &r.table, row, 2, AggKind::Count, "emp", "jobs").unwrap();
            assert!(inv.invertible, "COUNT row {row}: {inv:?}");
        }
    }

    #[test]
    fn avg_min_max_invert() {
        let c = catalog();
        let sql = "SELECT canton, AVG(jobs) AS a, MIN(jobs) AS mn, MAX(jobs) AS mx FROM emp \
                   GROUP BY canton ORDER BY canton";
        let r = execute(&c, sql).unwrap();
        for row in 0..r.table.num_rows() {
            assert!(check_invertibility(&c, &r.table, row, 1, AggKind::Avg, "emp", "jobs")
                .unwrap()
                .invertible);
            assert!(check_invertibility(&c, &r.table, row, 2, AggKind::Min, "emp", "jobs")
                .unwrap()
                .invertible);
            assert!(check_invertibility(&c, &r.table, row, 3, AggKind::Max, "emp", "jobs")
                .unwrap()
                .invertible);
        }
    }

    #[test]
    fn tampered_value_fails_invertibility() {
        let c = catalog();
        let sql = "SELECT canton, SUM(jobs) AS total FROM emp GROUP BY canton ORDER BY canton";
        let r = execute(&c, sql).unwrap();
        // tamper with the reported total of row 0
        let mut cols = r.table.columns().to_vec();
        let mut tampered = Column::with_capacity(DataType::Int, r.table.num_rows());
        for i in 0..r.table.num_rows() {
            let v = cols[1].value(i).unwrap().as_i64().unwrap();
            tampered.push(Value::Int(if i == 0 { v + 1 } else { v })).unwrap();
        }
        cols[1] = tampered;
        let forged = r.table.with_columns(r.table.schema().clone(), cols).unwrap();
        let inv = check_invertibility(&c, &forged, 0, 1, AggKind::Sum, "emp", "jobs").unwrap();
        assert!(!inv.invertible);
        assert_eq!(inv.recomputed + 1.0, inv.reported);
    }

    #[test]
    fn rates_are_one_for_honest_results() {
        let c = catalog();
        let sql = "SELECT canton, SUM(jobs) AS total FROM emp GROUP BY canton ORDER BY canton";
        let r = execute(&c, sql).unwrap();
        let (lossless, invertible) =
            verification_rates(&c, sql, &r.table, 1, AggKind::Sum, "emp", "jobs").unwrap();
        assert_eq!(lossless, 1.0);
        assert_eq!(invertible, 1.0);
    }

    #[test]
    fn out_of_range_row_rejected() {
        let c = catalog();
        let sql = "SELECT COUNT(*) FROM emp";
        let r = execute(&c, sql).unwrap();
        assert!(check_losslessness(&c, sql, &r.table, 5).is_err());
        assert!(check_invertibility(&c, &r.table, 5, 0, AggKind::Count, "emp", "jobs").is_err());
    }
}

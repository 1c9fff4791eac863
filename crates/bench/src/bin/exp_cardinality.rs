//! **E14** — cost-based cardinality estimation: how accurate are the static
//! gate's row-count estimates, and what do they cost?
//!
//! Over the gold workload of E13 (60 generated analytic tasks against a
//! 20k-row table) we plan every gold query, estimate its output cardinality
//! from registration-time statistics (`cda-analyzer::cardest`), then execute
//! it and compare:
//!
//! - `coverage`: fraction of queries whose *actual* row count falls inside
//!   the estimator's sound `[lo, hi]` bounds — must be 1.0;
//! - `q-err med/p90/max`: the q-error `max(est/actual, actual/est)` of the
//!   point estimate (1.0 = perfect), reported per query shape;
//! - A013 false rejects: gold queries flagged over a 1M-row budget — must
//!   be 0 (the budget check cannot reject sound interactive queries);
//! - gate overhead: wall-clock of `Analyzer::analyze` with the cost pass
//!   (stats + budget) vs without, over the whole workload — printed as
//!   information, not gated.
//!
//! Exits non-zero unless coverage is 1.0, the median q-error is <= 16 and
//! there are no A013 false rejects.

use cda_analyzer::cardest::{q_error, Statistics};
use cda_analyzer::Analyzer;
use cda_bench::{f, header, row, timed, us};
use cda_dataframe::{Column, DataType, Field, Schema, Table};
use cda_nlmodel::nl2sql::{Workload, WorkloadTable};
use cda_sql::planner::plan_select;
use cda_sql::Catalog;
use std::time::Duration;

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    if xs.is_empty() {
        return 0.0;
    }
    xs[xs.len() / 2]
}

fn percentile(xs: &mut [f64], p: f64) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    if xs.is_empty() {
        return 0.0;
    }
    let i = ((xs.len() as f64 - 1.0) * p).round() as usize;
    xs[i.min(xs.len() - 1)]
}

fn main() {
    header("E14", "cardinality estimation: q-error, bound coverage, gate overhead");

    // The same 20k-row table and workload as E13.
    let n_rows = 20_000usize;
    let cantons = ["ZH", "GE", "VD", "BE", "TI", "SG"];
    let sectors = ["it", "fin", "gov", "edu"];
    let canton_col: Vec<&str> = (0..n_rows).map(|i| cantons[i % cantons.len()]).collect();
    let sector_col: Vec<&str> = (0..n_rows).map(|i| sectors[(i / 7) % sectors.len()]).collect();
    let jobs: Vec<i64> = (0..n_rows).map(|i| (i as i64 * 37) % 500 + 10).collect();
    let rate: Vec<f64> = (0..n_rows).map(|i| (i as f64 * 0.618).fract()).collect();
    let t = Table::from_columns(
        Schema::new(vec![
            Field::new("canton", DataType::Str),
            Field::new("sector", DataType::Str),
            Field::new("jobs", DataType::Int),
            Field::new("rate", DataType::Float),
        ]),
        vec![
            Column::from_strs(&canton_col),
            Column::from_strs(&sector_col),
            Column::from_ints(&jobs),
            Column::from_floats(&rate),
        ],
    )
    .unwrap();
    let schema = t.schema().clone();
    let mut catalog = Catalog::new();
    catalog.register("emp", t).unwrap();
    let tables = vec![WorkloadTable {
        name: "emp".into(),
        schema,
        string_values: vec![
            ("canton".into(), vec!["ZH".into(), "GE".into()]),
            ("sector".into(), vec!["it".into(), "gov".into()]),
        ],
    }];
    let workload = Workload::generate(&tables, 60, 41);

    let (stats, t_collect) = timed(|| Statistics::from_catalog(&catalog));
    println!("stats collection over {n_rows} rows: {}", us(t_collect));

    // Per-query estimate vs ground truth, bucketed by query shape.
    let shape_of = |t: &cda_nlmodel::nl2sql::Nl2SqlTask| -> &'static str {
        match (t.task.group_by.is_some(), !t.task.filters.is_empty()) {
            (true, true) => "grouped+filtered",
            (true, false) => "grouped",
            (false, true) => "global+filtered",
            (false, false) => "global",
        }
    };
    let mut buckets: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    let mut covered = 0usize;
    let mut total = 0usize;
    let mut a013_flags = 0usize;
    let budget_analyzer = Analyzer::new(&catalog).with_stats(&stats).with_row_budget(1_000_000);
    for task in &workload.tasks {
        let select = cda_sql::parser::parse(&task.gold_sql).expect("gold SQL parses");
        let plan = plan_select(&catalog, &select).expect("gold SQL plans");
        let est = cda_analyzer::estimate(&plan, &stats);
        let actual = cda_sql::execute(&catalog, &task.gold_sql)
            .expect("gold SQL executes")
            .table
            .num_rows() as u64;
        total += 1;
        if est.contains(actual) {
            covered += 1;
        }
        if budget_analyzer.analyze(&task.gold_sql).exceeds_budget() {
            a013_flags += 1;
        }
        buckets.entry(shape_of(task)).or_default().push(q_error(est.point(), actual));
    }

    row(&[
        "shape".into(),
        "queries".into(),
        "q-med".into(),
        "q-p90".into(),
        "q-max".into(),
    ]);
    let mut all: Vec<f64> = Vec::new();
    for (shape, qs) in &mut buckets {
        all.extend(qs.iter().copied());
        let max = qs.iter().copied().fold(1.0f64, f64::max);
        row(&[
            (*shape).into(),
            qs.len().to_string(),
            f(median(qs)),
            f(percentile(qs, 0.9)),
            f(max),
        ]);
    }
    let med_all = median(&mut all);
    let coverage = covered as f64 / total as f64;

    // Gate overhead: full analyze() with vs without the cost pass.
    let plain = Analyzer::new(&catalog);
    let reps = 30usize;
    let mut t_plain = Duration::ZERO;
    let mut t_cost = Duration::ZERO;
    for _ in 0..reps {
        for task in &workload.tasks {
            let (_, dt) = timed(|| plain.analyze(&task.gold_sql).is_clean());
            t_plain += dt;
            let (_, dt) = timed(|| budget_analyzer.analyze(&task.gold_sql).is_clean());
            t_cost += dt;
        }
    }
    let overhead = t_cost.as_secs_f64() / t_plain.as_secs_f64() - 1.0;
    println!(
        "\ngate time over {} queries x {reps} reps: plain {}, with cost pass {} (overhead {:.1}%)",
        workload.tasks.len(),
        us(t_plain),
        us(t_cost),
        overhead * 100.0
    );
    let covered_all = covered == total;
    println!(
        "acceptance: coverage {} (==1.00: {covered_all}), median q-error {} (<=16: {}), \
         A013 false rejects {a013_flags} (==0: {})",
        f(coverage),
        f(med_all),
        med_all <= 16.0,
        a013_flags == 0,
    );
    if !(covered_all && med_all <= 16.0 && a013_flags == 0) {
        std::process::exit(1);
    }
}

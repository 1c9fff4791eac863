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
//! Gates: coverage is 1.0, the median q-error is <= 16 and
//! there are no A013 false rejects.

use cda_analyzer::cardest::{q_error, Statistics};
use cda_analyzer::Analyzer;
use super::static_gate::gold_workload;
use crate::{clock, row, Budget, Cell, Experiment};
use cda_sql::planner::plan_select;
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

/// Run E14.
pub fn run(_: &Budget) -> Experiment {
    let mut e =
        Experiment::new("E14", "cardinality estimation: q-error, bound coverage, gate overhead");

    // The same 20k-row table and workload as E13.
    let (catalog, _, workload) = gold_workload();
    let n_rows = catalog.get("emp").unwrap().table.num_rows();

    let (stats, t_collect) = clock(1, || Statistics::from_catalog(&catalog));

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

    let mut shapes = crate::Table::new(
        format!("point-estimate q-error by query shape, {} gold queries over {n_rows} rows", total),
        &["shape", "queries", "q-med", "q-p90", "q-max"],
    );
    let mut all: Vec<f64> = Vec::new();
    for (shape, qs) in &mut buckets {
        all.extend(qs.iter().copied());
        let max = qs.iter().copied().fold(1.0f64, f64::max);
        row!(shapes; *shape, qs.len(), median(qs), percentile(qs, 0.9), max);
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
            t_plain += clock(1, || plain.analyze(&task.gold_sql).is_clean()).1;
            t_cost += clock(1, || budget_analyzer.analyze(&task.gold_sql).is_clean()).1;
        }
    }
    let mut cost = crate::Table::new(
        format!("static-gate time, {} queries x {reps} reps", workload.tasks.len()),
        &["measure", "time"],
    );
    row!(cost; "stats collection", t_collect);
    row!(cost; "analyze, plain", t_plain);
    row!(cost; "analyze, with cost pass", t_cost);
    row!(cost; "cost pass / plain", Cell::TimeRatio(t_cost.as_secs_f64() / t_plain.as_secs_f64()));
    e.tables = vec![shapes, cost];

    e.gate("bound coverage == 1.0", format!("{coverage:.3} ({covered}/{total})"), covered == total);
    e.gate("median q-error <= 16", format!("{med_all:.3}"), med_all <= 16.0);
    e.gate("A013 false rejects at a 1M-row budget == 0", a013_flags, a013_flags == 0);
    e
}

//! **E13** — static soundness gate: how much execution-verification work can
//! pre-execution analysis (`cda-analyzer::sqlcheck`) absorb, and at what cost?
//!
//! For each LM hallucination rate we sample candidate SQL for every workload
//! task and compare two verdicts per candidate: the static gate
//! (`Analyzer::execution_doomed`) and ground truth (actually executing the
//! query).
//! Reported per rate:
//! - `exec-rej`: fraction of candidates execution verification rejects;
//! - `caught`: fraction of those the static gate also rejects (the gate's
//!   catch rate — target ≥ 0.50);
//! - `false-rej`: candidates the gate rejects that in fact execute — must
//!   be 0, or the gate would discard sound answers;
//! - `t-ratio`: static-analysis wall-clock over execution wall-clock — the
//!   gate must be cheap relative to what it replaces (printed as
//!   information, not gated).
//!
//! A final check runs the analyzer over every *gold* workload query: the gate
//! must reject none of them (zero false rejects on the valid demo workload).
//!
//! Gates: the minimum catch rate is ≥ 0.50, and there are no false rejects
//! and no rejected gold queries.

use cda_analyzer::Analyzer;
use crate::{clock, row, Budget, Cell, Experiment};
use cda_dataframe::{Column, DataType, Field, Schema, Table};
use cda_nlmodel::lm::{Nl2SqlPrompt, SimLm, SimLmConfig};
use cda_nlmodel::nl2sql::{Workload, WorkloadTable};
use cda_sql::Catalog;
use std::time::Duration;

/// Run E13.
pub fn run(_: &Budget) -> Experiment {
    let mut e = Experiment::new(
        "E13",
        "static gate vs execution verification: catch rate, false rejects, cost",
    );

    let (catalog, schema, workload) = gold_workload();
    let analyzer = Analyzer::new(&catalog);

    let mut t = crate::Table::new(
        format!("{} tasks x 5 LM candidates per hallucination rate", workload.tasks.len()),
        &["halluc", "cands", "exec-rej", "caught", "false-rej", "t-static", "t-exec", "t-ratio"],
    );
    let mut total_false = 0usize;
    let mut min_catch = 1.0f64;
    for pct in [0u32, 10, 20, 30, 40, 50] {
        let h = f64::from(pct) / 100.0;
        let lm = SimLm::new(SimLmConfig { hallucination_rate: h, overconfidence: 0.9, seed: 29 });
        let mut candidates = 0usize;
        let mut exec_rejected = 0usize;
        let mut caught = 0usize;
        let mut false_rejects = 0usize;
        let mut t_static = Duration::ZERO;
        let mut t_exec = Duration::ZERO;
        for task in &workload.tasks {
            let prompt = Nl2SqlPrompt {
                task: task.task.clone(),
                schema: schema.clone(),
                other_tables: vec![],
            };
            for g in lm.sample_k(&prompt, 1.0, 5) {
                candidates += 1;
                let (doomed, dt) = clock(1, || analyzer.execution_doomed(&g.sql));
                t_static += dt;
                let (exec, dt) = clock(1, || cda_sql::execute(&catalog, &g.sql));
                t_exec += dt;
                let exec_fails = exec.is_err();
                if exec_fails {
                    exec_rejected += 1;
                    if doomed {
                        caught += 1;
                    }
                } else if doomed {
                    false_rejects += 1;
                }
            }
        }
        let catch_rate =
            if exec_rejected == 0 { 1.0 } else { caught as f64 / exec_rejected as f64 };
        total_false += false_rejects;
        if exec_rejected > 0 {
            min_catch = min_catch.min(catch_rate);
        }
        row!(t; format!("{pct}%"), candidates, exec_rejected as f64 / candidates as f64,
            catch_rate, false_rejects, t_static, t_exec,
            Cell::TimeRatio(t_static.as_secs_f64() / t_exec.as_secs_f64()));
    }
    e.tables.push(t);

    // Gold-workload sanity: the gate must pass every valid demo query.
    let gold_doomed =
        workload.tasks.iter().filter(|t| analyzer.execution_doomed(&t.gold_sql)).count();
    e.gate("min catch rate >= 0.50", format!("{min_catch:.3}"), min_catch >= 0.5);
    e.gate("false rejects == 0", total_false, total_false == 0);
    e.gate(
        "gold queries statically rejected == 0",
        format!("{gold_doomed}/{}", workload.tasks.len()),
        gold_doomed == 0,
    );
    e
}

/// The E13 workload, shared by E14 and E15: 60 generated analytic tasks
/// over a 20k-row `emp` table, deliberately non-tiny so execution cost is
/// realistic.
pub fn gold_workload() -> (Catalog, Schema, Workload) {
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
        schema: schema.clone(),
        string_values: vec![
            ("canton".into(), vec!["ZH".into(), "GE".into()]),
            ("sector".into(), vec!["it".into(), "gov".into()]),
        ],
    }];
    let workload = Workload::generate(&tables, 60, 41);
    (catalog, schema, workload)
}

//! **E7** — output control: SQL-validity rate and execution accuracy under
//! free / constrained / rejection / reranked decoding.
//!
//! The paper (Soundness, Sec. 3.2): structured outputs via "rejection
//! sampling, constrained decoding and parsing" plus reward-guided selection.
//! Expected shape: validity and accuracy increase monotonically along the
//! strategy ladder, at the cost of more LM samples.

use crate::constrained::{Decoder, DecodingStrategy};
use crate::{row, Budget, Experiment};
use cda_dataframe::{Column, DataType, Field, Schema, Table};
use cda_nlmodel::lm::{Nl2SqlPrompt, SimLm, SimLmConfig};
use cda_nlmodel::nl2sql::{Workload, WorkloadTable};
use cda_soundness::verify::execution_accuracy;
use cda_sql::Catalog;

/// Run E7.
pub fn run(_: &Budget) -> Experiment {
    let mut e = Experiment::new(
        "E7",
        "decoding strategies: validity + execution accuracy vs sampling cost",
    );
    let t = Table::from_columns(
        Schema::new(vec![
            Field::new("canton", DataType::Str),
            Field::new("sector", DataType::Str),
            Field::new("jobs", DataType::Int),
            Field::new("rate", DataType::Float),
        ]),
        vec![
            Column::from_strs(&["ZH", "ZH", "GE", "GE", "VD", "BE"]),
            Column::from_strs(&["it", "fin", "it", "gov", "it", "fin"]),
            Column::from_ints(&[100, 200, 50, 80, 30, 60]),
            Column::from_floats(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
        ],
    )
    .unwrap();
    let mut catalog = Catalog::new();
    let schema = t.schema().clone();
    catalog.register("emp", t).unwrap();
    let tables = vec![WorkloadTable {
        name: "emp".into(),
        schema: schema.clone(),
        string_values: vec![
            ("canton".into(), vec!["ZH".into(), "GE".into()]),
            ("sector".into(), vec!["it".into(), "gov".into()]),
        ],
    }];
    let workload = Workload::generate(&tables, 80, 41);

    for h in [0.4f64, 0.7] {
        let mut t = crate::Table::new(
            format!("hallucination rate {h}, {} tasks, budget 12 samples", workload.tasks.len()),
            &["strategy", "answered", "valid SQL", "exec accuracy", "avg samples"],
        );
        let lm = SimLm::new(SimLmConfig { hallucination_rate: h, overconfidence: 0.9, seed: 29 });
        for strategy in [
            DecodingStrategy::Free,
            DecodingStrategy::Constrained,
            DecodingStrategy::Rejection,
            DecodingStrategy::Reranked,
        ] {
            let mut answered = 0usize;
            let mut valid = 0usize;
            let mut accurate = 0usize;
            let mut samples = 0usize;
            for task in &workload.tasks {
                let prompt = Nl2SqlPrompt {
                    task: task.task.clone(),
                    schema: schema.clone(),
                    other_tables: vec![],
                };
                let decoder = Decoder::new(&lm, &catalog)
                    .with_strategy(strategy)
                    .with_temperature(1.0)
                    .with_budget(12);
                match decoder.decode(&prompt) {
                    Ok(r) => {
                        answered += 1;
                        samples += r.attempts;
                        if cda_sql::parser::parse(&r.generation.sql).is_ok() {
                            valid += 1;
                        }
                        if execution_accuracy(&catalog, &r.generation.sql, &task.gold_sql) {
                            accurate += 1;
                        }
                    }
                    Err(_) => samples += 12,
                }
            }
            let n = workload.tasks.len() as f64;
            row!(t; strategy.label(), answered as f64 / n, valid as f64 / n,
                accurate as f64 / n, samples as f64 / n);
        }
        e.tables.push(t);
    }
    e
}

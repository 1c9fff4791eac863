//! **E5** — P4 soundness: calibration of consistency-based UQ vs the LM's
//! own token-probability confidence, swept over hallucination rates.
//!
//! Reproduces the paper's core soundness observation: "when relying solely
//! on an LLM, confidence scores may not accurately reflect the true
//! probability of correctness". Expected shape: naive confidence stays high
//! (≈0.8) regardless of the true error rate → ECE explodes as hallucination
//! grows; consistency confidence tracks accuracy → ECE stays low and AUROC
//! stays well above 0.5.

use crate::calibration::{auroc, brier_score, expected_calibration_error};
use crate::{mean, row, Budget, Experiment};
use cda_analyzer::Analyzer;
use cda_dataframe::{Column, DataType, Field, Schema, Table};
use cda_nlmodel::lm::{Nl2SqlPrompt, SimLm, SimLmConfig};
use cda_nlmodel::nl2sql::{Workload, WorkloadTable};
use cda_soundness::consistency::ConsistencyUq;
use cda_soundness::verify::execution_accuracy;
use cda_sql::Catalog;

fn catalog() -> (Catalog, Vec<WorkloadTable>) {
    let t = Table::from_columns(
        Schema::new(vec![
            Field::new("canton", DataType::Str),
            Field::new("sector", DataType::Str),
            Field::new("jobs", DataType::Int),
            Field::new("rate", DataType::Float),
        ]),
        vec![
            Column::from_strs(&["ZH", "ZH", "GE", "GE", "VD", "VD", "BE", "TI"]),
            Column::from_strs(&["it", "fin", "it", "gov", "it", "fin", "gov", "it"]),
            Column::from_ints(&[100, 200, 50, 80, 30, 60, 40, 70]),
            Column::from_floats(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]),
        ],
    )
    .unwrap();
    let mut c = Catalog::new();
    let schema = t.schema().clone();
    c.register("emp", t).unwrap();
    let tables = vec![WorkloadTable {
        name: "emp".into(),
        schema,
        string_values: vec![
            ("canton".into(), vec!["ZH".into(), "GE".into(), "VD".into()]),
            ("sector".into(), vec!["it".into(), "fin".into()]),
        ],
    }];
    (c, tables)
}

const TASKS: usize = 80;
const K: usize = 7;

/// Run E5.
pub fn run(_: &Budget) -> Experiment {
    let mut e =
        Experiment::new("E5", "calibration: consistency-UQ vs naive LM confidence (k=7 samples)");
    let (catalog, tables) = catalog();
    let workload = Workload::generate(&tables, TASKS, 13);
    let prompt = |t: &cda_nlmodel::nl2sql::Nl2SqlTask| Nl2SqlPrompt {
        task: t.task.clone(),
        schema: tables[0].schema.clone(),
        other_tables: vec![],
    };
    let mut sweep = crate::Table::new(
        format!("{TASKS} NL2SQL tasks, hallucination sweep"),
        &["halluc rate", "accuracy", "naive conf", "naive ECE", "naive AUROC", "cons conf",
          "cons ECE", "cons AUROC", "cons Brier"],
    );
    let analyzer = Analyzer::new(&catalog);
    for h in [0.0f64, 0.1, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8] {
        let lm = SimLm::new(SimLmConfig { hallucination_rate: h, overconfidence: 1.0, seed: 17 });
        let mut cons = Vec::new();
        let mut naive = Vec::new();
        let mut correct = Vec::new();
        for t in &workload.tasks {
            let report = ConsistencyUq::new(&lm, &analyzer)
                .with_samples(K)
                .with_temperature(1.0)
                .run(&prompt(t))
                .unwrap();
            naive.push(report.naive_confidence);
            let Some(sql) = report.chosen_sql else {
                cons.push(0.0);
                correct.push(false);
                continue;
            };
            cons.push(report.confidence);
            correct.push(execution_accuracy(&catalog, &sql, &t.gold_sql));
        }
        let acc = correct.iter().filter(|c| **c).count() as f64 / correct.len() as f64;
        row!(sweep; h, acc, mean(&naive),
            expected_calibration_error(&naive, &correct, 10).unwrap(),
            auroc(&naive, &correct).unwrap(),
            mean(&cons),
            expected_calibration_error(&cons, &correct, 10).unwrap(),
            auroc(&cons, &correct).unwrap(),
            brier_score(&cons, &correct).unwrap());
    }

    let mut ablation = crate::Table::new(
        "ablation: consistency sample count k at hallucination 0.4",
        &["k", "cons ECE", "cons AUROC", "LM calls"],
    );
    let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.4, overconfidence: 1.0, seed: 17 });
    for k in [3usize, 5, 7, 11, 15] {
        let mut cons = Vec::new();
        let mut correct = Vec::new();
        for t in &workload.tasks {
            let report = ConsistencyUq::new(&lm, &analyzer)
                .with_samples(k)
                .with_temperature(1.0)
                .run(&prompt(t))
                .unwrap();
            let Some(sql) = report.chosen_sql else {
                cons.push(0.0);
                correct.push(false);
                continue;
            };
            cons.push(report.confidence);
            correct.push(execution_accuracy(&catalog, &sql, &t.gold_sql));
        }
        row!(ablation; k,
            expected_calibration_error(&cons, &correct, 10).unwrap(),
            auroc(&cons, &correct).unwrap(),
            k * TASKS);
    }
    e.tables = vec![sweep, ablation];
    e
}

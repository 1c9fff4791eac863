//! The E5 and E7 headlines in miniature: consistency UQ's calibration
//! against the LM's naive confidence, and the decoding-strategy ladder. Both
//! measure with the lab (`calibration`, `constrained`).

use cda_analyzer::Analyzer;
use cda_bench::calibration::{auroc, expected_calibration_error};
use cda_bench::constrained::{Decoder, DecodingStrategy};
use cda_dataframe::{Column, DataType, Field, Schema, Table};
use cda_nlmodel::lm::{Nl2SqlPrompt, SimLm, SimLmConfig};
use cda_nlmodel::nl2sql::{Workload, WorkloadTable};
use cda_soundness::consistency::ConsistencyUq;
use cda_soundness::verify::execution_accuracy;
use cda_sql::Catalog;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let t = Table::from_columns(
        Schema::new(vec![
            Field::new("canton", DataType::Str),
            Field::new("sector", DataType::Str),
            Field::new("jobs", DataType::Int),
            Field::new("rate", DataType::Float),
        ]),
        vec![
            Column::from_strs(&["ZH", "ZH", "GE", "GE", "VD", "VD", "BE", "BE"]),
            Column::from_strs(&["it", "fin", "it", "gov", "it", "fin", "gov", "it"]),
            Column::from_ints(&[100, 200, 50, 80, 30, 60, 40, 70]),
            Column::from_floats(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]),
        ],
    )
    .unwrap();
    c.register("emp", t).unwrap();
    c
}

fn workload_tables() -> Vec<WorkloadTable> {
    vec![WorkloadTable {
        name: "emp".into(),
        schema: Schema::new(vec![
            Field::new("canton", DataType::Str),
            Field::new("sector", DataType::Str),
            Field::new("jobs", DataType::Int),
            Field::new("rate", DataType::Float),
        ]),
        string_values: vec![
            ("canton".into(), vec!["ZH".into(), "GE".into(), "VD".into()]),
            ("sector".into(), vec!["it".into(), "fin".into()]),
        ],
    }]
}

#[test]
fn consistency_uq_tracks_true_correctness_better_than_naive_confidence() {
    // the E5 headline, in miniature: sweep a workload at a high hallucination
    // rate, grade with execution accuracy, compare AUROC of the two signals
    let catalog = catalog();
    let tables = workload_tables();
    let workload = Workload::generate(&tables, 60, 9);
    // a badly unreliable model: small sample count so wrong majorities occur
    let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.85, overconfidence: 1.0, seed: 4 });
    let analyzer = Analyzer::new(&catalog);
    let mut consistency = Vec::new();
    let mut naive = Vec::new();
    let mut correct = Vec::new();
    for t in &workload.tasks {
        let prompt = Nl2SqlPrompt {
            task: t.task.clone(),
            schema: tables[0].schema.clone(),
            other_tables: vec![],
        };
        let report = ConsistencyUq::new(&lm, &analyzer)
            .with_samples(5)
            .with_temperature(1.0)
            .run(&prompt)
            .unwrap();
        let Some(sql) = report.chosen_sql else { continue };
        consistency.push(report.confidence);
        naive.push(report.naive_confidence);
        correct.push(execution_accuracy(&catalog, &sql, &t.gold_sql));
    }
    assert!(correct.len() >= 40, "enough graded samples");
    let wrong = correct.iter().filter(|c| !**c).count();
    assert!(wrong >= 5, "stress level produced only {wrong} wrong answers");
    let ece_naive = expected_calibration_error(&naive, &correct, 10).unwrap_or(1.0);
    let ece_consistency = expected_calibration_error(&consistency, &correct, 10).unwrap_or(1.0);
    // The overconfident naive signal must be visibly worse calibrated.
    assert!(
        ece_consistency < ece_naive,
        "consistency ECE {ece_consistency} vs naive {ece_naive}"
    );
    // Consistency confidence should discriminate above chance when both
    // outcome classes are present.
    let auroc_consistency = auroc(&consistency, &correct).unwrap();
    assert!(auroc_consistency > 0.55, "consistency AUROC {auroc_consistency}");
}

#[test]
fn constrained_decoding_improves_validity_and_accuracy() {
    // the E7 headline: validity/accuracy rates ordered free ≤ constrained ≤
    // rejection across a workload with a very unreliable model
    let catalog = catalog();
    let tables = workload_tables();
    let workload = Workload::generate(&tables, 25, 2);
    let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.8, overconfidence: 0.9, seed: 8 });
    let mut rates = std::collections::HashMap::new();
    for strategy in [
        DecodingStrategy::Free,
        DecodingStrategy::Constrained,
        DecodingStrategy::Rejection,
        DecodingStrategy::Reranked,
    ] {
        let mut valid = 0usize;
        let mut accurate = 0usize;
        for t in &workload.tasks {
            let prompt = Nl2SqlPrompt {
                task: t.task.clone(),
                schema: tables[0].schema.clone(),
                other_tables: vec![],
            };
            let decoder = Decoder::new(&lm, &catalog)
                .with_strategy(strategy)
                .with_temperature(1.0)
                .with_budget(12);
            if let Ok(r) = decoder.decode(&prompt) {
                if cda_sql::parser::parse(&r.generation.sql).is_ok() {
                    valid += 1;
                }
                if execution_accuracy(&catalog, &r.generation.sql, &t.gold_sql) {
                    accurate += 1;
                }
            }
        }
        rates.insert(strategy.label(), (valid, accurate));
    }
    let (free_valid, free_acc) = rates["free"];
    let (con_valid, _) = rates["constrained"];
    let (rej_valid, rej_acc) = rates["rejection"];
    let (_, rer_acc) = rates["reranked"];
    assert!(con_valid >= free_valid);
    assert!(rej_valid >= con_valid);
    assert!(rej_acc >= free_acc);
    assert!(rer_acc >= free_acc, "reranked {rer_acc} vs free {free_acc}");
}

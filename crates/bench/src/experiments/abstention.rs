//! **E6** — P4 soundness: selective answering ("refrain when uncertain").
//!
//! Expected shape: with an informative confidence signal (consistency-UQ),
//! raising the threshold trades coverage for monotonically lower risk; with
//! the uninformative naive signal the risk barely moves. AURC (area under
//! the risk–coverage curve) summarizes: consistency ≪ naive.

use crate::selective::{aurc, risk_coverage_curve, threshold_for_risk};
use crate::{row, Budget, Experiment};
use cda_analyzer::Analyzer;
use cda_dataframe::{Column, DataType, Field, Schema, Table};
use cda_nlmodel::lm::{Nl2SqlPrompt, SimLm, SimLmConfig};
use cda_nlmodel::nl2sql::{Workload, WorkloadTable};
use cda_soundness::consistency::ConsistencyUq;
use cda_soundness::verify::execution_accuracy;
use cda_sql::Catalog;

/// Run E6.
pub fn run(_: &Budget) -> Experiment {
    let mut e =
        Experiment::new("E6", "selective answering: risk-coverage of the two confidence signals");
    let t = Table::from_columns(
        Schema::new(vec![
            Field::new("canton", DataType::Str),
            Field::new("sector", DataType::Str),
            Field::new("jobs", DataType::Int),
        ]),
        vec![
            Column::from_strs(&["ZH", "ZH", "GE", "GE", "VD", "BE"]),
            Column::from_strs(&["it", "fin", "it", "gov", "it", "fin"]),
            Column::from_ints(&[100, 200, 50, 80, 30, 60]),
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
            ("sector".into(), vec!["it".into(), "fin".into()]),
        ],
    }];
    let workload = Workload::generate(&tables, 100, 31);
    let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.55, overconfidence: 1.0, seed: 23 });

    let analyzer = Analyzer::new(&catalog);
    let mut cons = Vec::new();
    let mut naive = Vec::new();
    let mut correct = Vec::new();
    for task in &workload.tasks {
        let prompt = Nl2SqlPrompt {
            task: task.task.clone(),
            schema: schema.clone(),
            other_tables: vec![],
        };
        let report = ConsistencyUq::new(&lm, &analyzer)
            .with_samples(5)
            .with_temperature(1.0)
            .run(&prompt)
            .unwrap();
        let ok = report
            .chosen_sql
            .as_deref()
            .map(|sql| execution_accuracy(&catalog, sql, &task.gold_sql))
            .unwrap_or(false);
        cons.push(report.confidence);
        naive.push(report.naive_confidence);
        correct.push(ok);
    }
    let base_risk = correct.iter().filter(|c| !**c).count() as f64 / correct.len() as f64;
    let mut summary = crate::Table::new(
        format!("{} tasks, 55% hallucination model", workload.tasks.len()),
        &["measure", "value"],
    );
    row!(summary; "base risk (answer everything)", base_risk);
    row!(summary; "AURC consistency", aurc(&cons, &correct));
    row!(summary; "AURC naive", aurc(&naive, &correct));
    e.tables.push(summary);

    let mut targets = crate::Table::new(
        "lowest threshold reaching a target risk",
        &["signal", "target risk", "threshold", "coverage", "risk"],
    );
    for (label, conf) in [("consistency", &cons), ("naive", &naive)] {
        let curve = risk_coverage_curve(conf, &correct);
        let mut points = crate::Table::new(
            format!("risk-coverage, {label} signal"),
            &["threshold", "coverage", "risk"],
        );
        // up to 8 evenly spread points
        let step = (curve.len() / 8).max(1);
        for p in curve.iter().step_by(step) {
            row!(points; p.threshold, p.coverage, p.risk);
        }
        e.tables.push(points);
        for target in [0.1f64, 0.05] {
            match threshold_for_risk(conf, &correct, target) {
                Some(t) => {
                    let pt = curve
                        .iter()
                        .find(|p| (p.threshold - t).abs() < 1e-12)
                        .expect("threshold from curve");
                    row!(targets; label, target, t, pt.coverage, pt.risk);
                }
                None => row!(targets; label, target, "unreachable", "-", "-"),
            }
        }
    }
    e.tables.push(targets);
    e
}

//! Cross-crate pipeline tests: the NL→SQL→execution→provenance path and
//! CSV ingestion, exercised outside the dialogue loop. The soundness
//! ablations (calibration of consistency UQ, decoding strategies) measure
//! with lab code and are in `cda-bench`'s `tests/pipeline.rs`.

use cda_dataframe::kernels::AggKind;
use cda_dataframe::{Column, DataType, Field, Schema, Table};
use cda_nlmodel::nl2sql::{parse_question, WorkloadTable};
use cda_provenance::checks::{check_invertibility, check_losslessness};
use cda_sql::{execute, Catalog};

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
fn nl_to_sql_to_execution_to_provenance_round_trip() {
    let catalog = catalog();
    let tables = workload_tables();
    let question = "What is the total jobs in emp per canton where sector is it, highest first?";
    let task = parse_question(question, &tables).expect("parseable");
    let sql = task.to_sql();
    let result = execute(&catalog, &sql).expect("gold executes");
    assert!(result.table.num_rows() >= 3);
    // every aggregate row is lossless and invertible
    for row in 0..result.table.num_rows() {
        assert!(check_losslessness(&catalog, &sql, &result.table, row).unwrap().lossless);
        assert!(
            check_invertibility(&catalog, &result.table, row, 1, AggKind::Sum, "emp", "jobs")
                .unwrap()
                .invertible
        );
    }
}

#[test]
fn csv_ingestion_feeds_sql_and_timeseries() {
    // ⓓ → ⓑ: ingest CSV, query it, run seasonality on the queried column
    let csv = {
        let series = cda_timeseries::TimeSeries::synthetic_seasonal(96, 12, 6.0, 0.0, 0.3, 5);
        let mut s = String::from("month,value\n");
        for (t, v) in series.timestamps().iter().zip(series.values()) {
            s.push_str(&format!("{t},{v}\n"));
        }
        s
    };
    let table = cda_dataframe::csv::parse_csv(&csv, &Default::default()).unwrap();
    let mut catalog = Catalog::new();
    catalog.register("metrics", table).unwrap();
    let result = execute(&catalog, "SELECT value FROM metrics ORDER BY month").unwrap();
    let values: Vec<f64> = (0..result.table.num_rows())
        .map(|i| result.table.value(i, 0).unwrap().as_f64().unwrap())
        .collect();
    let ts = cda_timeseries::TimeSeries::from_values(values);
    let season = cda_timeseries::seasonality::detect_seasonality(&ts, 24).unwrap();
    assert_eq!(season.period, 12);
    assert!(season.confidence > 0.5);
}

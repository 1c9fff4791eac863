//! **E4** — P3 explainability: cost of provenance tracking and the
//! losslessness/invertibility verification rates.
//!
//! Expected shape: lineage tracking costs a bounded overhead (largest for
//! join/aggregate-heavy queries, where witness unions are built); on honest
//! executions, losslessness and invertibility verify at 100%, and tampered
//! results are caught.

use crate::{clock, row, Budget, Cell, Experiment};
use cda_dataframe::kernels::AggKind;
use cda_dataframe::{Column, DataType, Field, Schema, Table};
use cda_provenance::checks::verification_rates;
use cda_sql::{execute_with_options, Catalog, ExecOptions, OptimizerRules};
use cda_testkit::rng::StdRng;

fn build_catalog(rows: usize, seed: u64) -> Catalog {
    let mut rng = StdRng::seed_from_u64(seed);
    let groups = ["a", "b", "c", "d", "e", "f", "g", "h"];
    let gs: Vec<&str> = (0..rows).map(|_| groups[rng.gen_range(0..groups.len())]).collect();
    let xs: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..1000)).collect();
    let ys: Vec<f64> = (0..rows).map(|_| rng.gen_range(0.0..10.0)).collect();
    let t = Table::from_columns(
        Schema::new(vec![
            Field::new("g", DataType::Str),
            Field::new("x", DataType::Int),
            Field::new("y", DataType::Float),
        ]),
        vec![Column::from_strs(&gs), Column::from_ints(&xs), Column::from_floats(&ys)],
    )
    .unwrap();
    let mut c = Catalog::new();
    c.register("t", t).unwrap();
    let dims: Vec<&str> = groups.to_vec();
    let labels: Vec<&str> = vec!["east", "west", "north", "south", "e2", "w2", "n2", "s2"];
    let d = Table::from_columns(
        Schema::new(vec![Field::new("g", DataType::Str), Field::new("region", DataType::Str)]),
        vec![Column::from_strs(&dims), Column::from_strs(&labels)],
    )
    .unwrap();
    c.register("dim", d).unwrap();
    c
}

/// Run E4.
pub fn run(_: &Budget) -> Experiment {
    let mut e =
        Experiment::new("E4", "provenance: tracking overhead + losslessness/invertibility rates");
    let workloads = [
        ("filter", "SELECT g, x FROM t WHERE x > 500"),
        ("aggregate", "SELECT g, SUM(x) AS s, COUNT(*) AS n FROM t GROUP BY g"),
        (
            "join+agg",
            "SELECT d.region, SUM(t.x) AS s FROM t JOIN dim d ON t.g = d.g GROUP BY d.region",
        ),
        ("distinct", "SELECT DISTINCT g FROM t"),
    ];
    for rows in [2_000usize, 10_000] {
        let catalog = build_catalog(rows, 5);
        let mut t = crate::Table::new(
            format!("lineage tracking cost, {rows} base rows"),
            &["query", "time w/ lineage", "time w/o", "overhead"],
        );
        for (name, sql) in workloads {
            let run = |track_lineage| {
                let options =
                    ExecOptions { rules: OptimizerRules::all(), track_lineage, vectorized: None };
                clock(5, || execute_with_options(&catalog, sql, options).unwrap()).1
            };
            let (with_lineage, without) = (run(true), run(false));
            row!(t; name, with_lineage, without,
                Cell::TimeRatio(with_lineage.as_secs_f64() / without.as_secs_f64()));
        }
        e.tables.push(t);
    }

    let catalog = build_catalog(2_000, 5);
    let sql = "SELECT g, SUM(x) AS s FROM t GROUP BY g ORDER BY g";
    let result = execute_with_options(&catalog, sql, ExecOptions::default()).unwrap();
    let (lossless, invertible) =
        verification_rates(&catalog, sql, &result.table, 1, AggKind::Sum, "t", "x").unwrap();

    // tampering detection: corrupt each aggregate value by +1
    let mut cols = result.table.columns().to_vec();
    let mut tampered = Column::with_capacity(DataType::Int, result.table.num_rows());
    for i in 0..result.table.num_rows() {
        let v = cols[1].value(i).unwrap().as_i64().unwrap();
        tampered.push(cda_dataframe::Value::Int(v + 1)).unwrap();
    }
    cols[1] = tampered;
    let forged =
        Table::with_lineage(result.table.schema().clone(), cols, result.table.lineages().to_vec())
            .unwrap();
    let (_, forged_invertible) =
        verification_rates(&catalog, sql, &forged, 1, AggKind::Sum, "t", "x").unwrap();

    let mut rates = crate::Table::new(
        "verification rates over the aggregate workload",
        &["check", "result rows", "rate"],
    );
    row!(rates; "losslessness", "honest", lossless);
    row!(rates; "invertibility", "honest", invertible);
    row!(rates; "invertibility", "tampered (+1)", forged_invertible);
    e.tables.push(rates);
    e.gate(
        "honest results verify: losslessness == invertibility == 1.0",
        format!("{lossless:.3} / {invertible:.3}"),
        lossless == 1.0 && invertible == 1.0,
    );
    e.gate(
        "tampered aggregates are caught: invertibility == 0.0",
        format!("{forged_invertible:.3}"),
        forged_invertible == 0.0,
    );
    e
}

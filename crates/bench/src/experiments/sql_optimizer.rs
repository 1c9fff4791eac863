//! **E11** — SQL engine throughput and per-rule optimizer effect.
//!
//! Expected shape: predicate pushdown dominates on selective join queries
//! (it shrinks the nested-loop inputs); projection pruning matters on wide
//! tables; constant folding removes tautological filters entirely. All rules
//! compose without changing results (verified by the property tests).

use crate::{clock, row, Budget, Cell, Experiment};
use cda_dataframe::{Column, DataType, Field, Schema, Table};
use cda_sql::{execute_with_options, Catalog, ExecOptions, OptimizerRules};
use cda_testkit::rng::StdRng;

fn build_catalog(rows: usize, wide_cols: usize, seed: u64) -> Catalog {
    let mut rng = StdRng::seed_from_u64(seed);
    let groups = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"];
    let gs: Vec<&str> = (0..rows).map(|_| groups[rng.gen_range(0..groups.len())]).collect();
    let xs: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..1000)).collect();
    let mut fields = vec![Field::new("g", DataType::Str), Field::new("x", DataType::Int)];
    let mut columns = vec![Column::from_strs(&gs), Column::from_ints(&xs)];
    for c in 0..wide_cols {
        fields.push(Field::new(format!("pad{c}"), DataType::Float));
        let vals: Vec<f64> = (0..rows).map(|_| rng.gen_range(0.0..1.0)).collect();
        columns.push(Column::from_floats(&vals));
    }
    let t = Table::from_columns(Schema::new(fields), columns).unwrap();
    let mut catalog = Catalog::new();
    catalog.register("t", t).unwrap();
    let dim = Table::from_columns(
        Schema::new(vec![Field::new("g", DataType::Str), Field::new("label", DataType::Str)]),
        vec![
            Column::from_strs(&groups),
            Column::from_strs(&["A", "B", "C", "D", "E", "F", "G", "H", "I", "J"]),
        ],
    )
    .unwrap();
    catalog.register("dim", dim).unwrap();
    catalog
}

const QUERIES: [(&str, &str); 4] = [
    ("selective join", "SELECT t.g, SUM(t.x) AS s FROM t JOIN dim d ON t.g = d.g WHERE t.x > 950 AND d.label = 'A' GROUP BY t.g"),
    ("narrow project", "SELECT x FROM t WHERE x > 500"),
    ("tautology", "SELECT g, x FROM t WHERE 1 = 1 AND x >= 0"),
    ("group heavy", "SELECT g, COUNT(*) AS n, AVG(x) AS a FROM t GROUP BY g ORDER BY n DESC"),
];

/// Run E11.
pub fn run(_: &Budget) -> Experiment {
    let mut e =
        Experiment::new("E11", "SQL optimizer: per-rule contribution (6k rows x 14 cols + dim)");
    let catalog = build_catalog(6_000, 12, 3);
    let configs: [(&str, OptimizerRules); 5] = [
        ("none", OptimizerRules::none()),
        ("fold only", OptimizerRules { constant_folding: true, ..OptimizerRules::none() }),
        ("pushdown only", OptimizerRules { predicate_pushdown: true, ..OptimizerRules::none() }),
        ("prune only", OptimizerRules { projection_pruning: true, ..OptimizerRules::none() }),
        ("all", OptimizerRules::all()),
    ];
    let mut changed = Vec::new();
    for (qname, sql) in QUERIES {
        let mut t = crate::Table::new(
            format!("query: {qname}"),
            &["rules", "time", "join pairs", "rows materialized"],
        );
        let mut baseline = None;
        for (label, rules) in configs {
            let (result, elapsed) = clock(5, || {
                execute_with_options(&catalog, sql, ExecOptions { rules, track_lineage: true, vectorized: None })
                    .unwrap()
            });
            match &baseline {
                None => baseline = Some(result.table.num_rows()),
                Some(rows) if *rows != result.table.num_rows() => {
                    changed.push(format!("{qname} under {label}"));
                }
                Some(_) => {}
            }
            row!(t; label, elapsed, result.stats.join_pairs, result.stats.rows_materialized);
        }
        e.tables.push(t);
    }
    e.gate(
        "no rule set changes a query's row count",
        if changed.is_empty() { "0 changed".to_owned() } else { changed.join(", ") },
        changed.is_empty(),
    );

    let mut scaling = crate::Table::new(
        "throughput scaling (all rules, group-heavy query)",
        &["rows", "time", "rows/s"],
    );
    for rows in [2_000usize, 8_000, 32_000] {
        let catalog = build_catalog(rows, 2, 3);
        let (_, elapsed) = clock(3, || {
            execute_with_options(
                &catalog,
                "SELECT g, COUNT(*) AS n, AVG(x) AS a FROM t GROUP BY g",
                ExecOptions::default(),
            )
            .unwrap()
        });
        row!(scaling; rows, elapsed, Cell::TimeRatio(rows as f64 / elapsed.as_secs_f64()));
    }
    e.tables.push(scaling);
    e
}

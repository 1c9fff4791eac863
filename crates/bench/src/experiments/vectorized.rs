//! **E17** — the vectorized morsel-parallel engine vs the row-at-a-time
//! reference: throughput and byte-identity on the 8k-row benchmark
//! catalog.
//!
//! Two measurements:
//!
//! 1. **Differential certification** — a mixed corpus (filters,
//!    arithmetic, grouped aggregates, hash joins with residuals, DISTINCT)
//!    is executed on both engines at thread counts {1, 2, 8}; every
//!    vectorized result must be byte-identical (`Table: PartialEq`
//!    compares schema, data, validity, and lineage) to the reference.
//!    Mismatches are counted and any divergence prints the query.
//! 2. **Throughput** — the E11 aggregate and join queries timed on the
//!    row path vs the vectorized path (default morsel config). The speedup
//!    is printed as information; the one gate is the mismatch count.
//!
//! A fast budget reduces timing repetitions; the table stays at 8k rows.

use crate::{clock, row, Budget, Cell, Experiment};
use cda_dataframe::{Column, DataType, Field, Schema, Table};
use cda_sql::{execute_with_options, Catalog, ExecOptions, MorselConfig};
use cda_testkit::rng::StdRng;

fn catalog(rows: usize) -> Catalog {
    let mut rng = StdRng::seed_from_u64(3);
    let groups = ["a", "b", "c", "d", "e", "f", "g", "h"];
    let gs: Vec<&str> = (0..rows).map(|_| groups[rng.gen_range(0..groups.len())]).collect();
    let xs: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..1000)).collect();
    let ys: Vec<f64> = (0..rows).map(|_| rng.gen_range(0.0..1.0)).collect();
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
    let dim = Table::from_columns(
        Schema::new(vec![Field::new("g", DataType::Str), Field::new("label", DataType::Str)]),
        vec![
            Column::from_strs(&groups),
            Column::from_strs(&["A", "B", "C", "D", "E", "F", "G", "H"]),
        ],
    )
    .unwrap();
    c.register("dim", dim).unwrap();
    c
}

const AGG: &str =
    "SELECT g, COUNT(*) AS n, SUM(x) AS s, AVG(y) AS a FROM t GROUP BY g ORDER BY s DESC";
const JOIN: &str =
    "SELECT d.label, SUM(t.x) AS s FROM t JOIN dim d ON t.g = d.g WHERE t.x > 900 GROUP BY d.label";

fn corpus() -> Vec<&'static str> {
    vec![
        AGG,
        JOIN,
        "SELECT g, x + 1, y * 2.0 FROM t WHERE x % 7 = 0 AND y < 0.5 ORDER BY x, g LIMIT 200",
        "SELECT d.label, t.x FROM t LEFT JOIN dim d ON t.g = d.g AND t.x > 990 WHERE t.x > 980",
        "SELECT DISTINCT g FROM t WHERE y BETWEEN 0.25 AND 0.75 ORDER BY g",
        "SELECT g, MIN(x), MAX(x), COUNT(DISTINCT x) FROM t GROUP BY g ORDER BY g",
        "SELECT CASE WHEN x > 500 THEN 'hi' ELSE 'lo' END, COUNT(*) FROM t \
         GROUP BY CASE WHEN x > 500 THEN 'hi' ELSE 'lo' END",
    ]
}

/// Run E17.
pub fn run(budget: &Budget) -> Experiment {
    let reps = if budget.fast { 10 } else { 50 };
    let mut e =
        Experiment::new("E17", "vectorized morsel-parallel engine: speedup + byte-identity");
    let c = catalog(8_000);

    // ---- 1. differential certification across thread counts -------------
    let mut mismatched = crate::Table::new("mismatches", &["threads", "query"]);
    let mut checks = 0usize;
    for sql in corpus() {
        let reference = execute_with_options(&c, sql, ExecOptions::default()).unwrap();
        for threads in [1usize, 2, 8] {
            let cfg = MorselConfig::default().with_threads(threads);
            let v = execute_with_options(
                &c,
                sql,
                ExecOptions { vectorized: Some(cfg), ..ExecOptions::default() },
            )
            .unwrap();
            checks += 1;
            if v.table != reference.table {
                row!(mismatched; threads, sql);
            }
        }
    }
    let mismatches = mismatched.rows.len();
    let mut identity = crate::Table::new(
        "byte-identity vs the row-at-a-time reference (8k rows)",
        &["queries", "thread counts", "checks", "mismatches"],
    );
    row!(identity; corpus().len(), "1,2,8", checks, mismatches);
    e.tables.push(identity);
    if mismatches > 0 {
        e.tables.push(mismatched);
    }

    // ---- 2. throughput: row path vs vectorized path ----------------------
    let mut speed = crate::Table::new(
        format!("throughput ({reps} reps per cell)"),
        &["query", "row", "vectorized", "speedup"],
    );
    for (name, sql) in [("aggregate", AGG), ("join", JOIN)] {
        let run = |options| clock(reps, || execute_with_options(&c, sql, options)).1;
        let (row_path, vec_path) = (run(ExecOptions::default()), run(ExecOptions::vectorized()));
        row!(speed; name, row_path, vec_path,
            Cell::TimeRatio(row_path.as_secs_f64() / vec_path.as_secs_f64()));
    }
    e.tables.push(speed);

    e.gate("mismatches vs the row engine == 0", mismatches, mismatches == 0);
    e
}

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
//!    is printed as information; the exit status depends on the mismatch
//!    count alone.
//!
//! `CDA_BENCH_FAST=1` reduces repetitions (CI smoke mode); the table stays
//! at 8k rows.

use cda_bench::{f, header, row, timed_avg, us};
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

fn main() {
    let fast = std::env::var("CDA_BENCH_FAST").is_ok();
    let reps = if fast { 10 } else { 50 };
    header("E17", "vectorized morsel-parallel engine: speedup + byte-identity");
    let c = catalog(8_000);

    // ---- 1. differential certification across thread counts -------------
    println!("\n-- byte-identity vs the row-at-a-time reference (8k rows) --");
    let mut mismatches = 0usize;
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
                mismatches += 1;
                println!("MISMATCH at threads={threads}: {sql}");
            }
        }
    }
    row(&["queries".into(), "thread counts".into(), "checks".into(), "mismatches".into()]);
    row(&[
        corpus().len().to_string(),
        "1,2,8".to_string(),
        checks.to_string(),
        mismatches.to_string(),
    ]);

    // ---- 2. throughput: row path vs vectorized path ----------------------
    println!("\n-- throughput ({reps} reps per cell) --");
    let vec_opts = ExecOptions::vectorized();
    let (_, agg_row) = timed_avg(reps, || execute_with_options(&c, AGG, ExecOptions::default()));
    let (_, agg_vec) = timed_avg(reps, || execute_with_options(&c, AGG, vec_opts));
    let (_, join_row) = timed_avg(reps, || execute_with_options(&c, JOIN, ExecOptions::default()));
    let (_, join_vec) = timed_avg(reps, || execute_with_options(&c, JOIN, vec_opts));
    let agg_speedup = agg_row.as_secs_f64() / agg_vec.as_secs_f64();
    let join_speedup = join_row.as_secs_f64() / join_vec.as_secs_f64();
    row(&["query".into(), "row".into(), "vectorized".into(), "speedup".into()]);
    row(&["aggregate".into(), us(agg_row), us(agg_vec), format!("{}x", f(agg_speedup))]);
    row(&["join".into(), us(join_row), us(join_vec), format!("{}x", f(join_speedup))]);

    println!("\nacceptance: mismatches {mismatches} (==0: {})", mismatches == 0);
    if mismatches != 0 {
        std::process::exit(1);
    }
}

//! Differential certification of the vectorized morsel-parallel engine
//! (CI gate, experiment E17's correctness half).
//!
//! The row-at-a-time interpreter in `cda_sql::exec` is the reference oracle:
//! for every query, catalog, morsel size, and thread count, the vectorized
//! path must produce a **byte-identical** `Table` (schema, values, row
//! order, lineage, canonical null placeholders — `Table: PartialEq` compares
//! all of them), the same plan, and the same `rows_scanned` /
//! `rows_materialized` counters. `join_pairs` may only shrink (hash joins
//! probe buckets instead of the full cross product). Queries that fail at
//! runtime (division by zero in a fallible predicate) must fail on both
//! paths.
//!
//! Failures print the query, the scheduler configuration, and both tables —
//! the same minimized-counterexample discipline as `cda-sql/tests/certify.rs`
//! (property-test failures additionally shrink the generated table).

use cda_dataframe::{Column, DataType, Field, Schema, Table, Value};
use cda_sql::{execute_with_options, Catalog, ExecOptions, MorselConfig};
use cda_testkit::prelude::*;
use cda_testkit::prop as proptest;

/// A BOOL column with NULLs.
fn opt_bools(values: &[Option<bool>]) -> Column {
    let values: Vec<Value> = values.iter().map(|v| v.map_or(Value::Null, Value::Bool)).collect();
    Column::from_values(DataType::Bool, &values).expect("bool column")
}

/// A TIMESTAMP column with NULLs.
fn opt_timestamps(values: &[Option<i64>]) -> Column {
    let values: Vec<Value> =
        values.iter().map(|v| v.map_or(Value::Null, Value::Timestamp)).collect();
    Column::from_values(DataType::Timestamp, &values).expect("timestamp column")
}

/// The certify-corpus catalog: NULL-bearing ints on both tables so 3VL
/// filters, NULL group keys, and LEFT-join padding are all exercised; `emp`
/// also carries a NULL-bearing BOOL and TIMESTAMP column.
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let emp = Table::from_columns(
        Schema::new(vec![
            Field::new("canton", DataType::Str),
            Field::new("sector", DataType::Str),
            Field::new("jobs", DataType::Int),
            Field::new("rate", DataType::Float),
            Field::new("active", DataType::Bool),
            Field::new("since", DataType::Timestamp),
        ]),
        vec![
            Column::from_strs(&["ZH", "BE", "ZH", "GE", "BE", "ZH"]),
            Column::from_strs(&["it", "it", "finance", "health", "health", "it"]),
            Column::from_opt_ints(&[Some(120), Some(0), Some(340), None, Some(75), Some(18)]),
            Column::from_floats(&[1.5, 0.0, 2.25, 3.5, 0.5, 1.0]),
            opt_bools(&[Some(true), Some(false), None, Some(true), Some(false), Some(true)]),
            opt_timestamps(&[
                Some(1_600_000_000),
                None,
                Some(1_600_086_400),
                Some(1_599_000_000),
                Some(1_600_000_000),
                None,
            ]),
        ],
    )
    .expect("emp table");
    let regions = Table::from_columns(
        Schema::new(vec![
            Field::new("canton", DataType::Str),
            Field::new("population", DataType::Int),
        ]),
        vec![
            Column::from_strs(&["ZH", "BE", "GE", "VD"]),
            Column::from_opt_ints(&[Some(1_500_000), Some(1_000_000), None, Some(800_000)]),
        ],
    )
    .expect("regions table");
    c.register("emp", emp).expect("register emp");
    c.register("regions", regions).expect("register regions");
    c
}

/// The 20-query optimizer-certification corpus plus vectorization-specific
/// shapes: 3VL connectives, NULL literals and NULL-poisoned IN lists, string
/// concat, hash joins with residual conjuncts, NL fallbacks, COUNT(DISTINCT),
/// STDDEV, and a runtime-fallible predicate (division by zero on both paths).
fn corpus() -> Vec<&'static str> {
    vec![
        // -- the certify.rs corpus --
        "SELECT canton FROM emp WHERE 1 = 1",
        "SELECT canton FROM emp WHERE 2 + 3 > 4",
        "SELECT jobs + 2 * 3 FROM emp",
        "SELECT canton FROM emp WHERE jobs > 10 AND 1 = 1",
        "SELECT e.canton FROM emp e JOIN regions r ON e.canton = r.canton WHERE e.jobs > 50 AND r.population > 900000",
        "SELECT e.canton FROM emp e JOIN regions r ON 1 = 1 WHERE e.canton = r.canton",
        "SELECT e.canton FROM emp e LEFT JOIN regions r ON e.canton = r.canton WHERE r.population IS NULL",
        "SELECT e.canton FROM emp e JOIN regions r ON e.canton = r.canton WHERE 100 / e.jobs > 1 AND r.population > 0",
        "SELECT e.canton FROM emp e JOIN regions r ON e.canton = r.canton WHERE e.jobs > 10 AND e.rate < 2.0 AND r.population > 500000",
        "SELECT canton FROM emp",
        "SELECT canton FROM emp WHERE jobs > 20",
        "SELECT sector, SUM(jobs) FROM emp GROUP BY sector",
        "SELECT e.sector FROM emp e JOIN regions r ON e.canton = r.canton WHERE r.population > 0",
        "SELECT DISTINCT sector FROM emp ORDER BY sector",
        "SELECT canton FROM emp WHERE sector IN ('it', 'health') ORDER BY canton LIMIT 3",
        "SELECT canton FROM emp WHERE jobs BETWEEN 10 AND 200",
        "SELECT canton FROM emp WHERE sector LIKE 'h%'",
        "SELECT CASE WHEN jobs > 100 THEN 'big' ELSE 'small' END FROM emp",
        "SELECT COUNT(*), AVG(rate) FROM emp",
        "SELECT canton, MAX(jobs) FROM emp WHERE rate > 0.1 GROUP BY canton ORDER BY canton LIMIT 2 OFFSET 1",
        // -- 3VL / NULL edge shapes --
        "SELECT canton FROM emp WHERE jobs > 50 OR rate < 1.0",
        "SELECT canton FROM emp WHERE NOT (jobs > 50)",
        "SELECT canton FROM emp WHERE jobs = NULL",
        "SELECT canton FROM emp WHERE jobs IN (120, NULL)",
        "SELECT canton FROM emp WHERE jobs NOT IN (120, 18)",
        "SELECT canton FROM emp WHERE jobs NOT BETWEEN 10 AND 200",
        "SELECT canton FROM emp WHERE jobs IS NOT NULL AND (rate > 1.0 OR sector = 'it')",
        "SELECT jobs, COUNT(*) FROM emp GROUP BY jobs",
        "SELECT CASE WHEN jobs > 100 THEN 'big' WHEN jobs > 10 THEN 'mid' END FROM emp",
        // -- expression shapes --
        "SELECT canton + sector FROM emp",
        "SELECT -rate, jobs % 7 FROM emp",
        "SELECT canton FROM emp WHERE sector LIKE '_i%'",
        "SELECT 7 / 2, 6 / 2, 7.0 / 2 FROM emp LIMIT 1",
        // -- join shapes: hash, hash+residual, LEFT hash, NL fallback --
        "SELECT e.canton, r.population FROM emp e JOIN regions r ON e.canton = r.canton AND e.jobs > 50",
        "SELECT e.canton, r.population FROM emp e LEFT JOIN regions r ON e.canton = r.canton AND r.population > 900000",
        "SELECT e.canton, r.canton FROM emp e JOIN regions r ON e.canton < r.canton",
        "SELECT e.canton, r.population FROM emp e LEFT JOIN regions r ON e.jobs = r.population",
        // -- aggregates --
        "SELECT COUNT(DISTINCT canton), COUNT(jobs), STDDEV(rate) FROM emp",
        "SELECT MIN(canton), MAX(sector), SUM(rate), AVG(jobs) FROM emp",
        "SELECT sector, COUNT(DISTINCT canton) FROM emp GROUP BY sector ORDER BY sector",
        // -- typed filter leaves and folds: aggregate over a filter's selection --
        "SELECT COUNT(*), SUM(jobs), MIN(rate), MAX(canton), AVG(jobs), STDDEV(rate) FROM emp WHERE canton = 'XX'",
        "SELECT sector, SUM(jobs), MIN(jobs), STDDEV(jobs), COUNT(jobs) FROM emp WHERE canton = 'GE' GROUP BY sector",
        "SELECT canton, COUNT(jobs), AVG(rate) FROM emp WHERE 50 < jobs GROUP BY canton",
        "SELECT MIN(jobs), MAX(rate), SUM(jobs), AVG(rate), STDDEV(jobs) FROM emp WHERE rate >= 1.0",
        "SELECT COUNT(*), MAX(sector) FROM emp WHERE jobs <> 120",
        "SELECT canton FROM emp WHERE canton < 'GE'",
        "SELECT COUNT(*) FROM emp WHERE canton = 1",
        "SELECT SUM(jobs + 1), COUNT(DISTINCT sector) FROM emp WHERE rate > 0.5",
        // -- typed filter leaves on every column type, with NULLs --
        "SELECT canton FROM emp WHERE active = TRUE",
        "SELECT canton, jobs FROM emp WHERE FALSE <> active",
        "SELECT canton FROM emp WHERE NOT active",
        "SELECT canton, since FROM emp WHERE since >= 1600000000",
        "SELECT canton FROM emp WHERE since < 1600000000 OR active = FALSE",
        "SELECT canton FROM emp WHERE since IS NULL",
        "SELECT canton FROM emp WHERE active IS NOT NULL AND jobs IS NULL",
        "SELECT canton FROM emp WHERE rate = 1.5 OR rate > 3",
        "SELECT canton FROM emp WHERE jobs = 340.0",
        "SELECT canton FROM emp WHERE NOT (jobs < 100 AND canton <> 'BE')",
        // -- IN and BETWEEN over literals --
        "SELECT sector FROM emp WHERE canton IN ('ZH', 'GE', NULL)",
        "SELECT sector FROM emp WHERE canton NOT IN ('ZH', 'XX')",
        "SELECT sector FROM emp WHERE canton NOT IN ('ZH', NULL)",
        "SELECT COUNT(*) FROM emp WHERE rate IN (1.5, 2, 0)",
        "SELECT canton FROM emp WHERE active IN (TRUE, NULL)",
        "SELECT canton FROM emp WHERE since IN (1600000000, 1599000000)",
        "SELECT canton FROM emp WHERE rate BETWEEN 0.5 AND 2.25 OR canton = 'GE'",
        "SELECT canton FROM emp WHERE NOT (canton BETWEEN 'BE' AND 'GE')",
        "SELECT canton FROM emp WHERE sector BETWEEN 'a' AND 'i'",
        "SELECT canton FROM emp WHERE since BETWEEN 1599000000 AND 1600000000",
        "SELECT canton FROM emp WHERE jobs BETWEEN NULL AND 200",
        // -- aggregate over a filter: folds per type, all-NULL groups --
        "SELECT COUNT(*), MIN(since), MAX(since) FROM emp WHERE since BETWEEN 1599000000 AND 1600000000",
        "SELECT COUNT(*), MIN(active), MAX(active) FROM emp WHERE active = TRUE OR since < 1600000000",
        "SELECT active, COUNT(*), SUM(jobs) FROM emp WHERE jobs IS NOT NULL GROUP BY active",
        "SELECT since, COUNT(*), MAX(rate) FROM emp WHERE canton <> 'BE' GROUP BY since",
        "SELECT MIN(jobs), MAX(jobs), SUM(jobs), AVG(jobs), STDDEV(jobs), COUNT(jobs) FROM emp WHERE jobs IS NULL",
        "SELECT canton, SUM(jobs), MIN(jobs), AVG(jobs) FROM emp WHERE jobs IS NULL OR canton = 'BE' GROUP BY canton",
        "SELECT sector, MIN(since), COUNT(since) FROM emp WHERE canton IN ('ZH', 'BE') GROUP BY sector",
        // -- runtime-fallible: must error on BOTH paths --
        "SELECT 100 / jobs FROM emp",
        "SELECT canton FROM emp WHERE 100 % jobs > 0",
    ]
}

/// Assert the vectorized path matches the row-at-a-time oracle byte for byte
/// under the given scheduler config; print a counterexample on mismatch.
fn assert_differential(catalog: &Catalog, sql: &str, cfg: MorselConfig) {
    let row = execute_with_options(catalog, sql, ExecOptions::default());
    let vec = execute_with_options(
        catalog,
        sql,
        ExecOptions { vectorized: Some(cfg), ..ExecOptions::default() },
    );
    match (row, vec) {
        (Ok(r), Ok(v)) => {
            if r.table != v.table {
                eprintln!("DIVERGED: `{sql}` with {cfg:?}");
                eprintln!("row-at-a-time: {:#?}", r.table);
                eprintln!("vectorized:    {:#?}", v.table);
                panic!("vectorized result differs from reference (see tables above)");
            }
            assert_eq!(r.plan, v.plan, "plans must match for `{sql}`");
            assert_eq!(
                r.stats.rows_scanned, v.stats.rows_scanned,
                "rows_scanned differs for `{sql}` with {cfg:?}"
            );
            assert_eq!(
                r.stats.rows_materialized, v.stats.rows_materialized,
                "rows_materialized differs for `{sql}` with {cfg:?}"
            );
            assert!(
                v.stats.join_pairs <= r.stats.join_pairs,
                "hash join must not consider more pairs than the nested loop \
                 for `{sql}`: vectorized {} > row {}",
                v.stats.join_pairs,
                r.stats.join_pairs
            );
        }
        (Err(_), Err(_)) => {} // fallible query: both paths must fail, and did
        (Ok(_), Err(e)) => {
            panic!("vectorized errored but reference succeeded for `{sql}` with {cfg:?}: {e}")
        }
        (Err(e), Ok(_)) => {
            panic!("reference errored but vectorized succeeded for `{sql}` with {cfg:?}: {e}")
        }
    }
}

/// The scheduler configurations every corpus query is certified under:
/// single-row morsels, a mid-size partition with 2 workers, and
/// bigger-than-table morsels with 8 workers.
fn configs() -> Vec<MorselConfig> {
    vec![
        MorselConfig::default(),
        MorselConfig::default().with_morsel_rows(1).with_threads(1),
        MorselConfig::default().with_morsel_rows(2).with_threads(2),
        MorselConfig::default().with_morsel_rows(64).with_threads(8),
        MorselConfig::default().with_morsel_rows(4096).with_threads(8),
    ]
}

#[test]
fn vectorized_engine_matches_reference_on_certify_corpus() {
    let catalog = catalog();
    for sql in corpus() {
        for cfg in configs() {
            assert_differential(&catalog, sql, cfg);
        }
    }
}

#[test]
fn vectorized_engine_matches_reference_on_empty_tables() {
    let mut c = Catalog::new();
    let emp = Table::from_columns(
        Schema::new(vec![
            Field::new("canton", DataType::Str),
            Field::new("sector", DataType::Str),
            Field::new("jobs", DataType::Int),
            Field::new("rate", DataType::Float),
            Field::new("active", DataType::Bool),
            Field::new("since", DataType::Timestamp),
        ]),
        vec![
            Column::from_strs(&[]),
            Column::from_strs(&[]),
            Column::from_ints(&[]),
            Column::from_floats(&[]),
            opt_bools(&[]),
            opt_timestamps(&[]),
        ],
    )
    .expect("empty emp");
    let regions = Table::from_columns(
        Schema::new(vec![
            Field::new("canton", DataType::Str),
            Field::new("population", DataType::Int),
        ]),
        vec![Column::from_strs(&[]), Column::from_ints(&[])],
    )
    .expect("empty regions");
    c.register("emp", emp).expect("register emp");
    c.register("regions", regions).expect("register regions");
    for sql in corpus() {
        for cfg in [MorselConfig::default(), MorselConfig::default().with_morsel_rows(1)] {
            assert_differential(&c, sql, cfg);
        }
    }
}

#[test]
fn vectorized_engine_matches_reference_on_single_row_tables() {
    let mut c = Catalog::new();
    let emp = Table::from_columns(
        Schema::new(vec![
            Field::new("canton", DataType::Str),
            Field::new("sector", DataType::Str),
            Field::new("jobs", DataType::Int),
            Field::new("rate", DataType::Float),
            Field::new("active", DataType::Bool),
            Field::new("since", DataType::Timestamp),
        ]),
        vec![
            Column::from_strs(&["ZH"]),
            Column::from_strs(&["it"]),
            Column::from_opt_ints(&[None]),
            Column::from_floats(&[0.0]),
            opt_bools(&[None]),
            opt_timestamps(&[Some(1_600_000_000)]),
        ],
    )
    .expect("single-row emp");
    let regions = Table::from_columns(
        Schema::new(vec![
            Field::new("canton", DataType::Str),
            Field::new("population", DataType::Int),
        ]),
        vec![Column::from_strs(&["ZH"]), Column::from_opt_ints(&[None])],
    )
    .expect("single-row regions");
    c.register("emp", emp).expect("register emp");
    c.register("regions", regions).expect("register regions");
    for sql in corpus() {
        assert_differential(&c, sql, MorselConfig::default().with_morsel_rows(1).with_threads(8));
    }
}

/// E18's certification half: the absint sanitizer accepts the full
/// differential corpus — every table either engine materializes, under every
/// scheduler configuration, lies inside the static domain the abstract
/// interpreter computed for its plan node. Zero domain violations, and the
/// runtime-fallible queries still fail with their *own* error on both paths.
#[test]
fn absint_sanitizer_accepts_certify_corpus_on_both_engines() {
    use cda_analyzer::{domain_tree, Statistics};
    use cda_sql::exec::{execute_plan, execute_plan_checked};
    use cda_sql::{optimizer, parser, planner, OptimizerRules};

    let catalog = catalog();
    let stats = Statistics::from_catalog(&catalog);
    for sql in corpus() {
        let select = parser::parse(sql).expect(sql);
        let plan = optimizer::optimize(
            planner::plan_select(&catalog, &select).expect(sql),
            OptimizerRules::all(),
        );
        // Stats-grounded and stats-free monitors must both hold.
        for tree in [domain_tree(&plan, Some(&stats)), domain_tree(&plan, None)] {
            let mut opts_list = vec![ExecOptions::default()];
            opts_list.extend(configs().into_iter().map(|cfg| ExecOptions {
                vectorized: Some(cfg),
                ..ExecOptions::default()
            }));
            for opts in opts_list {
                let plain = execute_plan(&catalog, &plan, opts);
                let checked = execute_plan_checked(&catalog, &plan, opts, Some(&tree));
                match (plain, checked) {
                    (Ok(p), Ok(c)) => {
                        assert_eq!(p.table, c.table, "sanitizer changed `{sql}`");
                        assert_eq!(p.stats, c.stats, "sanitizer changed stats of `{sql}`");
                    }
                    (Err(_), Err(e)) => assert!(
                        !e.to_string().contains("absint domain violation"),
                        "domain violation for `{sql}`: {e}"
                    ),
                    (Ok(_), Err(e)) => panic!("sanitizer broke `{sql}`: {e}"),
                    (Err(e), Ok(_)) => panic!("sanitizer swallowed the error of `{sql}`: {e}"),
                }
            }
        }
    }
}

// ------------------------------------------------------------ property tests

fn table_strategy() -> Gen<Table> {
    // group (string), x (int with nulls), y (float with nulls): the null
    // density is high on purpose so 3VL branches dominate the search space.
    (1usize..48).prop_flat_map(|n| {
        (
            proptest::collection::vec("[a-c]", n..=n),
            proptest::collection::vec(proptest::option::of(-50i64..50), n..=n),
            proptest::collection::vec(proptest::option::of(-10.0f64..10.0), n..=n),
        )
            .prop_map(|(groups, xs, ys)| {
                let schema = Schema::new(vec![
                    Field::new("g", DataType::Str),
                    Field::new("x", DataType::Int),
                    Field::new("y", DataType::Float),
                ]);
                let gs: Vec<&str> = groups.iter().map(String::as_str).collect();
                Table::from_columns(
                    schema,
                    vec![
                        Column::from_strs(&gs),
                        Column::from_opt_ints(&xs),
                        Column::from_opt_floats(&ys),
                    ],
                )
                .expect("consistent columns")
            })
    })
}

/// Query templates over the generated (g, x, y) table; `{p}` is a pivot.
fn generated_queries(pivot: i64) -> Vec<String> {
    vec![
        format!("SELECT g, x, y FROM t WHERE x >= {pivot}"),
        format!("SELECT g, COUNT(*) AS n, SUM(x) AS sx, AVG(y) AS ay FROM t WHERE x >= {pivot} GROUP BY g ORDER BY g"),
        format!("SELECT g, x + 1, y * 2.0 FROM t WHERE x > {pivot} OR y IS NULL"),
        "SELECT DISTINCT g FROM t ORDER BY g".to_string(),
        "SELECT x, COUNT(*) FROM t GROUP BY x".to_string(),
        format!("SELECT a.g, b.x FROM t a JOIN t b ON a.g = b.g WHERE b.x >= {pivot} LIMIT 17"),
        "SELECT a.g, b.x FROM t a LEFT JOIN t b ON a.x = b.x ORDER BY a.g LIMIT 23".to_string(),
        "SELECT MIN(x), MAX(y), COUNT(DISTINCT g), STDDEV(y) FROM t".to_string(),
        format!("SELECT CASE WHEN x > {pivot} THEN g ELSE 'lo' END FROM t"),
        format!("SELECT g FROM t WHERE x BETWEEN {pivot} AND {}", pivot.saturating_add(20)),
        format!("SELECT MIN(x), MAX(y), SUM(x), AVG(y), STDDEV(x), COUNT(y) FROM t WHERE x < {pivot}"),
        format!("SELECT g, SUM(y), MIN(x), STDDEV(y) FROM t WHERE y > {pivot}.5 GROUP BY g"),
        "SELECT SUM(y), AVG(x), MIN(g), MAX(g) FROM t WHERE g = 'b'".to_string(),
        format!(
            "SELECT g, COUNT(*), SUM(x) FROM t WHERE x IN ({pivot}, {}, NULL) OR y IS NULL GROUP BY g",
            pivot.saturating_add(1)
        ),
        format!(
            "SELECT COUNT(*), SUM(x), MIN(y), MAX(g) FROM t WHERE x NOT BETWEEN {pivot} AND {} AND g <> 'a'",
            pivot.saturating_add(10)
        ),
        "SELECT g, MIN(y), MAX(y), AVG(x), STDDEV(x) FROM t WHERE x IS NOT NULL GROUP BY g".to_string(),
        format!("SELECT COUNT(*), STDDEV(y) FROM t WHERE NOT (y < {pivot}.25) AND g IN ('a', 'c')"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Vectorized == row-at-a-time on random NULL-dense tables for every
    /// query shape, across morsel sizes {1, 64, 4096} and threads {1, 2, 8}.
    #[test]
    fn vectorized_matches_reference_on_generated_tables(t in table_strategy(), pivot in -50i64..50) {
        let mut catalog = Catalog::new();
        catalog.register("t", t).unwrap();
        let cfgs = [
            MorselConfig::default().with_morsel_rows(1).with_threads(2),
            MorselConfig::default().with_morsel_rows(64).with_threads(1),
            MorselConfig::default().with_morsel_rows(4096).with_threads(8),
        ];
        for sql in generated_queries(pivot) {
            for cfg in cfgs {
                assert_differential(&catalog, &sql, cfg);
            }
        }
    }
}

/// Rows of the scaled fact table below: the size of the benchmark's
/// `chat_scan` fact table in release builds, where the engines are measured;
/// smaller in debug, where the row engine is slow.
const SCALED_ROWS: usize = if cfg!(debug_assertions) { 4_096 } else { 65_536 };

/// The scan → filter → aggregate shapes of consistency UQ's candidates and
/// the losslessness replay, over a seeded fact table of `SCALED_ROWS` rows
/// (NULL-bearing INT and FLOAT measures), under the default scheduler and
/// under many small morsels on 2 workers, so groups straddle morsels.
#[test]
fn vectorized_engine_matches_reference_on_a_scaled_fact_table() {
    let mut rng = StdRng::seed_from_u64(0x5CA1ED);
    let cantons = ["ZH", "BE", "GE", "VD", "TI", "BS"];
    let types = ["full-time", "part-time", "apprentice"];
    let (mut cs, mut ts, mut years, mut emps, mut shares) = (vec![], vec![], vec![], vec![], vec![]);
    for _ in 0..SCALED_ROWS {
        cs.push(cantons[rng.gen_range(0..cantons.len())]);
        ts.push(types[rng.gen_range(0..types.len())]);
        years.push(rng.gen_range(2000i64..2025));
        emps.push(rng.gen_bool(0.95).then(|| rng.gen_range(10_000i64..80_000)));
        shares.push(rng.gen_bool(0.9).then(|| rng.gen_range(0.0f64..1.0)));
    }
    let fact = Table::from_columns(
        Schema::new(vec![
            Field::new("canton", DataType::Str),
            Field::new("type", DataType::Str),
            Field::new("year", DataType::Int),
            Field::new("employees", DataType::Int),
            Field::new("share", DataType::Float),
        ]),
        vec![
            Column::from_strs(&cs),
            Column::from_strs(&ts),
            Column::from_ints(&years),
            Column::from_opt_ints(&emps),
            Column::from_opt_floats(&shares),
        ],
    )
    .expect("fact table");
    let mut catalog = Catalog::new();
    catalog.register("f", fact).expect("register f");
    let queries = [
        "SELECT MIN(employees) FROM f",
        "SELECT SUM(employees), AVG(share), STDDEV(employees), MAX(share), COUNT(*) FROM f WHERE canton = 'ZH'",
        "SELECT canton, SUM(employees), STDDEV(share) FROM f GROUP BY canton",
        "SELECT type, AVG(employees), MIN(canton) FROM f WHERE year >= 2010 AND share IS NOT NULL GROUP BY type",
        "SELECT year, MAX(employees), COUNT(share) FROM f WHERE canton IN ('GE', 'TI') GROUP BY year ORDER BY year",
        "SELECT COUNT(*), SUM(share) FROM f WHERE year BETWEEN 2030 AND 2040",
        "SELECT canton, type, SUM(employees) FROM f WHERE employees > 40000 OR share < 0.1 GROUP BY canton, type",
        "SELECT canton, employees FROM f WHERE year = 2012 AND type <> 'apprentice' ORDER BY employees LIMIT 20",
    ];
    for sql in queries {
        for cfg in [MorselConfig::default(), MorselConfig::default().with_morsel_rows(1000).with_threads(2)] {
            assert_differential(&catalog, sql, cfg);
        }
    }
}

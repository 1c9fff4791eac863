//! Property suite for static effect analysis (`cda_analyzer::effects`) and
//! the runtime effect sanitizer (DESIGN.md §16, experiment E21).
//!
//! The laws certified here:
//!
//! 1. **Write-set soundness** — for every corpus DML statement and for
//!    property-generated DML over random NULL-dense tables, the columns the
//!    executor *actually* writes (`DmlResult::touched`) are a subset of the
//!    static write set, on both engines. Consequently the statically
//!    derived [`WriteGuard`] accepts every honest execution: the effect
//!    sanitizer has zero false positives.
//! 2. **Affected-row bracketing** — the abstract interpreter's
//!    `affected_rows` bounds bracket the runtime `affected` count, and a
//!    `provable_noop` verdict really means the statement executes and
//!    touches zero rows — checked on statements that fail as well.
//! 3. **Invalidation completeness** — the no-stale-serve law behind precise
//!    cache invalidation: for every (write, read) pair in the corpus, if
//!    committing the write changes the read's answer, then the write's
//!    effect set invalidates the read's plan read set. (Precision — reads
//!    that *survive* invalidation — is covered table-by-table in the unit
//!    suite and end-to-end in `cda-integration/tests/storage.rs`.)
//! 4. **Zero false rejects** — the DML soundness gate (`A019`–`A023`)
//!    passes every valid statement of the gold workload: nothing the
//!    executor would run correctly is doomed by the analyzer.
//! 5. **Mutation test** — deliberately-broken guards (wrong table, missing
//!    column) are caught by the sanitizer on both engines, so the
//!    cross-check is live, not vacuously green.

// Commits writes to a scratch catalog directly: the mutation gate lives in cda-core.
#![allow(clippy::disallowed_methods)]

use cda_analyzer::{plan_reads, statement_effects, Analyzer, EffectSet, Statistics};
use cda_dataframe::{Column, DataType, Field, Schema, Table};
use cda_sql::parser::parse_statement;
use cda_sql::{execute, execute_dml, execute_dml_checked, plan_dml, Catalog, ExecOptions, WriteGuard};
use cda_testkit::prelude::*;
use cda_testkit::prop as proptest;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let emp = Table::from_columns(
        Schema::new(vec![
            Field::new("canton", DataType::Str),
            Field::new("sector", DataType::Str),
            Field::new("jobs", DataType::Int),
            Field::new("rate", DataType::Float),
        ]),
        vec![
            Column::from_strs(&["ZH", "BE", "ZH", "GE", "BE", "ZH"]),
            Column::from_strs(&["it", "it", "finance", "health", "health", "it"]),
            Column::from_opt_ints(&[Some(120), Some(0), Some(340), None, Some(75), Some(18)]),
            Column::from_floats(&[1.5, 0.0, 2.25, 3.5, 0.5, 1.0]),
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

/// The DML gold workload: every INSERT/UPDATE/DELETE shape the planner
/// supports, including NULL-matching predicates, multi-column SETs,
/// WHERE-less statements, and provably-empty filters.
fn dml_corpus() -> Vec<&'static str> {
    vec![
        "INSERT INTO emp (canton, sector, jobs, rate) VALUES ('TI', 'it', 40, 1.25)",
        "INSERT INTO emp (canton, jobs) VALUES ('SG', 7)",
        "UPDATE emp SET jobs = jobs + 10 WHERE canton = 'ZH'",
        "UPDATE emp SET rate = rate * 2.0, jobs = 0 WHERE sector = 'health'",
        "UPDATE emp SET jobs = 99",
        "UPDATE emp SET rate = 1.0 WHERE 1 = 2",
        "UPDATE emp SET jobs = 5 WHERE jobs IS NULL",
        "UPDATE emp SET jobs = jobs % 7 WHERE jobs > 20 AND rate < 3.0",
        "DELETE FROM emp WHERE jobs < 20",
        "DELETE FROM emp WHERE canton = 'GE' AND sector = 'health'",
        "DELETE FROM emp WHERE 1 = 2",
        "UPDATE regions SET population = population + 1 WHERE canton = 'ZH'",
        "DELETE FROM regions WHERE population IS NULL",
    ]
}

/// Reads whose cached answers the invalidation layer must protect.
fn read_corpus() -> Vec<&'static str> {
    vec![
        "SELECT canton FROM emp",
        "SELECT SUM(jobs) FROM emp",
        "SELECT sector, AVG(rate) FROM emp GROUP BY sector ORDER BY sector",
        "SELECT canton FROM emp WHERE jobs > 50",
        "SELECT population FROM regions",
        "SELECT COUNT(*) FROM regions WHERE population > 900000",
        "SELECT e.canton FROM emp e JOIN regions r ON e.canton = r.canton",
    ]
}

fn effects_of(c: &Catalog, stats: Option<&Statistics>, sql: &str) -> EffectSet {
    statement_effects(c, &parse_statement(sql).expect(sql), stats).expect(sql)
}

/// Laws 1 + 2 for one statement on one engine; returns the affected count
/// so callers can cross-check engines against each other.
fn assert_write_sound(c: &Catalog, stats: Option<&Statistics>, sql: &str, opts: ExecOptions) -> u64 {
    let effects = effects_of(c, stats, sql);
    let plan = plan_dml(c, &parse_statement(sql).expect(sql)).expect(sql);
    let free = execute_dml(c, &plan, opts).expect(sql);

    // Law 1: the runtime touched set is inside the static write set, on the
    // one table the analysis says is written.
    assert_eq!(effects.writes.len(), 1, "{sql}: DML writes exactly one table");
    let written = effects
        .writes
        .get(&free.table)
        .unwrap_or_else(|| panic!("{sql}: runtime table {} not in static write set", free.table));
    for col in &free.touched {
        assert!(written.contains(col), "{sql}: touched column {col} escapes the write set");
    }

    // …so the statically derived guard accepts the honest execution.
    let guard = effects.write_guard().expect("single-table write has a guard");
    let guarded = execute_dml_checked(c, &plan, opts, Some(&guard)).expect(sql);
    assert_eq!(guarded.affected, free.affected, "{sql}: guard changed the outcome");
    assert_eq!(guarded.touched, free.touched, "{sql}: guard changed the touched set");

    // Law 2: the static row bounds bracket the runtime count.
    if let Some((lo, hi)) = effects.affected_rows {
        assert!(
            lo <= free.affected && free.affected <= hi,
            "{sql}: affected {} outside static bounds [{lo}, {hi}]",
            free.affected
        );
    }
    free.affected
}

/// Law 2's no-op half, for any statement: a `provable_noop` verdict means
/// the statement binds, executes on both engines, and touches no row. A
/// no-op verdict on a statement that then fails violates the law; only a
/// statement the analysis gives no verdict on is exempt.
fn assert_noop_sound(c: &Catalog, stats: Option<&Statistics>, sql: &str) {
    let stmt = parse_statement(sql).expect(sql);
    let Ok(effects) = statement_effects(c, &stmt, stats) else { return };
    if !effects.provable_noop {
        return;
    }
    let plan =
        plan_dml(c, &stmt).unwrap_or_else(|e| panic!("{sql}: provable noop does not bind: {e}"));
    for opts in [ExecOptions::default(), ExecOptions::vectorized()] {
        match execute_dml(c, &plan, opts) {
            Ok(r) => assert_eq!(r.affected, 0, "{sql}: provable noop wrote rows"),
            Err(e) => panic!("{sql}: provable noop fails to execute: {e}"),
        }
    }
}

/// Writes whose WHERE clause misuses a type: LIKE over a number, a text
/// or number condition. None of them may be certified a no-op and then fail.
fn mistyped_dml() -> Vec<&'static str> {
    vec![
        "DELETE FROM emp WHERE rate LIKE 'a%'",
        "UPDATE emp SET jobs = 1 WHERE rate LIKE 'a%'",
        "DELETE FROM emp WHERE canton",
        "UPDATE emp SET jobs = 1 WHERE jobs",
        "DELETE FROM emp WHERE NOT canton",
    ]
}

#[test]
fn provable_noops_execute_and_touch_nothing() {
    let c = catalog();
    let stats = Statistics::from_catalog(&c);
    let noops = dml_corpus()
        .into_iter()
        .filter(|sql| effects_of(&c, Some(&stats), sql).provable_noop)
        .count();
    assert!(noops >= 2, "the corpus must reach the no-op verdict ({noops})");
    for sql in dml_corpus().into_iter().chain(mistyped_dml()) {
        assert_noop_sound(&c, Some(&stats), sql);
        assert_noop_sound(&c, None, sql);
    }
}

#[test]
fn corpus_writes_stay_inside_static_write_sets_on_both_engines() {
    let c = catalog();
    let stats = Statistics::from_catalog(&c);
    // Row reference, default vectorized, and off-default morsel shapes.
    let engines = [
        ExecOptions::default(),
        ExecOptions::vectorized(),
        ExecOptions {
            vectorized: Some(cda_sql::MorselConfig { morsel_rows: 1, threads: 2 }),
            ..ExecOptions::default()
        },
        ExecOptions {
            vectorized: Some(cda_sql::MorselConfig { morsel_rows: 4096, threads: 8 }),
            ..ExecOptions::default()
        },
    ];
    for sql in dml_corpus() {
        let affected: Vec<u64> = engines
            .iter()
            .map(|opts| assert_write_sound(&c, Some(&stats), sql, *opts))
            .collect();
        assert!(
            affected.iter().all(|a| *a == affected[0]),
            "{sql}: engine configs disagree on affected rows: {affected:?}"
        );
        // Stats only sharpen the analysis; soundness must hold without them.
        assert_write_sound(&c, None, sql, ExecOptions::default());
    }
}

#[test]
fn changed_answers_are_always_invalidated() {
    let c = catalog();
    let stats = Statistics::from_catalog(&c);
    let reads: Vec<(String, EffectSet)> = read_corpus()
        .into_iter()
        .map(|q| {
            let compiled = cda_sql::compile(&c, q).expect(q);
            let (_, plan) = compiled.query().expect(q);
            (q.to_owned(), EffectSet::read_only(plan_reads(plan)))
        })
        .collect();
    let mut changed_pairs = 0usize;
    for sql in dml_corpus() {
        let effects = effects_of(&c, Some(&stats), sql);
        let plan = plan_dml(&c, &parse_statement(sql).expect(sql)).expect(sql);
        let result = execute_dml(&c, &plan, ExecOptions::default()).expect(sql);
        // Commit into a throwaway catalog copy.
        let mut after = c.clone();
        after.replace_table(&result.table, result.new_table.clone()).expect(sql);
        for (q, read_effects) in &reads {
            let before = format!("{:?}", execute(&c, q).expect(q).table);
            let post = format!("{:?}", execute(&after, q).expect(q).table);
            if before != post {
                changed_pairs += 1;
                assert!(
                    effects.invalidates(&read_effects.reads),
                    "stale serve: `{sql}` changed the answer to `{q}` \
                     but does not invalidate its read set {}",
                    read_effects
                );
            }
        }
    }
    // The law must not hold vacuously: the corpus has to produce real
    // cross-pair answer changes.
    assert!(changed_pairs >= 20, "only {changed_pairs} changed (write, read) pairs");
}

#[test]
fn gate_has_zero_false_rejects_on_the_gold_workload() {
    let c = catalog();
    let stats = Statistics::from_catalog(&c);
    let analyzer = Analyzer::new(&c).with_stats(&stats);
    for sql in dml_corpus().into_iter().chain(read_corpus()) {
        let report = analyzer.analyze_statement(sql);
        assert!(
            !report.dooms_execution(),
            "false reject of valid statement `{sql}`: {}",
            report.summary()
        );
    }
}

#[test]
fn tampered_guards_are_caught_on_both_engines() {
    let c = catalog();
    let sql = "UPDATE emp SET jobs = 0, rate = 0.5 WHERE canton = 'ZH'";
    let plan = plan_dml(&c, &parse_statement(sql).expect(sql)).expect(sql);
    let mutants = [
        WriteGuard::new("regions", ["population".to_owned()]),
        WriteGuard::new("emp", ["jobs".to_owned()]),
        WriteGuard::new("emp", ["canton".to_owned(), "sector".to_owned()]),
    ];
    let mut caught = 0usize;
    for guard in &mutants {
        for opts in [ExecOptions::default(), ExecOptions::vectorized()] {
            let err = execute_dml_checked(&c, &plan, opts, Some(guard))
                .expect_err("broken guard must be caught");
            assert!(err.to_string().contains("effect sanitizer"), "{err}");
            caught += 1;
        }
    }
    assert_eq!(caught, 6, "every mutant caught on both engines");
}

// ------------------------------------------------------------ property tests

fn table_strategy() -> Gen<Table> {
    // (g, x, y) with a high NULL density so NULL-matching writes dominate.
    (1usize..32).prop_flat_map(|n| {
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

/// DML templates over the generated (g, x, y) table; `{pivot}` moves the
/// filters so empty matches, full-table matches, and NULL comparisons all
/// appear organically.
fn generated_dml(pivot: i64) -> Vec<String> {
    vec![
        format!("UPDATE t SET x = x + 1 WHERE x > {pivot}"),
        format!("UPDATE t SET y = 0.0, x = {pivot} WHERE g = 'a'"),
        "UPDATE t SET x = 0 WHERE 1 = 2".to_string(),
        "UPDATE t SET y = y * 2.0 WHERE x IS NULL".to_string(),
        format!("DELETE FROM t WHERE x < {pivot}"),
        "DELETE FROM t WHERE g = 'b' AND y IS NULL".to_string(),
        format!("INSERT INTO t (g, x) VALUES ('z', {pivot})"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Laws 1 + 2 on random NULL-dense tables: the touched set never
    /// escapes the static write set and the row bounds always bracket the
    /// runtime count, on both engines, with and without statistics.
    #[test]
    fn generated_writes_stay_inside_static_write_sets(t in table_strategy(), pivot in -50i64..50) {
        let mut c = Catalog::new();
        c.register("t", t).unwrap();
        let stats = Statistics::from_catalog(&c);
        for sql in generated_dml(pivot) {
            let row = assert_write_sound(&c, Some(&stats), &sql, ExecOptions::default());
            let vec = assert_write_sound(&c, Some(&stats), &sql, ExecOptions::vectorized());
            assert_eq!(row, vec, "{sql}: engines disagree on affected rows");
            assert_write_sound(&c, None, &sql, ExecOptions::default());
            assert_noop_sound(&c, Some(&stats), &sql);
            assert_noop_sound(&c, None, &sql);
        }
    }
}

//! The static gate's verdicts against what both engines do, over a
//! generated typed-expression corpus.
//!
//! The corpus crosses every column type (INT, FLOAT, STR, BOOL, TIMESTAMP)
//! with every operator form (arithmetic, unary minus, NOT, AND/OR,
//! comparisons, LIKE, IN, BETWEEN, a CASE with a column arm and a literal
//! arm) and every literal type (INT, FLOAT, STR, BOOL, NULL), and places
//! each expression in every position a binder types differently: a SELECT
//! item, WHERE, HAVING, JOIN ON, CASE WHEN, and the WHERE of an UPDATE and
//! of a DELETE. The aggregates (SUM, AVG, MIN, MAX, COUNT) over every column
//! type go in a SELECT item and in HAVING. It runs over a small NULL-dense
//! catalog.
//!
//! `bind_pins.tsv` holds, per statement: the SQL, the `analyze_statement`
//! summary, the row engine's outcome, the vectorized engine's outcome, and
//! `statement_effects(…).provable_noop`. Regenerate it with
//! `cargo test -p cda-integration --test verdicts -- --ignored --nocapture
//! print_bind_pins | grep -P '\t' > crates/integration/tests/bind_pins.tsv`
//! and review the diff: a moved row is a verdict that changed.
//!
//! The verdict laws run over the same corpus as one shrinking property, on
//! random NULL-dense data (the statement is drawn by its corpus index, so
//! a counterexample shrinks toward the first statements and the smallest
//! tables):
//!
//! * `Analyzer::gate` hands back a compiled statement exactly when it binds;
//! * a statement the gate does not doom raises no runtime type error on
//!   either engine;
//! * a doomed statement fails on both engines;
//! * a query the gate proves empty (A006, A015) answers 0 rows on both;
//! * a write the gate calls a provable no-op (A021, or
//!   `statement_effects(…).provable_noop`) is applied by
//!   `Session::apply_sql` with 0 rows affected.

use cda_analyzer::{statement_effects, Analyzer, Code, Statistics};
use cda_core::catalog::{Dataset, DatasetCatalog};
use cda_core::mutation::WriteDecision;
use cda_core::rot::Freshness;
use cda_core::{CdaConfig, Session, WorldSnapshot};
use cda_dataframe::{Column, DataType, Field, Schema, Table};
use cda_sql::parser::parse_statement;
use cda_sql::{compile, execute_dml, execute_plan, Catalog, ExecOptions, StatementPlan};
use cda_testkit::prelude::*;
use cda_testkit::prop as proptest;
use std::sync::OnceLock;

/// Column name and type of every column of `t`, one per type.
const COLUMNS: [(&str, DataType); 5] = [
    ("i", DataType::Int),
    ("f", DataType::Float),
    ("s", DataType::Str),
    ("b", DataType::Bool),
    ("ts", DataType::Timestamp),
];

/// One literal per literal type.
const LITERALS: [&str; 5] = ["1", "1.5", "'a'", "TRUE", "NULL"];

/// Operator forms over a column `{c}` and a literal `{l}`.
const BINARY_FORMS: [&str; 10] = [
    "{c} + {l}",
    "{c} - {l}",
    "{c} / {l}",
    "{c} AND {l}",
    "{c} OR {l}",
    "{c} = {l}",
    "{c} < {l}",
    "{c} IN ({l})",
    "{c} BETWEEN {l} AND {l}",
    "CASE WHEN b THEN {c} ELSE {l} END",
];

/// Operator forms over a column `{c}` alone.
const UNARY_FORMS: [&str; 3] = ["-{c}", "NOT {c}", "{c} LIKE 'a%'"];

/// Aggregates over a column `{c}`.
const AGGREGATES: [&str; 5] = ["SUM", "AVG", "MIN", "MAX", "COUNT"];

/// Where a scalar expression `{e}` over column `{c}` is placed.
const POSITIONS: [&str; 7] = [
    "SELECT {e} FROM t",
    "SELECT COUNT(*) FROM t WHERE {e}",
    "SELECT COUNT(*) FROM t GROUP BY {c} HAVING {e}",
    "SELECT t.i FROM t JOIN u ON {e}",
    "SELECT CASE WHEN {e} THEN 1 ELSE 2 END FROM t",
    "UPDATE t SET i = 1 WHERE {e}",
    "DELETE FROM t WHERE {e}",
];

/// Where an aggregate `{a}` is placed.
const AGGREGATE_POSITIONS: [&str; 2] = ["SELECT {a} FROM t", "SELECT COUNT(*) FROM t HAVING {a}"];

/// Constant-FALSE or NULL filters under a grouping-free aggregate (one row,
/// not provably empty), under grouping, a join, a LEFT JOIN's right side and
/// HAVING, and alone.
const CONSTANT_FILTERS: [&str; 8] = [
    "SELECT COUNT(*) FROM t WHERE 1 = 2",
    "SELECT COUNT(*), SUM(i), MAX(s), AVG(f) FROM t WHERE NULL",
    "SELECT MIN(ts) FROM t WHERE FALSE AND i > 0",
    "SELECT i, COUNT(*) FROM t WHERE 1 = 2 GROUP BY i",
    "SELECT COUNT(*) FROM t JOIN u ON t.i = u.k WHERE 1 = 2",
    "SELECT t.i, u.k FROM t LEFT JOIN u ON t.i = u.k AND u.k > 1 - 1 AND NULL",
    "SELECT COUNT(*) FROM t HAVING 1 = 2",
    "SELECT s FROM t WHERE NULL",
];

/// Every `(column, expression)` of the corpus.
fn expressions() -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    for (c, _) in COLUMNS {
        for form in UNARY_FORMS {
            out.push((c, form.replace("{c}", c)));
        }
        for form in BINARY_FORMS {
            for l in LITERALS {
                out.push((c, form.replace("{c}", c).replace("{l}", l)));
            }
        }
    }
    out
}

/// Every statement of the corpus, in pin order.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(statements)
}

fn statements() -> Vec<String> {
    let mut out = Vec::new();
    for (c, e) in expressions() {
        for p in POSITIONS {
            out.push(p.replace("{c}", c).replace("{e}", &e));
        }
    }
    for (c, _) in COLUMNS {
        for a in AGGREGATES {
            for p in AGGREGATE_POSITIONS {
                out.push(p.replace("{a}", &format!("{a}({c})")));
            }
        }
    }
    out.extend(CONSTANT_FILTERS.iter().map(|s| (*s).to_owned()));
    out
}

/// One row of `t`: a value or NULL per column, in [`COLUMNS`] order.
type Row = (
    Option<i64>,
    Option<f64>,
    Option<String>,
    Option<bool>,
    Option<i64>,
);

/// The pinned data: `t` with NULL in half of each column's rows (all of
/// row 1), and the join keys of `u`.
fn pinned_data() -> (Vec<Row>, Vec<Option<i64>>) {
    let s = |v: &str| Some(v.to_owned());
    let rows = vec![
        (Some(1), Some(0.5), s("a"), Some(true), Some(100)),
        (None, None, None, None, None),
        (Some(-2), None, s("ab"), Some(false), Some(200)),
        (None, Some(2.5), None, None, None),
        (Some(3), Some(-1.0), s("b"), Some(true), None),
        (None, None, None, None, Some(300)),
    ];
    (rows, vec![Some(1), None, Some(3)])
}

/// Data and validity vectors of one nullable column.
fn parts<T: Default>(values: impl Iterator<Item = Option<T>>) -> (Vec<T>, Vec<bool>) {
    values
        .map(|v| {
            let valid = v.is_some();
            (v.unwrap_or_default(), valid)
        })
        .unzip()
}

/// `t` holding `rows`, and `u(k)` holding `keys` to join it with.
fn catalog(rows: &[Row], keys: &[Option<i64>]) -> Catalog {
    let (i, iv) = parts(rows.iter().map(|r| r.0));
    let (f, fv) = parts(rows.iter().map(|r| r.1));
    let (s, sv) = parts(rows.iter().map(|r| r.2.clone()));
    let (b, bv) = parts(rows.iter().map(|r| r.3));
    let (ts, tsv) = parts(rows.iter().map(|r| r.4));
    let t = Table::from_columns(
        Schema::new(COLUMNS.iter().map(|(n, t)| Field::new(*n, *t)).collect()),
        vec![
            Column::from_int_parts(i, iv).unwrap(),
            Column::from_float_parts(f, fv).unwrap(),
            Column::from_str_parts(s, sv).unwrap(),
            Column::from_bool_parts(b, bv).unwrap(),
            Column::from_timestamp_parts(ts, tsv).unwrap(),
        ],
    )
    .unwrap();
    let (k, kv) = parts(keys.iter().copied());
    let u = Table::from_columns(
        Schema::new(vec![Field::new("k", DataType::Int)]),
        vec![Column::from_int_parts(k, kv).unwrap()],
    )
    .unwrap();
    let mut c = Catalog::new();
    c.register("t", t).unwrap();
    c.register("u", u).unwrap();
    c
}

/// What one engine does with `sql`: the rows it answers, the rows a write
/// affects, or the error it raises (at bind time or while executing).
fn outcome(catalog: &Catalog, sql: &str, opts: ExecOptions) -> String {
    let compiled = match compile(catalog, sql) {
        Ok(c) => c,
        Err(e) => return format!("err {e}"),
    };
    match &compiled.plan {
        StatementPlan::Query { optimized, .. } => match execute_plan(catalog, optimized, opts) {
            Ok(r) => {
                let rows: Vec<String> = (0..r.table.num_rows())
                    .map(|i| {
                        let row = r.table.row(i).unwrap();
                        row.iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join("|")
                    })
                    .collect();
                format!("ok {} rows: {}", rows.len(), rows.join(","))
            }
            Err(e) => format!("err {e}"),
        },
        StatementPlan::Write(plan) => match execute_dml(catalog, plan, opts) {
            Ok(r) => format!("ok {} affected", r.affected),
            Err(e) => format!("err {e}"),
        },
    }
}

/// One pin line per statement.
fn bind_pins() -> Vec<String> {
    let (rows, keys) = pinned_data();
    let catalog = catalog(&rows, &keys);
    let stats = Statistics::from_catalog(&catalog);
    let analyzer = Analyzer::new(&catalog).with_stats(&stats);
    corpus()
        .iter()
        .map(|sql| {
            let summary = analyzer.analyze_statement(sql).summary();
            let summary = if summary.is_empty() {
                "clean".to_owned()
            } else {
                summary
            };
            let noop =
                match statement_effects(&catalog, &parse_statement(sql).unwrap(), Some(&stats)) {
                    Ok(e) => e.provable_noop.to_string(),
                    Err(e) => format!("err {e}"),
                };
            format!(
                "{sql}\t{summary}\t{}\t{}\t{noop}",
                outcome(&catalog, sql, ExecOptions::default()),
                outcome(&catalog, sql, ExecOptions::vectorized()),
            )
        })
        .collect()
}

/// Prints `bind_pins.tsv` (see the module doc).
#[test]
#[ignore = "generator for bind_pins.tsv, not a check"]
fn print_bind_pins() {
    for line in bind_pins() {
        println!("{line}");
    }
}

#[test]
fn every_bind_pin_reproduces() {
    let pinned: Vec<&str> = include_str!("bind_pins.tsv").lines().collect();
    let now = bind_pins();
    assert_eq!(pinned.len(), now.len(), "corpus size");
    for (pin, line) in pinned.iter().zip(&now) {
        assert_eq!(
            pin, line,
            "drifted (sql, summary, row engine, vectorized, provable_noop)"
        );
    }
}

/// What an engine did: the rows a query answered or a write affected.
fn run(catalog: &Catalog, sql: &str, opts: ExecOptions) -> cda_sql::Result<usize> {
    match compile(catalog, sql)?.plan {
        StatementPlan::Query { optimized, .. } => {
            Ok(execute_plan(catalog, &optimized, opts)?.table.num_rows())
        }
        StatementPlan::Write(plan) => Ok(execute_dml(catalog, &plan, opts)?.affected as usize),
    }
}

/// An error the engines raise when an operator meets a value of the wrong
/// type.
fn is_type_error(e: &cda_sql::SqlError) -> bool {
    let m = e.to_string();
    [
        "expects BOOL",
        "expects STR",
        "needs numeric operands",
        "expects numeric values",
        "cannot negate",
        "type mismatch",
    ]
    .iter()
    .any(|marker| m.contains(marker))
}

/// A session over `catalog`'s two tables, for `apply_sql`.
fn session(rows: &[Row], keys: &[Option<i64>]) -> Session {
    let sql = catalog(rows, keys);
    let mut datasets = DatasetCatalog::new();
    for name in ["t", "u"] {
        datasets
            .register(Dataset {
                name: name.into(),
                description: format!("table {name}"),
                source_url: String::new(),
                table: Some(sql.get(name).unwrap().table.clone()),
                series: None,
                keywords: Vec::new(),
                freshness: Freshness::static_data(),
            })
            .unwrap();
    }
    Session::open(
        WorldSnapshot::builder().catalog(datasets).build_shared(),
        CdaConfig::default(),
    )
}

fn row_strategy() -> Gen<Row> {
    (
        proptest::option::of(-3i64..4),
        proptest::option::of(-2.0f64..3.0),
        proptest::option::of("[ab]{0,2}"),
        proptest::option::of(any::<bool>()),
        proptest::option::of(0i64..400),
    )
        .into_gen()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn gate_verdicts_hold_on_both_engines(
        index in 0..corpus().len(),
        rows in proptest::collection::vec(row_strategy(), 0..=6),
        keys in proptest::collection::vec(proptest::option::of(-3i64..4), 0..=3),
    ) {
        let sql = corpus()[index].as_str();
        let catalog = catalog(&rows, &keys);
        let stats = Statistics::from_catalog(&catalog);
        let (report, compiled) = Analyzer::new(&catalog).with_stats(&stats).gate(sql);
        let binds = compile(&catalog, sql).is_ok();
        prop_assert_eq!(compiled.is_some(), binds, "compiled iff it binds: {sql}");
        let summary = report.summary();
        let engines = [ExecOptions::default(), ExecOptions::vectorized()];
        let outcomes = engines.map(|o| run(&catalog, sql, o));
        let has = |code: Code| report.findings.iter().any(|f| f.code == code);
        for outcome in &outcomes {
            if report.dooms_execution() {
                prop_assert!(outcome.is_err(), "doomed but ran: {sql} [{summary}]");
            } else if let Err(e) = outcome {
                let typed = is_type_error(e);
                prop_assert!(!typed, "not doomed but a type error: {sql} [{summary}]: {e}");
            }
            if has(Code::UnsatisfiablePredicate) || has(Code::ProvablyEmpty) {
                let rows = outcome.as_ref().ok();
                prop_assert_eq!(rows, Some(&0), "claimed empty: {sql} [{summary}]");
            }
        }
        let noop = statement_effects(&catalog, &parse_statement(sql).unwrap(), Some(&stats))
            .is_ok_and(|e| e.provable_noop);
        if noop || has(Code::ProvablyNoopWrite) {
            match session(&rows, &keys).apply_sql(sql) {
                Ok(WriteDecision::Applied(w)) => {
                    prop_assert_eq!(w.affected, 0, "provable no-op wrote rows: {sql} [{summary}]");
                }
                other => {
                    prop_assert!(false, "provable no-op not applied: {sql} [{summary}]: {other:?}")
                }
            }
        }
    }
}

//! Failure-injection and degenerate-input tests across the substrates:
//! empty tables, empty join sides, pathological SQL, zero-variance series,
//! a one-cluster progressive index, a self-looping taxonomy and adversarial
//! utterances. The baseline indexes' case is in `cda-bench`'s
//! `tests/edge_cases.rs`; the BGP engine's empty-store case is a unit test
//! of the lab's `query` module.

use cda_dataframe::{Column, DataType, Field, Schema, Table, Value};
use cda_sql::{execute, Catalog, SqlError};
use cda_vector::progressive::ProgressiveIndex;
use cda_vector::VectorSet;

fn empty_table() -> Table {
    Table::empty(Schema::new(vec![
        Field::new("g", DataType::Str),
        Field::new("x", DataType::Int),
    ]))
}

fn small_table() -> Table {
    Table::from_columns(
        Schema::new(vec![Field::new("g", DataType::Str), Field::new("x", DataType::Int)]),
        vec![Column::from_strs(&["a", "b"]), Column::from_ints(&[1, 2])],
    )
    .unwrap()
}

#[test]
fn sql_over_empty_tables() {
    let mut catalog = Catalog::new();
    catalog.register("e", empty_table()).unwrap();
    catalog.register("t", small_table()).unwrap();

    // scans, filters, sorts and grouped aggregates over an empty table
    let r = execute(&catalog, "SELECT * FROM e WHERE x > 0 ORDER BY x DESC LIMIT 5").unwrap();
    assert_eq!(r.table.num_rows(), 0);
    let r = execute(&catalog, "SELECT g, SUM(x) FROM e GROUP BY g").unwrap();
    assert_eq!(r.table.num_rows(), 0);
    // global aggregates over empty input: one row, COUNT 0 / SUM NULL
    let r = execute(&catalog, "SELECT COUNT(*), SUM(x), MIN(x) FROM e").unwrap();
    assert_eq!(r.table.row(0).unwrap(), vec![Value::Int(0), Value::Null, Value::Null]);
    // joins with an empty side
    let r = execute(&catalog, "SELECT t.g FROM t JOIN e ON t.x = e.x").unwrap();
    assert_eq!(r.table.num_rows(), 0);
    let r = execute(&catalog, "SELECT t.g, e.x FROM t LEFT JOIN e ON t.x = e.x ORDER BY t.g")
        .unwrap();
    assert_eq!(r.table.num_rows(), 2);
    assert!(r.table.value(0, 1).unwrap().is_null());
    // DISTINCT over empty
    let r = execute(&catalog, "SELECT DISTINCT g FROM e").unwrap();
    assert_eq!(r.table.num_rows(), 0);
}

#[test]
fn pathological_sql_fails_cleanly() {
    let mut catalog = Catalog::new();
    catalog.register("t", small_table()).unwrap();
    for bad in [
        "",
        "SELECT",
        "SELECT FROM t",
        "SELECT x FROM",
        "SELECT x FROM t WHERE",
        "SELECT x FROM t GROUP BY",
        "SELECT x FROM t ORDER BY",
        "SELECT x FROM t LIMIT -1",
        "SELECT x FROM t LIMIT abc",
        "SELECT ((x FROM t",
        "SELECT x x x FROM t",
        "INSERT INTO t VALUES (1)",
        "SELECT x FROM t; DROP TABLE t",
    ] {
        let e = execute(&catalog, bad);
        assert!(e.is_err(), "accepted: {bad:?}");
        // errors are structured, not panics
        match e.unwrap_err() {
            SqlError::Lex { .. }
            | SqlError::Parse { .. }
            | SqlError::Binding(_)
            | SqlError::Semantic(_)
            | SqlError::Eval(_)
            | SqlError::DataFrame(_) => {}
        }
    }
}

#[test]
fn deep_expression_nesting_parses() {
    let mut catalog = Catalog::new();
    catalog.register("t", small_table()).unwrap();
    let mut expr = String::from("x");
    for _ in 0..60 {
        expr = format!("({expr} + 1)");
    }
    let r = execute(&catalog, &format!("SELECT {expr} AS v FROM t ORDER BY v")).unwrap();
    assert_eq!(r.table.value(0, 0).unwrap(), Value::Int(61));
}

#[test]
fn zero_variance_series_degenerates_gracefully() {
    use cda_timeseries::seasonality::detect_seasonality;
    use cda_timeseries::TimeSeries;
    let flat = TimeSeries::from_values(vec![5.0; 100]);
    // no seasonal structure: either refuses or reports near-zero confidence
    match detect_seasonality(&flat, 24) {
        Err(_) => {}
        Ok(r) => assert!(r.confidence < 0.2, "flat series confidence {}", r.confidence),
    }
}

#[test]
fn single_cluster_progressive_index() {
    // nlist=1 degenerates to a full scan but must stay exact
    let data = VectorSet::uniform(200, 8, 1).unwrap();
    let index = ProgressiveIndex::build(&data, 1, 0, 5, 1);
    let hits = index
        .search_mode(&data, data.vector(0), 5, cda_vector::progressive::GuaranteeMode::Deterministic)
        .0;
    assert_eq!(hits[0].id, 0);
    assert_eq!(hits.len(), 5);
}

#[test]
fn kg_empty_and_self_loops() {
    use cda_kg::TripleStore;
    let kg = TripleStore::new();
    assert_eq!(kg.len(), 0);
    assert!(kg.scan_str(None, None, None).is_empty());
    // self-loop reasoning terminates
    let mut kg = TripleStore::new();
    kg.insert("A", "subClassOf", "A");
    kg.insert("x", "type", "A");
    let added = cda_kg::reason::materialize(&mut kg);
    assert_eq!(added, 0);
    let r = cda_kg::reason::Reasoner::new(&kg);
    assert!(r.is_a("x", "A"));
}

#[test]
fn dialogue_survives_adversarial_inputs() {
    use cda_core::demo::demo_session;
    let mut cda = demo_session(5);
    for weird in [
        "",
        "    ",
        "SELECT * FROM employment_by_type; DROP TABLE employment_by_type",
        "what is the total total total total",
        "🦀🦀🦀",
        &"very ".repeat(500),
    ] {
        // must never panic; every input yields a well-formed turn
        let a = cda.process(weird);
        assert!(!a.text.is_empty());
    }
    // the session is still functional afterwards
    let a = cda.process("What is the total employees in employment_by_type per canton?");
    assert!(!a.text.is_empty());
}

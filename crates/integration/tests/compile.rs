//! The statement-pipeline law: `cda_sql::compile` — and the gate, the
//! fingerprint and the effect analysis fed from it — agree with the
//! primitives they now own, on the nl2sql question pool, on LM candidates
//! (hallucinated and broken ones included) and on the DML corpus of
//! `crates/analyzer/tests/effects.rs`.

use cda_analyzer::{compiled_effects, statement_effects, Analyzer, EquivEngine};
use cda_core::demo::{demo_session, demo_world};
use cda_core::mutation::WriteDecision;
use cda_dataframe::{Column, DataType, Field, Schema, Table};
use cda_nlmodel::lm::{Nl2SqlPrompt, SimLm, SimLmConfig};
use cda_nlmodel::nl2sql::Workload;
use cda_sql::optimizer::optimize;
use cda_sql::parser::{parse, parse_statement};
use cda_sql::planner::plan_select;
use cda_sql::{compile, plan_dml, Catalog, OptimizerRules, StatementPlan};

/// The catalog and DML gold workload of the effect-analysis suite.
fn dml_catalog() -> Catalog {
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
    .unwrap();
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
    .unwrap();
    let mut c = Catalog::new();
    c.register("emp", emp).unwrap();
    c.register("regions", regions).unwrap();
    c
}

const DML_CORPUS: &[&str] = &[
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
];

/// One statement through both routes. Returns whether it compiled.
fn assert_routes_agree(catalog: &Catalog, analyzer: &Analyzer<'_>, sql: &str) -> bool {
    let engine = EquivEngine::new();
    let stats = None;
    let (report, gated) = analyzer.gate(sql);
    assert_eq!(report, analyzer.analyze_statement(sql), "{sql}");
    // The gate hands the statement back exactly when it binds (below); one it
    // lets through always does.
    assert_eq!(gated.is_some(), compile(catalog, sql).is_ok(), "{sql}: compiled iff it binds");
    assert!(gated.is_some() || report.dooms_execution(), "{sql}: let through yet unbound");

    // The primitives, hand-sequenced the way every layer used to.
    let statement = match parse_statement(sql) {
        Ok(s) => s,
        Err(e) => {
            assert_eq!(compile(catalog, sql).unwrap_err(), e, "{sql}");
            assert!(report.summary().contains(&e.to_string()), "{sql}: {}", report.summary());
            return false;
        }
    };
    let compiled = match compile(catalog, sql) {
        Ok(c) => c,
        Err(e) => {
            let primitive = match parse(sql) {
                Ok(select) => plan_select(catalog, &select).map(|_| ()),
                Err(_) => plan_dml(catalog, &statement).map(|_| ()),
            };
            assert_eq!(primitive.unwrap_err(), e, "{sql}");
            assert!(report.dooms_execution(), "{sql}: unbindable yet not doomed");
            assert!(statement_effects(catalog, &statement, stats).is_err(), "{sql}");
            return false;
        }
    };
    assert_eq!(compiled.statement, statement, "{sql}");
    match &compiled.plan {
        StatementPlan::Query { logical, optimized } => {
            let select = parse(sql).unwrap();
            let by_hand = plan_select(catalog, &select).unwrap();
            assert_eq!(logical, &by_hand, "{sql}");
            assert_eq!(optimized, &optimize(by_hand.clone(), OptimizerRules::all()), "{sql}");
            assert_eq!(engine.fingerprint(logical), engine.fingerprint(&by_hand), "{sql}");
            // A SELECT is a query to the SELECT-only front too.
            assert_eq!(analyzer.analyze(sql), report, "{sql}");
        }
        StatementPlan::Write(dml) => {
            let by_hand = plan_dml(catalog, &statement).unwrap();
            assert_eq!(format!("{dml:?}"), format!("{by_hand:?}"), "{sql}");
        }
    }
    assert_eq!(
        compiled_effects(&compiled.plan, stats),
        statement_effects(catalog, &statement, stats).unwrap(),
        "{sql}"
    );
    let gated = gated.unwrap();
    assert_eq!(format!("{gated:?}"), format!("{compiled:?}"), "{sql}: the gate's own compile");
    true
}

#[test]
fn compile_agrees_with_the_primitives_it_owns() {
    let world = demo_world(7);
    let catalog = world.catalog().sql();
    let analyzer = Analyzer::new(catalog).with_stats(world.catalog().stats()).with_row_budget(1_000_000);
    let pool = Workload::generate(world.workload_tables(), 256, 7).tasks;
    assert_eq!(pool.len(), 256);
    let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.6, overconfidence: 0.8, seed: 7 });
    let (mut compiled, mut refused) = (0usize, 0usize);
    for (i, task) in pool.iter().enumerate() {
        assert!(assert_routes_agree(catalog, &analyzer, &task.gold_sql), "gold: {}", task.gold_sql);
        // Every eighth question also sends its LM candidates through: these
        // carry the hallucinated names and the syntax errors.
        if i % 8 != 0 {
            continue;
        }
        let schema = catalog.get(&task.task.table).unwrap().table.schema().clone();
        let prompt = Nl2SqlPrompt { task: task.task.clone(), schema, other_tables: Vec::new() };
        for g in lm.sample_k(&prompt, 1.0, 6) {
            if assert_routes_agree(catalog, &analyzer, &g.sql) {
                compiled += 1;
            } else {
                refused += 1;
            }
        }
    }
    assert!(compiled > 0 && refused > 0, "both outcomes covered: {compiled} / {refused}");

    let dml = dml_catalog();
    let dml_analyzer = Analyzer::new(&dml);
    for sql in DML_CORPUS {
        assert!(assert_routes_agree(&dml, &dml_analyzer, sql), "{sql}");
    }
}

/// Every parse and bind error still maps to the finding it mapped to before
/// the gate compiled through `plan_statement`: `gate_pins.tsv` holds, per
/// statement, the summaries `analyze` and `analyze_statement` rendered then.
#[test]
fn parse_and_bind_errors_map_to_the_same_findings() {
    let world = demo_world(7);
    let catalog = world.catalog();
    let analyzer =
        Analyzer::new(catalog.sql()).with_stats(catalog.stats()).with_row_budget(1_000_000);
    let pins = include_str!("gate_pins.tsv");
    assert!(pins.lines().count() >= 20);
    for line in pins.lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        let [sql, as_query, as_statement] = fields[..] else { panic!("malformed pin: {line}") };
        assert_eq!(analyzer.analyze(sql).summary(), as_query, "{sql}");
        assert_eq!(analyzer.analyze_statement(sql).summary(), as_statement, "{sql}");
        assert_routes_agree(catalog.sql(), &analyzer, sql);
    }
}

#[test]
fn select_shaped_sql_answers_through_the_query_path_and_apply_sql_refuses_it() {
    let sql = "SELECT canton, SUM(employees) AS result FROM employment_by_type GROUP BY canton";
    let mut s = demo_session(7);
    assert_eq!(s.route(sql), s.route("What is the total employees in employment_by_type per canton?"));
    let turn = s.process(sql);
    assert!(turn.executed_sql.is_some(), "{}", turn.text);
    assert_eq!(s.epoch(), 0);
    assert_eq!(s.query_log().entries().last().unwrap().intent, "analysis");
    match s.apply_sql(sql) {
        Err(e) => assert!(e.to_string().contains("apply_sql takes DML"), "{e}"),
        Ok(WriteDecision::Rejected { .. }) => {}
        Ok(applied) => panic!("apply_sql took a SELECT: {applied:?}"),
    }
    assert_eq!(s.epoch(), 0);
}

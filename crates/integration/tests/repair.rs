//! Properties of the diagnosis→generation repair loop: hint extraction over
//! testkit-generated catalogs, repair soundness, and the byte-identity pin
//! of consistency UQ's repair of doomed samples (`uq_repair_pins.tsv`).

use cda_analyzer::{apply_hints, edit_distance, nearest_name, Analyzer, Statistics};
use cda_core::storage::fnv1a;
use cda_dataframe::{Column, DataType, Field, Schema, Table};
use cda_nlmodel::lm::{Nl2SqlPrompt, SimLm, SimLmConfig};
use cda_nlmodel::nl2sql::{Workload, WorkloadTable};
use cda_soundness::consistency::{ConsistencyUq, Known};
use cda_sql::{Catalog, QueryResult};
use cda_testkit::prelude::*;
use cda_testkit::prop as proptest;

// ---------------------------------------------------------------- helpers

/// A generated catalog plus the workload-table view of its first table.
#[derive(Debug, Clone)]
struct GenCatalog {
    tables: Vec<(String, Vec<(String, DataType)>)>,
}

impl GenCatalog {
    fn build(&self) -> Catalog {
        let mut c = Catalog::new();
        for (name, cols) in &self.tables {
            let n = 4usize;
            let schema =
                Schema::new(cols.iter().map(|(cn, dt)| Field::new(cn, *dt)).collect::<Vec<_>>());
            let columns: Vec<Column> = cols
                .iter()
                .enumerate()
                .map(|(ci, (_, dt))| match dt {
                    DataType::Str => {
                        let vals: Vec<String> =
                            (0..n).map(|r| format!("v{}", (r + ci) % 3)).collect();
                        let refs: Vec<&str> = vals.iter().map(String::as_str).collect();
                        Column::from_strs(&refs)
                    }
                    DataType::Float => {
                        Column::from_floats(&(0..n).map(|r| r as f64 * 0.5).collect::<Vec<_>>())
                    }
                    _ => Column::from_ints(&(0..n).map(|r| (r + ci) as i64).collect::<Vec<_>>()),
                })
                .collect();
            let t = Table::from_columns(schema, columns).expect("consistent generated table");
            c.register(name, t).expect("distinct generated names");
        }
        c
    }

    fn workload_tables(&self) -> Vec<WorkloadTable> {
        self.tables
            .iter()
            .map(|(name, cols)| WorkloadTable {
                name: name.clone(),
                schema: Schema::new(
                    cols.iter().map(|(cn, dt)| Field::new(cn, *dt)).collect::<Vec<_>>(),
                ),
                string_values: cols
                    .iter()
                    .filter(|(_, dt)| *dt == DataType::Str)
                    .map(|(cn, _)| (cn.clone(), vec!["v0".into(), "v1".into()]))
                    .collect(),
            })
            .collect()
    }
}

fn ident_strategy() -> Gen<String> {
    proptest::string_class("[a-z]{3,9}")
}

fn catalog_strategy() -> Gen<GenCatalog> {
    // 1–3 tables with distinct names; each table gets one string column,
    // one int column, and one float column with generated distinct names.
    proptest::collection::vec(
        (ident_strategy(), ident_strategy(), ident_strategy(), ident_strategy()),
        1..4,
    )
    .prop_filter(|raw| {
        // all table names and per-table column names distinct
        let mut tn: Vec<&String> = raw.iter().map(|(t, _, _, _)| t).collect();
        tn.sort();
        tn.dedup();
        tn.len() == raw.len()
            && raw.iter().all(|(_, a, b, c)| a != b && b != c && a != c)
    })
    .prop_map(|raw| GenCatalog {
        tables: raw
            .into_iter()
            .map(|(t, c1, c2, c3)| {
                (t, vec![(c1, DataType::Str), (c2, DataType::Int), (c3, DataType::Float)])
            })
            .collect(),
    })
}

// ------------------------------------------------- hint-extraction laws

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nearest_name_is_a_real_candidate(
        name in ident_strategy(),
        candidates in proptest::collection::vec(ident_strategy(), 0..8),
    ) {
        match nearest_name(&name, &candidates) {
            Some(n) => prop_assert!(
                candidates.iter().any(|c| c == n),
                "{n:?} not in {candidates:?}"
            ),
            None => prop_assert!(candidates.is_empty()),
        }
    }

    #[test]
    fn nearest_name_minimizes_edit_distance(
        name in ident_strategy(),
        candidates in proptest::collection::vec(ident_strategy(), 1..8),
    ) {
        let chosen = nearest_name(&name, &candidates).unwrap();
        let d = edit_distance(&name, chosen);
        // exhaustive scan: no candidate is strictly closer, and among the
        // closest the lexicographically smallest wins (determinism)
        for c in &candidates {
            prop_assert!(edit_distance(&name, c) >= d, "{c} beats {chosen} for {name}");
        }
        let best = candidates
            .iter()
            .filter(|c| edit_distance(&name, c) == d)
            .min()
            .unwrap();
        prop_assert_eq!(best.as_str(), chosen);
    }

    #[test]
    fn repair_never_dooms_a_sound_candidate(gc in catalog_strategy(), seed in 0u64..500) {
        // gold workload queries are sound; the hint loop must never turn
        // one into a statically-doomed query
        let catalog = gc.build();
        let analyzer = Analyzer::new(&catalog);
        let tables = gc.workload_tables();
        let w = Workload::generate(&tables, 4, seed);
        for task in &w.tasks {
            let sql = &task.gold_sql;
            let report = analyzer.analyze(sql);
            prop_assert!(!report.dooms_execution(), "gold is doomed: {sql}");
            let hints = analyzer.repair_hints(sql, &report);
            if let Some(fixed) = apply_hints(sql, &hints) {
                prop_assert!(
                    !analyzer.analyze(&fixed).dooms_execution(),
                    "repair doomed a sound candidate: {sql} -> {fixed}"
                );
            }
        }
    }

    #[test]
    fn repaired_decodes_always_execute(gc in catalog_strategy(), seed in 0u64..300) {
        // any winner a repairing consistency round returns must execute and
        // pass the gate, corrupted or not
        let catalog = gc.build();
        let tables = gc.workload_tables();
        let w = Workload::generate(&tables, 3, seed);
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.6, overconfidence: 0.9, seed });
        let analyzer = Analyzer::new(&catalog);
        let uq = ConsistencyUq::new(&lm, &analyzer).with_samples(5).with_repair(2);
        for task in &w.tasks {
            let table = &task.task.table;
            let schema = catalog.get(table).unwrap().table.schema().clone();
            let other: Vec<String> = catalog
                .table_names()
                .into_iter()
                .filter(|n| n != table)
                .collect();
            let prompt = Nl2SqlPrompt { task: task.task.clone(), schema, other_tables: other };
            if let Some(sql) = uq.run(&prompt).unwrap().chosen_sql {
                prop_assert!(!analyzer.execution_doomed(&sql), "accepted but doomed: {sql}");
                prop_assert!(
                    cda_sql::execute(&catalog, &sql).is_ok(),
                    "accepted but failed to execute: {sql}"
                );
            }
        }
    }
}

// ------------------------------------------------------- UQ repair pin

/// Tight enough that every `GROUP BY` over the generated tables (three
/// string values per column) and every plain row set (four rows) is over
/// budget, while single-row aggregates are within it.
const PIN_ROW_BUDGET: u64 = 2;

/// `name` with its middle character dropped — a misspelled table.
fn misspell(name: &str) -> String {
    let mut chars: Vec<char> = name.chars().collect();
    chars.remove(chars.len() / 2);
    chars.into_iter().collect()
}

/// The UQ repair pin's cases, recomputed on this build, grouped by
/// workload task as written (`t/as-is`) and with its table misspelled
/// (`t/misspelled`): per hallucination rate and repair-round count, every
/// field of the consistency round's report and the winner's SQL, over one
/// analyzer with statistics and a tight row budget.
fn uq_repair_cases() -> Vec<(String, Vec<String>)> {
    let gc = GenCatalog {
        tables: vec![
            (
                "employment".into(),
                vec![
                    ("canton".into(), DataType::Str),
                    ("jobs".into(), DataType::Int),
                    ("rate".into(), DataType::Float),
                ],
            ),
            (
                "wages".into(),
                vec![
                    ("sector".into(), DataType::Str),
                    ("wage".into(), DataType::Int),
                    ("index".into(), DataType::Float),
                ],
            ),
        ],
    };
    let catalog = gc.build();
    let stats = Statistics::from_catalog(&catalog);
    let analyzer = Analyzer::new(&catalog).with_stats(&stats).with_row_budget(PIN_ROW_BUDGET);
    let w = Workload::generate(&gc.workload_tables(), 12, 31);
    let mut groups = Vec::new();
    for (t, task) in w.tasks.iter().enumerate() {
        let table = &task.task.table;
        let schema = catalog.get(table).unwrap().table.schema().clone();
        let other: Vec<String> =
            catalog.table_names().into_iter().filter(|n| n != table).collect();
        for (variant, prompt_table) in [("as-is", table.clone()), ("misspelled", misspell(table))] {
            let mut task = task.task.clone();
            task.table = prompt_table;
            let prompt = Nl2SqlPrompt { task, schema: schema.clone(), other_tables: other.clone() };
            let mut cases = Vec::new();
            for pct in [20u32, 40, 60, 80] {
                let lm = SimLm::new(SimLmConfig {
                    hallucination_rate: f64::from(pct) / 100.0,
                    overconfidence: 0.9,
                    seed: t as u64 * 100 + u64::from(pct),
                });
                for rounds in 0..3 {
                    let round = ConsistencyUq::new(&lm, &analyzer)
                        .with_samples(5)
                        .with_repair(rounds)
                        .with_equivalence(true)
                        .run_with(&prompt, |_| Known::<QueryResult>::Unknown)
                        .unwrap();
                    let winner = round.winner.map_or_else(|| "-".to_owned(), |w| w.sql);
                    cases.push(format!("{pct}/{rounds}\t{:?}\t{winner}", round.report));
                }
            }
            groups.push((format!("{t}/{variant}"), cases));
        }
    }
    groups
}

/// One line of `uq_repair_pins.tsv`: a group and the FNV-1a of its cases.
fn pin_line(group: &str, cases: &[String]) -> String {
    format!("{group}\t{:016x}", fnv1a(cases.join("\n").as_bytes()))
}

/// Prints `uq_repair_pins.tsv`. Run it at the commit whose behaviour is to
/// be pinned: `cargo test -p cda-integration --test repair -- --ignored
/// --nocapture print_uq_repair_pins | grep -P '\t' > …/uq_repair_pins.tsv`.
#[test]
#[ignore = "generator for uq_repair_pins.tsv, not a check"]
fn print_uq_repair_pins() {
    for (group, cases) in uq_repair_cases() {
        println!("{}", pin_line(&group, &cases));
    }
}

/// Consistency UQ's repair of doomed samples — including the second round
/// that caps a repaired, over-budget sample with `LIMIT`, and the failure
/// of a sample repair leaves over budget — reproduces the pinned reports
/// and winners byte for byte.
#[test]
fn uq_repair_reports_and_winners_reproduce() {
    let pinned: Vec<&str> = include_str!("uq_repair_pins.tsv").lines().collect();
    let now = uq_repair_cases();
    assert_eq!(pinned.len(), now.len());
    // The corpus must reach the paths the pin is for.
    let cases: Vec<&String> = now.iter().flat_map(|(_, cases)| cases).collect();
    let salvaged = cases.iter().filter(|c| !c.contains("repaired: 0,")).count();
    assert!(salvaged > 20, "too few cases with a salvaged sample ({salvaged})");
    assert!(
        cases.iter().any(|c| c.contains("unknown table") && c.contains("LIMIT 2\"")),
        "no sample was repaired and then capped"
    );
    for (pin, (group, cases)) in pinned.iter().zip(&now) {
        let rendered = cases.join("\n");
        assert_eq!(*pin, pin_line(group, cases), "drifted; {group} now reads\n{rendered}");
    }
}

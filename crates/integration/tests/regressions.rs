//! Pinned regressions: inputs that previously panicked, and statements the
//! static gate judged wrongly.
//!
//! The first group exercises user-input-reachable paths that used to hit an
//! `unwrap`/`expect`/`unreachable!` and now return a structured error (or a
//! graceful empty result). If one of these starts panicking again, the
//! panic hardening has regressed. The second group pins statements whose
//! gate verdict the engines contradicted.

use cda_core::catalog::DatasetCatalog;
use cda_sql::execute;

/// An unterminated string literal whose opening quote is followed by a
/// multi-byte character. The lexer used to `expect` an in-bounds char while
/// scanning and could panic; it must now surface a lex error via `execute`.
#[test]
fn unterminated_multibyte_literal_errors_gracefully() {
    let cat = cda_core::demo::demo_catalog(7);
    let sql = "SELECT canton FROM wage_stats WHERE canton = 'Zürich";
    let err = execute(cat.sql(), sql);
    assert!(err.is_err(), "unterminated literal must be an error, got {err:?}");
}

/// Same shape, but the quote is the final byte of the input.
#[test]
fn quote_at_end_of_input_errors_gracefully() {
    let cat = cda_core::demo::demo_catalog(7);
    assert!(execute(cat.sql(), "SELECT canton FROM wage_stats WHERE canton = '").is_err());
}

/// A numeric fold over a text column reaches the execution engine (the
/// planner does not type-check aggregates); the aggregate kernel used to hit
/// an `unreachable!` for non-numeric folds and now reports an eval error.
#[test]
fn sum_over_text_column_is_an_error_not_a_panic() {
    let cat = cda_core::demo::demo_catalog(7);
    let err = execute(cat.sql(), "SELECT SUM(canton) FROM wage_stats");
    assert!(err.is_err(), "SUM over Str must be an error, got {err:?}");
    // And the static analyzer flags it *before* execution (code A004).
    assert!(cda_analyzer::Analyzer::new(cat.sql())
        .execution_doomed("SELECT SUM(canton) FROM wage_stats"));
}

/// Discovery over an empty catalog used to panic building the brute-force
/// vector set; it must now simply find nothing.
#[test]
fn discover_on_empty_catalog_returns_empty() {
    let cat = DatasetCatalog::new();
    assert!(cat.discover("employment trends", 3, false).is_empty());
    assert!(cat.discover("employment trends", 3, true).is_empty());
}

/// The full dialogue loop over malformed analytical input must abstain or
/// clarify, never panic — this drives the lexer/planner/exec error paths
/// end-to-end through the orchestrator.
#[test]
fn dialogue_survives_malformed_analytical_phrasing() {
    let mut sys = cda_core::demo::demo_session(7);
    for utterance in [
        "sum the 'unfinished",
        "average of nothing by nothing",
        "ORDER BY ORDER BY",
        "",
    ] {
        let turn = sys.process(utterance);
        assert!(!turn.text.is_empty(), "turn must carry a message for {utterance:?}");
    }
}

// ------------------------------------------------ unsound gate verdicts
//
// Statements the static gate used to pass (or certify as provably empty or
// a provable no-op) while both engines rejected them or answered wrongly:
// the gate's own name-and-type pass and the binder each assumed the other
// enforced the types. Each must now be an A004 reject with nothing
// compiled, refused by the binder before either engine runs.

/// Gate, compile and both engines on `demo_world(7)`: an A004 reject,
/// `compiled = None`, and a bind-time error on both engines.
fn assert_refused_at_bind(sql: &str) {
    use cda_analyzer::Code;
    use cda_sql::{execute_with_options, ExecOptions};
    let world = cda_core::demo::demo_world(7);
    let catalog = world.catalog();
    let analyzer = cda_analyzer::Analyzer::new(catalog.sql()).with_stats(catalog.stats());
    let (report, compiled) = analyzer.gate(sql);
    assert!(
        report.findings.iter().any(|f| f.code == Code::TypeMismatch),
        "{sql}: {}",
        report.summary()
    );
    assert!(report.dooms_execution(), "{sql}");
    assert!(compiled.is_none(), "{sql}: compiled despite a bind fault");
    let bound = cda_sql::compile(catalog.sql(), sql);
    assert!(bound.is_err(), "{sql}: the binder accepted it");
    let stmt = cda_sql::parser::parse_statement(sql).unwrap();
    if stmt.is_write() {
        assert!(cda_sql::plan_dml(catalog.sql(), &stmt).is_err(), "{sql}");
        let mut session = cda_core::demo::demo_session(7);
        let decision = session.apply_sql(sql).unwrap();
        assert!(
            matches!(decision, cda_core::mutation::WriteDecision::Rejected { .. }),
            "{sql}: {decision:?}"
        );
    } else {
        for opts in [ExecOptions::default(), ExecOptions::vectorized()] {
            let err = execute_with_options(catalog.sql(), sql, opts);
            assert_eq!(err.err(), bound.clone().err(), "{sql}: not refused at bind");
        }
    }
}

/// Was gated A015 "provably empty" while both engines failed `LIKE expects STR`.
#[test]
fn like_over_a_float_column_is_a_bind_fault() {
    assert_refused_at_bind("SELECT canton FROM wage_stats WHERE median_wage LIKE 'a%'");
}

/// Was gated A021 with `provable_noop = true` while `apply_sql` errored.
#[test]
fn like_over_a_float_column_in_a_delete_is_a_bind_fault() {
    assert_refused_at_bind("DELETE FROM wage_stats WHERE median_wage LIKE 'a%'");
}

/// Was gated A021 with `provable_noop = true` while `apply_sql` errored.
#[test]
fn like_over_a_float_column_in_an_update_is_a_bind_fault() {
    assert_refused_at_bind("UPDATE wage_stats SET median_wage = 1 WHERE median_wage LIKE 'a%'");
}

/// Was gate-clean while both engines failed `NOT expects BOOL`.
#[test]
fn not_over_a_str_column_is_a_bind_fault() {
    assert_refused_at_bind("SELECT NOT canton FROM wage_stats");
}

/// Was gate-clean while both engines failed `AND expects BOOL`.
#[test]
fn and_over_a_str_column_is_a_bind_fault() {
    assert_refused_at_bind("SELECT canton FROM wage_stats WHERE canton AND median_wage > 0");
}

/// Was gate-clean while both engines answered 0.
#[test]
fn a_str_where_clause_is_a_bind_fault() {
    assert_refused_at_bind("SELECT COUNT(*) FROM wage_stats WHERE canton");
}

/// Was gate-clean while both engines answered 0 rows.
#[test]
fn a_float_where_clause_is_a_bind_fault() {
    assert_refused_at_bind("SELECT canton FROM wage_stats WHERE median_wage");
}

/// Was gate-clean while both engines answered 0 rows.
#[test]
fn a_str_having_clause_is_a_bind_fault() {
    assert_refused_at_bind("SELECT canton FROM wage_stats GROUP BY canton HAVING MAX(canton)");
}

/// Was gate-clean while both engines took the ELSE arm on all 24 rows.
#[test]
fn a_str_case_condition_is_a_bind_fault() {
    assert_refused_at_bind("SELECT CASE WHEN canton THEN 1 ELSE 2 END FROM wage_stats");
}

/// Was gate-clean while `apply_sql` "applied" it with 0 rows affected.
#[test]
fn a_str_delete_predicate_is_a_bind_fault() {
    assert_refused_at_bind("DELETE FROM wage_stats WHERE canton");
}

/// Was gated A006 "provably empty" while both engines answered one row,
/// `[0]`: a grouping-free aggregate over an empty filter still yields a row,
/// so the filter's emptiness does not reach the result. A constant-FALSE
/// filter whose emptiness does reach it stays A006.
#[test]
fn an_empty_filter_under_a_global_aggregate_is_not_provably_empty() {
    use cda_analyzer::Code;
    use cda_sql::{execute_with_options, ExecOptions};
    let world = cda_core::demo::demo_world(7);
    let catalog = world.catalog();
    let analyzer = cda_analyzer::Analyzer::new(catalog.sql()).with_stats(catalog.stats());
    let empty = |sql: &str| {
        let (report, compiled) = analyzer.gate(sql);
        assert!(compiled.is_some(), "{sql}: {}", report.summary());
        let empty = |f: &cda_analyzer::Finding| {
            matches!(f.code, Code::UnsatisfiablePredicate | Code::ProvablyEmpty)
        };
        report.findings.iter().any(empty)
    };
    for sql in [
        "SELECT COUNT(*) FROM wage_stats WHERE 1 = 2",
        "SELECT COUNT(*), MAX(median_wage) FROM wage_stats WHERE NULL",
    ] {
        assert!(!empty(sql), "{sql}: gated provably empty");
        for opts in [ExecOptions::default(), ExecOptions::vectorized()] {
            let out = execute_with_options(catalog.sql(), sql, opts).unwrap();
            assert_eq!(out.table.num_rows(), 1, "{sql}");
        }
    }
    for sql in [
        "SELECT canton FROM wage_stats WHERE 1 = 2",
        "SELECT canton, COUNT(*) FROM wage_stats WHERE 1 = 2 GROUP BY canton",
        "SELECT COUNT(*) FROM wage_stats HAVING 1 = 2",
    ] {
        assert!(empty(sql), "{sql}: not gated provably empty");
        for opts in [ExecOptions::default(), ExecOptions::vectorized()] {
            let out = execute_with_options(catalog.sql(), sql, opts).unwrap();
            assert_eq!(out.table.num_rows(), 0, "{sql}");
        }
    }
}

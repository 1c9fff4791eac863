//! Pins for [`Finding::render`]: the rendering of every code and of the
//! estimated-rows payload (including the `u64::MAX` = "inf" upper bound),
//! byte-identical to earlier releases. `render` is the single formatting
//! entry point for annotations, summaries, dialogue notes, and benches, so
//! a one-byte drift here silently breaks every transcript pin in the
//! workspace.

use cda_analyzer::{Code, Finding, Report};

/// Every stable code, paired with its code string and severity label.
const CODES: &[(Code, &str, &str)] = &[
    (Code::SyntaxError, "A001", "reject"),
    (Code::UnknownTable, "A002", "reject"),
    (Code::UnknownColumn, "A003", "reject"),
    (Code::TypeMismatch, "A004", "reject"),
    (Code::BareColumn, "A005", "reject"),
    (Code::UnsatisfiablePredicate, "A006", "reject"),
    (Code::TautologicalFilter, "A007", "warn"),
    (Code::DivisionByZero, "A008", "reject"),
    (Code::CartesianJoin, "A009", "warn"),
    (Code::ColumnOutOfRange, "A010", "reject"),
    (Code::LimitZero, "A011", "warn"),
    (Code::SuspiciousComparison, "A012", "warn"),
    (Code::RowBudgetExceeded, "A013", "warn"),
    (Code::UncertifiedRewrite, "A014", "warn"),
    (Code::ProvablyEmpty, "A015", "warn"),
    (Code::DataGroundedTautology, "A016", "warn"),
    (Code::ProvablyNullColumn, "A017", "warn"),
    (Code::ProvableRuntimeError, "A018", "reject"),
    (Code::UnknownWriteTarget, "A019", "reject"),
    (Code::WriteShapeMismatch, "A020", "reject"),
    (Code::ProvablyNoopWrite, "A021", "warn"),
    (Code::FullTableDelete, "A022", "warn"),
    (Code::NarrowingWrite, "A023", "warn"),
];

#[test]
fn default_rendering_is_pinned_byte_identical() {
    // The historical format, spelled out byte for byte: row bounds shown
    // when attached.
    let cases = [
        (Finding::new(Code::UnknownTable, "unknown table `emp`"), "[A002 reject] unknown table `emp`"),
        (
            Finding::new(Code::CartesianJoin, "join has no relating predicate")
                .with_estimated_rows((100, 10_000)),
            "[A009 warn] join has no relating predicate (estimated rows 100..10000)",
        ),
        (
            Finding::new(Code::RowBudgetExceeded, "estimate exceeds budget")
                .with_estimated_rows((1, u64::MAX)),
            "[A013 warn] estimate exceeds budget (estimated rows 1..inf)",
        ),
    ];
    for (f, want) in cases {
        assert_eq!(f.render(), want);
    }
}

#[test]
fn unbounded_upper_estimate_renders_as_inf_everywhere() {
    let f = Finding::new(Code::RowBudgetExceeded, "m").with_estimated_rows((0, u64::MAX));
    let report = Report { findings: vec![f.clone()], ..Report::default() };
    for r in [f.render(), report.summary(), report.annotations().concat()] {
        assert!(r.ends_with("(estimated rows 0..inf)"), "{r}");
        assert!(!r.contains(&u64::MAX.to_string()), "{r}");
    }
}

#[test]
fn absint_findings_render_pinned() {
    // The message shapes `Analyzer::absint_pass` produces for A015..A018,
    // pinned byte for byte.
    let cases = [
        (
            Finding::new(
                Code::ProvablyEmpty,
                "abstract interpretation proves the result is empty: the WHERE predicate \
                 (jobs < 10 AND jobs > 20) selects no row",
            ),
            "[A015 warn] abstract interpretation proves the result is empty: the WHERE \
             predicate (jobs < 10 AND jobs > 20) selects no row",
        ),
        (
            Finding::new(
                Code::DataGroundedTautology,
                "the WHERE condition is true on every row of the current data and has no effect",
            ),
            "[A016 warn] the WHERE condition is true on every row of the current data and \
             has no effect",
        ),
        (
            Finding::new(Code::ProvablyNullColumn, "output column \"gap\" is provably NULL in every result row"),
            "[A017 warn] output column \"gap\" is provably NULL in every result row",
        ),
        (
            Finding::new(Code::ProvableRuntimeError, "evaluating n / z provably fails at runtime"),
            "[A018 reject] evaluating n / z provably fails at runtime",
        ),
    ];
    for (f, want) in cases {
        assert_eq!(f.render(), want);
    }
}

#[test]
fn dml_gate_findings_render_pinned() {
    // The message shapes `Analyzer::gate` produces for A019..A023,
    // pinned byte for byte.
    let cases = [
        (
            Finding::new(
                Code::UnknownWriteTarget,
                "the write targets table \"emp2\", which does not exist (available: emp)",
            ),
            "[A019 reject] the write targets table \"emp2\", which does not exist \
             (available: emp)",
        ),
        (
            Finding::new(
                Code::WriteShapeMismatch,
                "an INSERT row supplies 2 values for 3 columns",
            ),
            "[A020 reject] an INSERT row supplies 2 values for 3 columns",
        ),
        (
            Finding::new(
                Code::ProvablyNoopWrite,
                "the UPDATE provably affects no rows: its WHERE clause constant-folds to FALSE",
            ),
            "[A021 warn] the UPDATE provably affects no rows: its WHERE clause \
             constant-folds to FALSE",
        ),
        (
            Finding::new(
                Code::FullTableDelete,
                "the DELETE provably removes every row of \"emp\" (it has no WHERE clause)",
            ),
            "[A022 warn] the DELETE provably removes every row of \"emp\" (it has no \
             WHERE clause)",
        ),
        (
            Finding::new(
                Code::NarrowingWrite,
                "writing a FLOAT value into INT column emp.id narrows the stored type and \
                 aborts on any fractional value",
            ),
            "[A023 warn] writing a FLOAT value into INT column emp.id narrows the stored \
             type and aborts on any fractional value",
        ),
    ];
    for (f, want) in cases {
        assert_eq!(f.render(), want);
    }
}

/// Every `Code` variant, from one list written twice: as a `match` with no
/// wildcard arm, so a new variant does not compile until it is listed, and
/// as the array the test below walks.
macro_rules! every_code {
    ($($variant:ident)*) => {{
        fn _exhaustive(code: Code) {
            match code {
                $(Code::$variant => {})*
            }
        }
        [$(Code::$variant),*]
    }};
}

#[test]
fn every_code_variant_has_a_row_in_codes() {
    let every = every_code!(
        SyntaxError UnknownTable UnknownColumn TypeMismatch BareColumn UnsatisfiablePredicate
        TautologicalFilter DivisionByZero CartesianJoin ColumnOutOfRange LimitZero
        SuspiciousComparison RowBudgetExceeded UncertifiedRewrite ProvablyEmpty
        DataGroundedTautology ProvablyNullColumn ProvableRuntimeError UnknownWriteTarget
        WriteShapeMismatch ProvablyNoopWrite FullTableDelete NarrowingWrite
    );
    for code in every {
        assert!(CODES.iter().any(|(c, _, _)| *c == code), "Code::{code:?} has no row in CODES");
    }
}

#[test]
fn every_code_renders_its_stable_code_and_severity() {
    for (code, code_str, sev) in CODES {
        let r = Finding::new(*code, "m").render();
        assert_eq!(r, format!("[{code_str} {sev}] m"));
    }
}

//! Matrix suite for [`Finding::render`]: every combination of attached
//! payloads (span × estimated-rows, including the `u64::MAX` = "inf" upper
//! bound) against every [`RenderOpts`] setting, plus pins that keep the
//! *default* rendering byte-identical to earlier releases. `render` is the
//! single formatting entry point for annotations, summaries, dialogue notes,
//! and benches, so a one-byte drift here silently breaks every transcript
//! pin in the workspace.

use cda_analyzer::{Code, Finding, RenderOpts};

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

/// The four payload shapes a finding can carry.
fn payload_shapes() -> Vec<(&'static str, Finding)> {
    let base = || Finding::new(Code::CartesianJoin, "m");
    vec![
        ("bare", base()),
        ("span only", base().with_span(7..11)),
        ("rows only", base().with_estimated_rows((3, 42))),
        ("span + rows", base().with_span(7..11).with_estimated_rows((3, 42))),
    ]
}

/// The four option settings.
fn opt_matrix() -> Vec<RenderOpts> {
    let mut out = Vec::new();
    for with_span in [false, true] {
        for with_estimated_rows in [false, true] {
            out.push(RenderOpts { with_span, with_estimated_rows });
        }
    }
    out
}

/// Expected rendering computed independently of the implementation.
fn expected(f: &Finding, opts: &RenderOpts) -> String {
    let mut s = format!("[{} {}] {}", f.code.as_str(), f.severity, f.message);
    if opts.with_estimated_rows {
        if let Some((lo, hi)) = f.estimated_rows {
            let hi = if hi == u64::MAX { "inf".to_owned() } else { hi.to_string() };
            s.push_str(&format!(" (estimated rows {lo}..{hi})"));
        }
    }
    if opts.with_span {
        if let Some(span) = &f.span {
            s.push_str(&format!(" (span {}..{})", span.start, span.end));
        }
    }
    s
}

#[test]
fn every_payload_and_option_combination_renders_as_specified() {
    for (label, f) in payload_shapes() {
        for opts in opt_matrix() {
            assert_eq!(f.render(&opts), expected(&f, &opts), "{label} under {opts:?}");
        }
    }
}

#[test]
fn default_rendering_is_pinned_byte_identical() {
    let opts = RenderOpts::default();
    assert_eq!(opts, RenderOpts { with_span: false, with_estimated_rows: true });

    // The historical format, spelled out byte for byte: row bounds shown
    // when attached, spans never shown.
    let cases = [
        (Finding::new(Code::UnknownTable, "unknown table `emp`"), "[A002 reject] unknown table `emp`"),
        (
            Finding::new(Code::UnknownTable, "unknown table `emp`").with_span(14..17),
            "[A002 reject] unknown table `emp`",
        ),
        (
            Finding::new(Code::CartesianJoin, "join has no relating predicate")
                .with_estimated_rows((100, 10_000)),
            "[A009 warn] join has no relating predicate (estimated rows 100..10000)",
        ),
        (
            Finding::new(Code::RowBudgetExceeded, "estimate exceeds budget")
                .with_span(0..6)
                .with_estimated_rows((1, u64::MAX)),
            "[A013 warn] estimate exceeds budget (estimated rows 1..inf)",
        ),
    ];
    for (f, want) in cases {
        assert_eq!(f.render(&opts), want);
    }
}

#[test]
fn unbounded_upper_estimate_renders_as_inf_everywhere() {
    let f = Finding::new(Code::RowBudgetExceeded, "m").with_estimated_rows((0, u64::MAX));
    for opts in opt_matrix() {
        let r = f.render(&opts);
        if opts.with_estimated_rows {
            assert!(r.ends_with("(estimated rows 0..inf)"), "{r}");
            assert!(!r.contains(&u64::MAX.to_string()), "{r}");
        } else {
            assert!(!r.contains("estimated rows"), "{r}");
        }
    }
}

#[test]
fn span_payload_appears_only_when_opted_in() {
    let f = Finding::new(Code::UnknownColumn, "m").with_span(3..9);
    let on = f.render(&RenderOpts { with_span: true, with_estimated_rows: true });
    assert!(on.ends_with("(span 3..9)"), "{on}");
    let off = f.render(&RenderOpts { with_span: false, with_estimated_rows: true });
    assert!(!off.contains("span"), "{off}");
}

#[test]
fn rows_precede_span_when_both_are_attached_and_enabled() {
    let f = Finding::new(Code::CartesianJoin, "m")
        .with_span(1..2)
        .with_estimated_rows((5, 6));
    let r = f.render(&RenderOpts { with_span: true, with_estimated_rows: true });
    assert_eq!(r, "[A009 warn] m (estimated rows 5..6) (span 1..2)");
}

#[test]
fn absint_findings_render_pinned() {
    // The message shapes `Analyzer::absint_pass` produces for A015..A018,
    // pinned byte for byte under the default options.
    let opts = RenderOpts::default();
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
        assert_eq!(f.render(&opts), want);
    }
}

#[test]
fn dml_gate_findings_render_pinned() {
    // The message shapes `Analyzer::gate` produces for A019..A023,
    // pinned byte for byte under the default options.
    let opts = RenderOpts::default();
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
        assert_eq!(f.render(&opts), want);
    }
}

#[test]
fn every_code_renders_its_stable_code_and_severity() {
    for (code, code_str, sev) in CODES {
        let r = Finding::new(*code, "m").render(&RenderOpts::default());
        assert_eq!(r, format!("[{code_str} {sev}] m"));
    }
}

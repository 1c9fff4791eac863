//! **E18** — abstract-interpretation plan analysis: catch-rate delta over
//! the shallow gate, zero false rejects, cardinality sharpening, and the
//! runtime sanitizer's overhead.
//!
//! Four measurements:
//!
//! 1. **Catch-rate delta** — a pinned corpus of defective-but-parseable
//!    queries (contradictory predicates, statistics-refuted ranges,
//!    NULL-literal comparisons, data-grounded tautologies, provably-NULL
//!    outputs, a column-divisor division by zero) analyzed with the absint
//!    pass off (the A001–A014 gate) and on (adds A015–A018). Each of the
//!    four new codes must fire at least once, and the pass must flag
//!    strictly more of the corpus than the shallow gate alone.
//! 2. **False rejects** — every A015 the analyzer reports must execute to
//!    an empty result and every A018 must genuinely fail at runtime;
//!    additionally a gold list of sound queries must gain no A015/A018.
//!    Both counts must be 0.
//! 3. **Cardinality sharpening** — width of the cost pass's row-count
//!    interval with absint on vs off: bounds may only narrow (soundness)
//!    and must strictly narrow somewhere on the pinned corpus.
//! 4. **Sanitizer** — `execute_plan_checked` (every materialized node
//!    output re-checked against its static domain) on an 8k-row catalog,
//!    both engines: every checked execution must succeed. Its overhead vs
//!    plain `execute_plan` is printed as information, not gated.
//!
//! A fast budget reduces timing repetitions.

use cda_analyzer::{domain_tree, Analyzer, Code, Statistics};
use crate::{clock, mean, row, Budget, Cell, Experiment};
use cda_dataframe::{Column, DataType, Field, Schema, Table};
use cda_sql::exec::{execute_plan, execute_plan_checked};
use cda_sql::{execute, optimizer, parser, planner, Catalog, ExecOptions, OptimizerRules};
use cda_testkit::rng::StdRng;

/// Small statistics-bearing catalog: `emp` with a nullable int column, plus
/// `zt` whose `z` column's domain is exactly `{0}` (the A018 shape A008's
/// literal check cannot see).
fn analysis_catalog() -> Catalog {
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
    .unwrap();
    let zt = Table::from_columns(
        Schema::new(vec![Field::new("n", DataType::Int), Field::new("z", DataType::Int)]),
        vec![Column::from_ints(&[1, 2]), Column::from_ints(&[0, 0])],
    )
    .unwrap();
    c.register("emp", emp).unwrap();
    c.register("zt", zt).unwrap();
    c
}

/// Defective-but-parseable queries the shallow A001–A014 gate mostly waves
/// through; abstract interpretation should flag every one.
fn defective() -> Vec<&'static str> {
    vec![
        "SELECT canton FROM emp WHERE jobs = 5 AND jobs = 6",
        "SELECT canton FROM emp WHERE jobs < 10 AND jobs > 20",
        "SELECT canton FROM emp WHERE jobs > 100000",
        "SELECT canton FROM emp WHERE jobs = NULL",
        "SELECT canton FROM emp WHERE canton LIKE 'Z%' AND canton LIKE 'ab%'",
        "SELECT canton FROM emp WHERE canton IS NOT NULL",
        "SELECT canton FROM emp WHERE rate BETWEEN 0.0 AND 100.0",
        "SELECT jobs + NULL FROM emp",
        "SELECT canton, NULL AS gap FROM emp",
        "SELECT n / z FROM zt",
    ]
}

/// Sound queries the deep pass must not reject (the gold list of the
/// zero-false-reject gate).
fn gold() -> Vec<&'static str> {
    vec![
        "SELECT canton FROM emp WHERE jobs > 50",
        "SELECT sector, SUM(jobs) FROM emp GROUP BY sector ORDER BY sector",
        "SELECT canton FROM emp WHERE jobs IS NULL",
        "SELECT canton FROM emp WHERE rate < 1.0 OR sector = 'it'",
        "SELECT COUNT(*), AVG(rate) FROM emp",
        "SELECT DISTINCT sector FROM emp ORDER BY sector LIMIT 2",
        "SELECT CASE WHEN jobs > 100 THEN 'big' ELSE 'small' END FROM emp",
        "SELECT n FROM zt WHERE n > 1",
    ]
}

fn codes(r: &cda_analyzer::Report) -> String {
    let mut cs: Vec<&str> = r.findings.iter().map(|f| f.code.as_str()).collect();
    cs.sort_unstable();
    cs.dedup();
    if cs.is_empty() {
        "clean".into()
    } else {
        cs.join("+")
    }
}

fn width(r: &cda_analyzer::Report) -> Option<u64> {
    r.estimate.as_ref().map(|e| e.hi.saturating_sub(e.lo))
}

/// 8k-row catalog for the sanitizer-overhead measurement (the E17 shape).
fn exec_catalog(rows: usize) -> Catalog {
    let mut rng = StdRng::seed_from_u64(7);
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
    c
}

/// Run E18.
pub fn run(budget: &Budget) -> Experiment {
    let reps = if budget.fast { 40 } else { 150 };
    let mut e = Experiment::new(
        "E18",
        "abstract interpretation: catch-rate delta, 0 false rejects, sanitizer cost",
    );

    let c = analysis_catalog();
    let stats = Statistics::from_catalog(&c);
    let deep = Analyzer::new(&c).with_stats(&stats);
    let shallow = Analyzer::new(&c).with_stats(&stats).with_absint(false);
    // Every broken obligation, one row each; printed only when non-empty.
    let mut violations = crate::Table::new("violations", &["kind", "query"]);

    // ---- 1. catch-rate delta on the defective corpus ---------------------
    let mut corpus = crate::Table::new(
        "defective corpus: shallow gate (A001-A014) vs absint on",
        &["query", "shallow", "absint"],
    );
    let mut shallow_flagged = 0usize;
    let mut deep_flagged = 0usize;
    let mut fired = std::collections::BTreeSet::new();
    let mut false_rejects = 0usize;
    for sql in defective() {
        let r0 = shallow.analyze(sql);
        let r1 = deep.analyze(sql);
        if !r0.is_clean() {
            shallow_flagged += 1;
        }
        if !r1.is_clean() {
            deep_flagged += 1;
        }
        for f in &r1.findings {
            fired.insert(f.code.as_str().to_string());
            // The zero-false-reject obligation: A015 must mean "actually
            // empty", A018 must mean "actually fails".
            match f.code {
                Code::ProvablyEmpty if execute(&c, sql).map(|r| r.table.num_rows()) != Ok(0) => {
                    false_rejects += 1;
                    row!(violations; "false A015", sql);
                }
                Code::ProvableRuntimeError if execute(&c, sql).is_ok() => {
                    false_rejects += 1;
                    row!(violations; "false A018", sql);
                }
                _ => {}
            }
        }
        row!(corpus; sql, codes(&r0), codes(&r1));
    }
    let new_codes = ["A015", "A016", "A017", "A018"];
    let all_fire = new_codes.iter().all(|code| fired.contains(*code));

    // ---- 2. the gold list gains no rejections ----------------------------
    let mut gold_rejects = 0usize;
    for sql in gold() {
        let r = deep.analyze(sql);
        if r.findings.iter().any(|f| {
            matches!(f.code, Code::ProvablyEmpty | Code::ProvableRuntimeError)
        }) {
            gold_rejects += 1;
            row!(violations; format!("gold rejected ({})", codes(&r)), sql);
        }
    }
    let mut flagged = crate::Table::new("catch-rate delta", &["measure", "value"]);
    let n = defective().len();
    row!(flagged; "flagged by the shallow gate", format!("{shallow_flagged}/{n}"));
    row!(flagged; "flagged with absint", format!("{deep_flagged}/{n}"));
    row!(flagged; "new codes fired", fired.iter().cloned().collect::<Vec<_>>().join(","));
    e.tables.push(corpus);
    e.tables.push(flagged);

    // ---- 3. cardinality bound sharpening ---------------------------------
    let mut bounds = crate::Table::new(
        "cost-pass row-count interval width: absint off vs on",
        &["query", "off", "on"],
    );
    let mut widened = 0usize;
    let mut strictly_narrowed = 0usize;
    for sql in defective().into_iter().chain(gold()) {
        let off = shallow.analyze(sql);
        let on = deep.analyze(sql);
        if let (Some(w0), Some(w1)) = (width(&off), width(&on)) {
            if w1 > w0 {
                widened += 1;
                row!(violations; "widened bound", sql);
            }
            if w1 < w0 {
                strictly_narrowed += 1;
            }
            row!(bounds; sql, w0, w1);
        }
    }
    e.tables.push(bounds);

    // ---- 4. sanitizer overhead on both engines ---------------------------
    let ec = exec_catalog(8_000);
    let estats = Statistics::from_catalog(&ec);
    let exec_corpus = [
        "SELECT g, COUNT(*) AS n, SUM(x) AS s, AVG(y) AS a FROM t GROUP BY g ORDER BY s DESC",
        "SELECT g, x + 1, y * 2.0 FROM t WHERE x % 7 = 0 AND y < 0.5 ORDER BY x, g LIMIT 200",
        "SELECT DISTINCT g FROM t WHERE y BETWEEN 0.25 AND 0.75 ORDER BY g",
    ];
    let mut sanitizer = crate::Table::new(
        format!("sanitizer overhead ({reps} reps per cell, 8k rows)"),
        &["query", "engine", "plain", "checked", "checked/plain"],
    );
    let mut overheads = Vec::new();
    let mut checked_failures = 0usize;
    for sql in exec_corpus {
        let select = parser::parse(sql).unwrap();
        let plan =
            optimizer::optimize(planner::plan_select(&ec, &select).unwrap(), OptimizerRules::all());
        let tree = domain_tree(&plan, Some(&estats));
        for (engine, opts) in [("row", ExecOptions::default()), ("vec", ExecOptions::vectorized())]
        {
            if let Err(err) = execute_plan_checked(&ec, &plan, opts, Some(&tree)) {
                checked_failures += 1;
                row!(violations; format!("checked execution failed ({engine}): {err}"), sql);
                continue;
            }
            let (_, plain) = clock(reps, || execute_plan(&ec, &plan, opts).unwrap());
            let (_, checked) =
                clock(reps, || execute_plan_checked(&ec, &plan, opts, Some(&tree)).unwrap());
            let ratio = checked.as_secs_f64() / plain.as_secs_f64();
            overheads.push(ratio);
            row!(sanitizer; sql, engine, plain, checked, Cell::TimeRatio(ratio));
        }
    }
    e.tables.push(sanitizer);
    let mut mean_overhead = crate::Table::new(
        "sanitizer overhead (information, not gated)",
        &["cells", "mean checked/plain"],
    );
    row!(mean_overhead; overheads.len(), Cell::TimeRatio(mean(&overheads)));
    e.tables.push(mean_overhead);
    if !violations.rows.is_empty() {
        e.tables.push(violations);
    }

    e.gate(
        "catch delta > 0",
        format!("+{}", deep_flagged as i64 - shallow_flagged as i64),
        deep_flagged > shallow_flagged,
    );
    e.gate("A015-A018 all fire", all_fire, all_fire);
    e.gate("false rejects == 0", false_rejects, false_rejects == 0);
    e.gate("gold rejects == 0", gold_rejects, gold_rejects == 0);
    e.gate("widened bounds == 0", widened, widened == 0);
    e.gate("strictly narrowed bounds > 0", strictly_narrowed, strictly_narrowed > 0);
    e.gate("failed checked executions == 0", checked_failures, checked_failures == 0);
    e
}

//! The experiment registry. Every experiment of the DESIGN.md §4 index is a
//! function `fn(&Budget) -> Experiment` in its own module, [`REGISTRY`]
//! maps ids to those functions in index order, and the `exp` binary
//! (`src/bin/exp.rs`) runs them: `exp E5`, `exp --all`, `--fast`.
//!
//! An [`Experiment`] is data — an id, a title, typed [`Table`]s and named
//! [`Gate`]s — and [`render`] is the one place it becomes text. Clock
//! readings are typed cells ([`Cell::Time`], [`Cell::TimeRatio`]) that the
//! renderer writes to stderr only, so stdout is a pure function of the seeds
//! and the budget: `crates/bench/golden_fast.txt` pins `exp --all --fast`,
//! and CI diffs against it. No gate reads a clock; `exp` exits non-zero iff
//! a gate fails. Speed is the `perf/` benchmark's job.
//!
//! ## The lab
//!
//! The experiments' apparatus — code that neither `Session` nor `Server`
//! reaches — lives here too, in `src/lab/`, and not in the product crates
//! (DESIGN.md §6). Each lab module keeps the name it had when it lived in a
//! product crate:
//!
//! | Module | What | Used by |
//! |---|---|---|
//! | [`ivf`], [`hnsw`], [`lsh`] | IVF-Flat, HNSW and LSH baseline indexes | E1 |
//! | [`learned`] | learned early termination on HNSW | E2 |
//! | [`eval`] | ground truth, recall@k, MRR, NDCG | E1–E3, E8 |
//! | [`calibration`] | ECE, Brier score, AUROC | F2, E5 |
//! | [`selective`] | risk–coverage analysis of abstention | E6 |
//! | [`constrained`] | the decoding ablation's [`constrained::Decoder`] | E7 |
//! | [`forecast`] | seasonal-naive and drift baselines, MAE | E10 |
//! | [`query`] | the basic-graph-pattern (BGP) engine | E12 |
//! | [`loadgen`] | deterministic multi-session turn scripts | E19, E20 |

use std::fmt;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// One module per experiment; each exposes `run(&Budget) -> Experiment`.
mod experiments {
    pub mod absint;
    pub mod abstention;
    pub mod ann_tradeoff;
    pub mod calibration;
    pub mod cardinality;
    pub mod decoding;
    pub mod dml;
    pub mod durability;
    pub mod equiv;
    pub mod grounding;
    pub mod guidance;
    pub mod interplay;
    pub mod kg_scale;
    pub mod learned_termination;
    pub mod provenance;
    pub mod repair;
    pub mod seasonality;
    pub mod server;
    pub mod sql_optimizer;
    pub mod static_gate;
    pub mod vectorized;
}

// The lab (crate docs above): declared at the crate root, so each module
// keeps the path it had in its product crate, unit tests included.
#[path = "lab/calibration.rs"]
pub mod calibration;
#[path = "lab/constrained.rs"]
pub mod constrained;
#[path = "lab/eval.rs"]
pub mod eval;
#[path = "lab/forecast.rs"]
pub mod forecast;
#[path = "lab/hnsw.rs"]
pub mod hnsw;
#[path = "lab/ivf.rs"]
pub mod ivf;
#[path = "lab/learned.rs"]
pub mod learned;
#[path = "lab/loadgen.rs"]
pub mod loadgen;
#[path = "lab/lsh.rs"]
pub mod lsh;
#[path = "lab/query.rs"]
pub mod query;
#[path = "lab/selective.rs"]
pub mod selective;

use experiments::*;

/// How large to make each experiment: the one knob `exp` takes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// CI sizes (`--fast`): fewer sessions, seeds and timing repetitions.
    /// Experiments without a cheaper variant ignore it.
    pub fast: bool,
}

/// An experiment's entry point.
pub type Run = fn(&Budget) -> Experiment;

/// Every experiment, in DESIGN.md §4 order. F1 is the `quickstart` example
/// and E9 is retired to `perf/`, so neither is here.
pub const REGISTRY: &[(&str, Run)] = &[
    ("F2", interplay::run),
    ("E1", ann_tradeoff::run),
    ("E2", learned_termination::run),
    ("E3", grounding::run),
    ("E4", provenance::run),
    ("E5", experiments::calibration::run),
    ("E6", abstention::run),
    ("E7", decoding::run),
    ("E8", guidance::run),
    ("E10", seasonality::run),
    ("E11", sql_optimizer::run),
    ("E12", kg_scale::run),
    ("E13", static_gate::run),
    ("E14", cardinality::run),
    ("E15", repair::run),
    ("E16", equiv::run),
    ("E17", vectorized::run),
    ("E18", absint::run),
    ("E19", server::run),
    ("E20", durability::run),
    ("E21", dml::run),
];

/// One table cell. Clock readings are typed so the renderer can keep them
/// off stdout.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Deterministic text: a label, a count, a verdict.
    Text(String),
    /// A deterministic number, printed with three decimals.
    Num(f64),
    /// A wall-clock reading (stderr only).
    Time(Duration),
    /// A number computed from wall-clock readings — a speedup, an overhead
    /// share, a rate (stderr only).
    TimeRatio(f64),
}

impl Cell {
    /// Whether the cell is a clock reading, i.e. goes to stderr.
    fn is_clock(&self) -> bool {
        matches!(self, Cell::Time(_) | Cell::TimeRatio(_))
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.write_str(s),
            Cell::Num(x) | Cell::TimeRatio(x) => write!(f, "{x:.3}"),
            Cell::Time(d) => write!(f, "{:.1}us", d.as_secs_f64() * 1e6),
        }
    }
}

impl From<f64> for Cell {
    fn from(x: f64) -> Self {
        Cell::Num(x)
    }
}

impl From<Duration> for Cell {
    fn from(d: Duration) -> Self {
        Cell::Time(d)
    }
}

macro_rules! text_cells {
    ($($t:ty),*) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Self {
                Cell::Text(v.to_string())
            }
        }
    )*};
}
text_cells!(&str, String, usize, u64, i64, bool);

/// A titled table with one header row. Column 0 names the row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Printed above the header.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells, one per column.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: Vec::new(),
        }
    }
}

/// Append a row to a [`Table`], converting each cell with `Cell::from`:
/// `row!(table; "label", 0.5, count, elapsed)`.
macro_rules! row {
    ($table:expr; $($cell:expr),+ $(,)?) => {
        $table.rows.push(vec![$($crate::Cell::from($cell)),+])
    };
}
pub(crate) use row;

/// A named pass/fail check on deterministic values.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// The condition, e.g. `median q-error <= 16`.
    pub name: String,
    /// What was measured.
    pub observed: String,
    /// Whether the condition holds.
    pub pass: bool,
}

/// One experiment's result.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// Index id (`F2`, `E1`, …).
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// Result tables, in print order.
    pub tables: Vec<Table>,
    /// Acceptance gates, in print order.
    pub gates: Vec<Gate>,
}

impl Experiment {
    /// An experiment with no tables and no gates yet.
    pub(crate) fn new(id: &'static str, title: &'static str) -> Self {
        Self { id, title, tables: Vec::new(), gates: Vec::new() }
    }

    /// Add a gate.
    pub(crate) fn gate(&mut self, name: &str, observed: impl fmt::Display, pass: bool) {
        self.gates.push(Gate { name: name.into(), observed: observed.to_string(), pass });
    }
}

/// Write `e` as text. `out` gets the header, every table without its clock
/// columns, and the gates; `err` gets, for every table with a clock column,
/// the whole table. A table whose only non-clock column is column 0 goes to
/// `err` alone.
pub fn render(e: &Experiment, out: &mut dyn Write, err: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== {}: {}", e.id, e.title)?;
    for t in &e.tables {
        let clock: Vec<bool> = (0..t.columns.len())
            .map(|c| t.rows.iter().any(|r| r.get(c).is_some_and(Cell::is_clock)))
            .collect();
        let kept: Vec<usize> = (0..t.columns.len()).filter(|&c| !clock[c]).collect();
        if kept.len() == t.columns.len() || kept.len() > 1 {
            write_table(out, &t.title, t, &kept)?;
        }
        if clock.contains(&true) {
            let all: Vec<usize> = (0..t.columns.len()).collect();
            write_table(err, &format!("{} {}", e.id, t.title), t, &all)?;
        }
    }
    if !e.gates.is_empty() {
        writeln!(out)?;
    }
    for g in &e.gates {
        let verdict = if g.pass { "ok  " } else { "FAIL" };
        writeln!(out, "gate {verdict} {}: {}", g.name, g.observed)?;
    }
    writeln!(out)
}

/// `cols` of `t`, each padded to its widest cell.
fn write_table(w: &mut dyn Write, title: &str, t: &Table, cols: &[usize]) -> io::Result<()> {
    let header = cols.iter().map(|&c| t.columns[c].clone()).collect();
    let text: Vec<Vec<String>> = std::iter::once(header)
        .chain(t.rows.iter().map(|r| {
            cols.iter().map(|&c| r.get(c).map(ToString::to_string).unwrap_or_default()).collect()
        }))
        .collect();
    let widths: Vec<usize> = (0..cols.len())
        .map(|i| text.iter().map(|line| line[i].chars().count()).max().unwrap_or(0))
        .collect();
    writeln!(w, "\n-- {title}")?;
    for line in &text {
        let padded: Vec<String> =
            line.iter().zip(&widths).map(|(cell, &width)| format!("{cell:<width$}")).collect();
        writeln!(w, "{}", padded.join("  ").trim_end())?;
    }
    Ok(())
}

/// Run `f` `reps` times (at least once); the last result and the mean
/// wall-clock time per run. Its reading belongs in a [`Cell::Time`].
pub(crate) fn clock<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let reps = reps.max(1);
    let start = Instant::now();
    let mut out = f();
    for _ in 1..reps {
        out = f();
    }
    (out, start.elapsed() / reps as u32)
}

/// Mean of a slice (0 when empty).
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_in_design_order() {
        let ids: Vec<&str> = REGISTRY.iter().map(|(id, _)| *id).collect();
        let unique: std::collections::BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "duplicate registry id in {ids:?}");
        // The §4 index rows whose harness column reads `exp <id>`, in order.
        let design = include_str!("../../../DESIGN.md");
        let section = design.split("\n## 4.").nth(1).and_then(|s| s.split("\n## 5.").next());
        let indexed: Vec<&str> = section
            .expect("DESIGN.md has a §4")
            .lines()
            .filter_map(|line| {
                let id = line.strip_prefix("| **")?.split("**").next()?;
                line.ends_with(&format!("| `exp {id}` |")).then_some(id)
            })
            .collect();
        assert_eq!(ids, indexed, "REGISTRY must list DESIGN.md §4's `exp` rows in order");
    }

    #[test]
    fn clock_cells_never_reach_stdout() {
        let mut e = Experiment::new("X1", "renderer");
        let mut mixed = Table::new("mixed", &["case", "rows", "wall", "speedup"]);
        row!(mixed; "a", 0.25, Duration::from_nanos(123_456_789), Cell::TimeRatio(7.654_321));
        row!(mixed; "b", 12usize, Duration::from_nanos(987_654_321), Cell::TimeRatio(1.234_567));
        let mut clock_only = Table::new("clock only", &["case", "wall"]);
        row!(clock_only; "c", Duration::from_nanos(555_555_555));
        e.tables = vec![mixed, clock_only];
        e.gate("rows > 0", 12, true);

        let (mut out, mut err) = (Vec::new(), Vec::new());
        render(&e, &mut out, &mut err).unwrap();
        let (out, err) = (String::from_utf8(out).unwrap(), String::from_utf8(err).unwrap());
        for clock_text in ["123456.8us", "987654.3us", "555555.6us", "7.654", "1.235"] {
            assert!(!out.contains(clock_text), "stdout carries {clock_text}:\n{out}");
            assert!(err.contains(clock_text), "stderr lacks {clock_text}:\n{err}");
        }
        for header in ["wall", "speedup", "clock only"] {
            assert!(!out.contains(header), "stdout carries clock column {header}:\n{out}");
        }
        assert!(out.contains("0.250") && out.contains("12"), "{out}");
        assert!(out.contains("gate ok   rows > 0: 12"), "{out}");
    }
}

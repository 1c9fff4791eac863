//! Result files, the contract's result line, and the `compare` verdicts.

use crate::stats;
use crate::trace::{self, Span};
use crate::workloads::Outcome;
use cda_testkit::json::{self, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// `perf/out/`: results, traces and temporary storage files. Inside the
/// checkout the benchmark was built in, and ignored by git.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `BENCHMARK.json` at the root of the checkout the benchmark was built in.
pub fn benchmark_json_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("BENCHMARK.json")
}

/// Write the run's spans to `perf/out/trace_<workload>.json`.
pub fn write_trace(out: &mut Outcome, spans: &[Span]) {
    let path = out_dir().join(format!("trace_{}.json", out.workload));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, trace::spans_to_json(spans).to_string()));
    match written {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out
            .notes
            .push(format!("WARNING: could not write {}: {e}", path.display())),
    }
}

/// One row of a results file.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Measured value.
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
    /// Seed of the run.
    pub seed: u64,
}

/// The rows of one workload run.
pub fn outcome_rows(out: &Outcome, seed: u64) -> Vec<Row> {
    out.metrics
        .iter()
        .map(|m| Row {
            workload: out.workload.clone(),
            metric: m.name.clone(),
            unit: m.unit.clone(),
            value: m.value,
            n: m.n,
            seed,
        })
        .collect()
}

/// Rows as one flat JSON array.
pub fn rows_to_json(rows: &[Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("workload", Json::Str(r.workload.clone())),
                    ("metric", Json::Str(r.metric.clone())),
                    ("unit", Json::Str(r.unit.clone())),
                    ("value", Json::Num(r.value)),
                    ("n", Json::Num(r.n as f64)),
                    ("seed", Json::Num(r.seed as f64)),
                ])
            })
            .collect(),
    )
}

/// Parse a results file's contents.
pub fn rows_from_json(text: &str) -> Result<Vec<Row>, String> {
    let doc = json::parse(text)?;
    let items = doc.as_arr().ok_or("results file is not a JSON array")?;
    items
        .iter()
        .map(|item| {
            let text = |key: &str| {
                item.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or(format!("row lacks {key:?}"))
            };
            let num = |key: &str| {
                item.get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("row lacks {key:?}"))
            };
            Ok(Row {
                workload: text("workload")?,
                metric: text("metric")?,
                unit: text("unit")?,
                value: num("value")?,
                n: num("n")? as usize,
                seed: num("seed").unwrap_or(0.0) as u64,
            })
        })
        .collect()
}

/// Read a results file.
pub fn read_rows(path: &Path) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    rows_from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The contract's last line of standard output for one workload run.
pub fn result_line(out: &Outcome) -> String {
    let metrics: BTreeMap<String, Json> = out
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let entry = Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(m.unit.clone())),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}

/// Direction and regression bound of one end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// True when a lower value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The end-to-end metrics of `BENCHMARK.json` with their bounds.
pub fn parse_bounds(benchmark_json: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without a direction")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            Ok((
                name.to_owned(),
                Bound {
                    lower_is_better: better == "lower",
                    bound,
                },
            ))
        })
        .collect()
}

/// Verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is better than the parent's by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worse than the parent's median by more than the bound.
    Worse,
    /// A side's own run-to-run spread exceeds the bound: no verdict.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Better => "better",
            Self::Same => "same",
            Self::Worse => "worse",
            Self::Unresolved => "unresolved",
        }
    }
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Median of the parent's runs (the base of `delta`).
    pub parent: f64,
    /// Median of the change's runs.
    pub change: f64,
    /// `(change − parent) / parent`.
    pub delta: f64,
    /// The larger of the two sides' quartile spreads.
    pub spread: f64,
    /// The metric's regression bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn group(rows: &[Row]) -> BTreeMap<(String, String), (String, Vec<f64>)> {
    let mut out: BTreeMap<(String, String), (String, Vec<f64>)> = BTreeMap::new();
    for r in rows {
        let entry = out
            .entry((r.workload.clone(), r.metric.clone()))
            .or_insert_with(|| (r.unit.clone(), Vec::new()));
        entry.1.push(r.value);
    }
    out
}

/// Compare two sets of rows on every end-to-end metric both contain.
pub fn compare(
    parent: &[Row],
    change: &[Row],
    bounds: &BTreeMap<String, Bound>,
) -> Vec<Comparison> {
    let parent = group(parent);
    let change = group(change);
    let mut out = Vec::new();
    for ((workload, metric), (unit, a)) in &parent {
        let (Some(bound), Some((_, b))) = (
            bounds.get(metric),
            change.get(&(workload.clone(), metric.clone())),
        ) else {
            continue;
        };
        let (pa, pb) = (
            stats::median(a).unwrap_or(0.0),
            stats::median(b).unwrap_or(0.0),
        );
        let delta = if pa != 0.0 { (pb - pa) / pa } else { 0.0 };
        let worsening = if bound.lower_is_better { delta } else { -delta };
        let spread = stats::quartile_spread(a).max(stats::quartile_spread(b));
        let verdict = if spread > bound.bound {
            Verdict::Unresolved
        } else if worsening > bound.bound {
            Verdict::Worse
        } else if worsening < -bound.bound {
            Verdict::Better
        } else {
            Verdict::Same
        };
        out.push(Comparison {
            workload: workload.clone(),
            metric: metric.clone(),
            unit: unit.clone(),
            parent: pa,
            change: pb,
            delta,
            spread,
            bound: bound.bound,
            verdict,
        });
    }
    out
}

/// Print a comparison, one row per (workload, metric).
pub fn print_comparison(rows: &[Comparison]) {
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "parent", "change", "delta", "spread", "bound"
    );
    for c in rows {
        println!(
            "{:<16} {:<12} {:>14.4} {:>14.4} {:>+8.2}% {:>7.2}% {:>6.0}%  {} ({})",
            c.workload,
            c.metric,
            c.parent,
            c.change,
            c.delta * 100.0,
            c.spread * 100.0,
            c.bound * 100.0,
            c.verdict.label(),
            c.unit,
        );
    }
    println!("delta is (change - parent) / parent; spread is the larger side's (Q3 - Q1) / median");
}

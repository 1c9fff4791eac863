//! Command line: one workload run (the driver's contract), a full run of
//! all workloads in child processes, `compare`, and `selfcheck`.

use crate::report::{self, Row};
use crate::stats;
use crate::workloads::{self, RunArgs, Sizes, END_TO_END, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Seconds a timed phase lasts when `--seconds` is not given
/// (`run_seconds` in `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage:
  cda-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--repeat K]
      one workload (with --workload) or all five, each in its own process;
      --trace 1 runs the traced pass (per-layer metrics); --repeat K runs K
      seeds (N, N+1, ...) and prints each metric's quartile spread
  cda-perf compare PARENT.json CHANGE.json
  cda-perf selfcheck [--seed N] [--seconds S] [--smoke]";

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    rows_out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 11,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        repeat: 1,
        rows_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => o.smoke = true,
            "--repeat" => {
                o.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=64).contains(&o.repeat) {
                    return Err("--repeat must be in 1..=64".into());
                }
            }
            "--rows-out" => o.rows_out = Some(PathBuf::from(value("a path")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// Entry point; `args` excludes the program name.
pub fn main(args: Vec<String>) -> ExitCode {
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_files(&args[1..]),
        Some("selfcheck") => parse_options(&args[1..]).and_then(|o| selfcheck(&o)),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => parse_options(&args).and_then(|o| match &o.workload {
            Some(workload) => run_one(workload, &o),
            None => run_all(&o).map(|(_, ok)| ok),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("cda-perf: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Run one workload in this process and print its metrics; the last line of
/// standard output is the contract's JSON object.
fn run_one(workload: &str, o: &Options) -> Result<bool, String> {
    let args = RunArgs {
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        sizes: Sizes::new(o.smoke),
    };
    println!(
        "workload {workload}  seed {}  seconds {}  trace {}  smoke {}  nproc {}",
        o.seed,
        o.seconds,
        u8::from(o.trace),
        o.smoke,
        workloads::nproc()
    );
    let out = workloads::run(workload, &args)?;
    println!(
        "inputs_fnv {:#018x}  ops {}  failed {}",
        out.inputs_fnv, out.attempted, out.failed
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for m in &out.metrics {
        println!(
            "metric {:<34} {:>16.4} {:<8} n={}",
            m.name, m.value, m.unit, m.n
        );
    }
    if let Some(path) = &o.rows_out {
        let rows = report::outcome_rows(&out, o.seed);
        std::fs::write(path, report::rows_to_json(&rows).to_string())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", report::result_line(&out));
    Ok(true)
}

/// Run every workload (each pass in its own child process, so allocator
/// state and `peak_rss_mb` are per workload) and write the combined rows to
/// `perf/out/results_<seed>.json`. Returns the rows and whether every run
/// succeeded with no failed operation.
fn run_all(o: &Options) -> Result<(Vec<Row>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out_dir = report::out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut rows = Vec::new();
    let mut ok = true;
    for rep in 0..o.repeat {
        let seed = o.seed + rep as u64;
        for workload in WORKLOADS {
            for trace in [false, true] {
                if trace && !o.trace {
                    continue;
                }
                let rows_file = out_dir.join(format!(
                    "rows-{}-{workload}-{}.json",
                    std::process::id(),
                    u8::from(trace)
                ));
                let mut child = Command::new(&exe);
                child
                    .args(["--workload", workload, "--seed", &seed.to_string()])
                    .args([
                        "--seconds",
                        &o.seconds.to_string(),
                        "--trace",
                        if trace { "1" } else { "0" },
                    ])
                    .arg("--rows-out")
                    .arg(&rows_file);
                if o.smoke {
                    child.arg("--smoke");
                }
                let status = child
                    .status()
                    .map_err(|e| format!("spawn {workload}: {e}"))?;
                let run_rows = report::read_rows(&rows_file);
                let _ = std::fs::remove_file(&rows_file);
                match (status.success(), run_rows) {
                    (true, Ok(run_rows)) => rows.extend(run_rows),
                    (_, run_rows) => {
                        eprintln!(
                            "cda-perf: {workload} (trace {}) failed: {status} {:?}",
                            u8::from(trace),
                            run_rows.err()
                        );
                        ok = false;
                    }
                }
            }
        }
    }
    let fails: Vec<&Row> = rows
        .iter()
        .filter(|r| r.metric == "fail_share" && r.value > 0.0)
        .collect();
    ok &= fails.is_empty();
    let results = out_dir.join(format!("results_{}.json", o.seed));
    std::fs::write(&results, report::rows_to_json(&rows).to_string())
        .map_err(|e| format!("{}: {e}", results.display()))?;
    print_summary(&rows, o.repeat);
    println!("results written to {}", results.display());
    Ok((rows, ok))
}

/// Median and quartile spread of every end-to-end metric per workload.
fn print_summary(rows: &[Row], runs: usize) {
    println!(
        "\n{:<16} {:<12} {:>16} {:<8} {:>5} {:>8}",
        "workload", "metric", "median", "unit", "runs", "spread"
    );
    for workload in WORKLOADS {
        for (metric, unit) in END_TO_END {
            let values: Vec<f64> = rows
                .iter()
                .filter(|r| r.workload == workload && r.metric == metric)
                .map(|r| r.value)
                .collect();
            if let Some(m) = stats::median(&values) {
                let spread = if runs > 1 {
                    format!("{:.2}%", stats::quartile_spread(&values) * 100.0)
                } else {
                    "-".to_owned()
                };
                println!(
                    "{workload:<16} {metric:<12} {m:>16.4} {unit:<8} {:>5} {spread:>8}",
                    values.len()
                );
            }
        }
    }
}

fn load_bounds() -> Result<std::collections::BTreeMap<String, report::Bound>, String> {
    let path = report::benchmark_json_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    report::parse_bounds(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [parent, change] = args else {
        return Err("compare takes exactly two results files".into());
    };
    let parent = report::read_rows(Path::new(parent))?;
    let change = report::read_rows(Path::new(change))?;
    let rows = report::compare(&parent, &change, &load_bounds()?);
    report::print_comparison(&rows);
    Ok(!rows.iter().any(|c| c.verdict == report::Verdict::Worse))
}

/// Two full sets of runs of the same build; fails when any end-to-end
/// metric of any workload disagrees beyond its bound, or inputs differ.
fn selfcheck(o: &Options) -> Result<bool, String> {
    let bounds = load_bounds()?;
    let (first, ok_first) = run_all(o)?;
    let (second, ok_second) = run_all(o)?;
    let rows = report::compare(&first, &second, &bounds);
    report::print_comparison(&rows);
    let agree = rows.iter().all(|c| c.verdict == report::Verdict::Same);
    println!(
        "selfcheck: {}",
        if agree && ok_first && ok_second {
            "pass"
        } else {
            "FAIL"
        }
    );
    Ok(agree && ok_first && ok_second)
}

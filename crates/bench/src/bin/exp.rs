//! `exp` — run experiments from the registry (DESIGN.md §4).
//!
//! ```text
//! exp [--fast] --all      every experiment, in index order
//! exp [--fast] ID...      the named ones, e.g. `exp E5 E21`
//! ```
//!
//! `--fast` selects the CI sizes. Deterministic output goes to stdout
//! (`exp --all --fast` is pinned in `crates/bench/golden_fast.txt`),
//! wall-clock readings to stderr. Exits 1 iff a gate fails, 2 on bad usage.

use cda_bench::{render, Budget, REGISTRY};
use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut budget = Budget::default();
    let (mut all, mut ids) = (false, Vec::new());
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--fast" => budget.fast = true,
            "--all" => all = true,
            flag if flag.starts_with('-') => return usage(&format!("unknown flag {flag}")),
            _ => ids.push(arg),
        }
    }
    if all != ids.is_empty() {
        return usage("give either --all or experiment ids");
    }
    if let Some(unknown) = ids.iter().find(|want| !REGISTRY.iter().any(|(id, _)| id == want)) {
        return usage(&format!("unknown experiment {unknown}"));
    }
    let wanted = |id: &str| all || ids.iter().any(|want| want == id);
    let selected: Vec<_> = REGISTRY.iter().copied().filter(|(id, _)| wanted(id)).collect();
    match run(&selected, &budget) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("exp: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run and render `selected` in registry order; the number of failed gates.
fn run(selected: &[(&str, cda_bench::Run)], budget: &Budget) -> io::Result<usize> {
    let (mut out, mut err) = (io::stdout().lock(), io::stderr().lock());
    let (mut gates, mut failed) = (0, 0);
    for (id, run) in selected {
        let experiment = run(budget);
        assert_eq!(experiment.id, *id, "registry id and experiment id disagree");
        render(&experiment, &mut out, &mut err)?;
        out.flush()?;
        gates += experiment.gates.len();
        failed += experiment.gates.iter().filter(|g| !g.pass).count();
    }
    writeln!(out, "{} experiments, {gates} gates, {failed} failed", selected.len())?;
    Ok(failed)
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("exp: {problem}\nusage: exp [--fast] (--all | ID...)");
    ExitCode::from(2)
}

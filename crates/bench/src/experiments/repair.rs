//! **E15** — analyzer-guided repair in constrained decoding: how much of the
//! static gate's veto work can the diagnosis→generation loop convert into
//! accepted answers, and at what cost?
//!
//! For each LM hallucination rate, every workload task is decoded twice under
//! the rejection strategy: once with repair disabled (skip-and-resample only)
//! and once with two repair rounds. Reported per rate:
//! - `salvaged`: fraction of decodes the repairing decoder accepted via a
//!   repaired candidate (the repair success events);
//! - `rounds`: mean repair rounds behind those accepted candidates;
//! - `att-skip` / `att-rep`: mean decode attempts per task, skip-only vs
//!   repairing — repair must *save* attempts (strictly fewer overall);
//! - `regress`: accepted repaired candidates that fail execution or the
//!   gate — must be 0 (repair never launders an unsound query);
//! - `t-ratio`: gate + repair wall-clock over execution wall-clock per
//!   candidate, the overhead of closing the loop — printed as information,
//!   not gated.
//!
//! Gates: some decode was salvaged, repair saved attempts overall, and
//! there are no soundness regressions.

use cda_analyzer::{apply_hints, Analyzer};
use super::static_gate::gold_workload;
use crate::{clock, row, Budget, Cell, Experiment};
use cda_nlmodel::constrained::Decoder;
use cda_nlmodel::lm::{Nl2SqlPrompt, SimLm, SimLmConfig};
use std::time::Duration;

/// Run E15.
pub fn run(_: &Budget) -> Experiment {
    let mut e =
        Experiment::new("E15", "analyzer-guided repair: salvage rate, attempts saved, overhead");

    // The same 20k-row table and workload as E13.
    let (catalog, schema, workload) = gold_workload();
    let analyzer = Analyzer::new(&catalog);

    let mut t = crate::Table::new(
        "rejection decoding, budget 12: skip-only vs 2 repair rounds",
        &["halluc", "tasks", "salvaged", "rounds", "att-skip", "att-rep", "regress", "t-gate+rep",
          "t-exec", "t-ratio"],
    );

    let mut total_salvaged = 0usize;
    let mut total_regressions = 0usize;
    let mut total_attempts_skip = 0usize;
    let mut total_attempts_repair = 0usize;
    for pct in [20u32, 40, 60, 80] {
        let h = f64::from(pct) / 100.0;
        let lm = SimLm::new(SimLmConfig { hallucination_rate: h, overconfidence: 0.9, seed: 29 });
        // The corruption mode that misspells tables needs no real alternative
        // table: with no `other_tables` the model invents a phantom name,
        // exactly the A002 case the repair loop targets.
        let skip_only = Decoder::new(&lm, &catalog).with_temperature(1.0).with_budget(12);
        let repairing = skip_only.clone().with_repair(2);
        let mut salvaged = 0usize;
        let mut rounds = 0usize;
        let mut attempts_skip = 0usize;
        let mut attempts_repair = 0usize;
        let mut regressions = 0usize;
        let mut t_gate = Duration::ZERO;
        let mut t_exec = Duration::ZERO;
        for task in &workload.tasks {
            let prompt = Nl2SqlPrompt {
                task: task.task.clone(),
                schema: schema.clone(),
                other_tables: vec![],
            };
            match skip_only.decode(&prompt) {
                Ok(r) => attempts_skip += r.attempts,
                Err(_) => attempts_skip += 12,
            }
            match repairing.decode(&prompt) {
                Ok(r) => {
                    attempts_repair += r.attempts;
                    if r.repaired {
                        salvaged += 1;
                        rounds += r.accepted_rounds();
                        if cda_sql::execute(&catalog, &r.generation.sql).is_err()
                            || analyzer.execution_doomed(&r.generation.sql)
                        {
                            regressions += 1;
                        }
                    }
                }
                Err(_) => attempts_repair += 12,
            }
            // Per-candidate overhead: the gate + repair work on a raw sample
            // vs what executing that sample would cost.
            for g in lm.sample_k(&prompt, 1.0, 3) {
                let (_, dt) = clock(1, || {
                    let report = analyzer.analyze(&g.sql);
                    if report.dooms_execution() {
                        let hints = analyzer.repair_hints(&g.sql, &report);
                        if let Some(fixed) = apply_hints(&g.sql, &hints) {
                            let _ = analyzer.analyze(&fixed);
                        }
                    }
                });
                t_gate += dt;
                let (_, dt) = clock(1, || cda_sql::execute(&catalog, &g.sql));
                t_exec += dt;
            }
        }
        let n = workload.tasks.len();
        let mean_rounds = if salvaged == 0 { 0.0 } else { rounds as f64 / salvaged as f64 };
        total_salvaged += salvaged;
        total_regressions += regressions;
        total_attempts_skip += attempts_skip;
        total_attempts_repair += attempts_repair;
        row!(t; format!("{pct}%"), n, salvaged as f64 / n as f64, mean_rounds,
            attempts_skip as f64 / n as f64, attempts_repair as f64 / n as f64, regressions,
            t_gate, t_exec, Cell::TimeRatio(t_gate.as_secs_f64() / t_exec.as_secs_f64()));
    }
    e.tables.push(t);

    let saved = total_attempts_skip as i64 - total_attempts_repair as i64;
    e.gate("salvaged decodes > 0", total_salvaged, total_salvaged > 0);
    e.gate("LM attempts saved > 0", saved, saved > 0);
    e.gate("soundness regressions == 0", total_regressions, total_regressions == 0);
    e
}

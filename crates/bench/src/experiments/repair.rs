//! **E15** — analyzer-guided repair in the product's sampler: how much of
//! the static gate's veto work does the diagnosis→generation loop convert
//! into executing candidates, and at what cost?
//!
//! For each LM hallucination rate, every workload task gets one consistency
//! UQ round (`ConsistencyUq::run_with`, as an analysis turn runs it) with
//! the product's settings — `CdaConfig::default()`'s sample count,
//! temperature and row budget, the analyzer with statistics, equivalence
//! clustering on — once without repair and once with `repair_rounds`
//! rounds of `Analyzer::gate_with_repair`. Reported per rate:
//! - `salvaged`: share of all samples that the gate doomed and repair made
//!   executable (the report's `repaired` over `samples`);
//! - `exec-skip` / `exec-rep`: mean executing samples per round, without
//!   and with repair — repair must raise it;
//! - `regress`: repairing rounds whose winner the gate dooms when re-gated
//!   or that fails to execute from its SQL text — must be 0 (repair never
//!   launders an unsound query);
//! - `t-ratio`: `gate_with_repair` wall-clock over execution wall-clock per
//!   raw sample, the overhead of closing the loop — printed as information,
//!   not gated.
//!
//! Gates: some sample was salvaged, repair raised the executing samples
//! overall, and there are no soundness regressions.

use super::static_gate::gold_workload;
use crate::{clock, row, Budget, Cell, Experiment};
use cda_analyzer::{Analyzer, Statistics};
use cda_core::CdaConfig;
use cda_nlmodel::lm::{Nl2SqlPrompt, SimLm, SimLmConfig};
use cda_soundness::consistency::{ConsistencyUq, Known};
use cda_sql::QueryResult;
use std::time::Duration;

/// Run E15.
pub fn run(_: &Budget) -> Experiment {
    let mut e = Experiment::new(
        "E15",
        "analyzer-guided repair: salvaged samples, executing samples gained, overhead",
    );

    // The same 20k-row table and workload as E13.
    let (catalog, schema, workload) = gold_workload();
    let config = CdaConfig::default();
    let stats = Statistics::from_catalog(&catalog);
    let analyzer = Analyzer::new(&catalog).with_stats(&stats).with_row_budget(config.row_budget);
    let k = config.uq_samples;
    let rounds = config.repair_rounds;

    let mut t = crate::Table::new(
        format!("consistency UQ, k = {k}: no repair vs {rounds} repair rounds"),
        &["halluc", "tasks", "salvaged", "exec-skip", "exec-rep", "regress", "t-gate+rep",
          "t-exec", "t-ratio"],
    );

    let mut total_salvaged = 0usize;
    let mut total_regressions = 0usize;
    let mut total_exec_skip = 0usize;
    let mut total_exec_repair = 0usize;
    for pct in [20u32, 40, 60, 80] {
        let h = f64::from(pct) / 100.0;
        let lm = SimLm::new(SimLmConfig { hallucination_rate: h, overconfidence: 0.9, seed: 29 });
        // The corruption mode that misspells tables needs no real alternative
        // table: with no `other_tables` the model invents a phantom name,
        // exactly the A002 case the repair loop targets.
        let uq = ConsistencyUq::new(&lm, &analyzer)
            .with_samples(k)
            .with_temperature(config.temperature)
            .with_equivalence(true);
        let mut salvaged = 0usize;
        let mut exec_skip = 0usize;
        let mut exec_repair = 0usize;
        let mut regressions = 0usize;
        let mut t_gate = Duration::ZERO;
        let mut t_exec = Duration::ZERO;
        for task in &workload.tasks {
            let prompt = Nl2SqlPrompt {
                task: task.task.clone(),
                schema: schema.clone(),
                other_tables: vec![],
            };
            let nothing_known = |_| Known::<QueryResult>::Unknown;
            let skip_only = uq.with_repair(0).run_with(&prompt, nothing_known).unwrap();
            exec_skip += skip_only.report.samples - skip_only.report.failed;
            let repairing = uq.with_repair(rounds).run_with(&prompt, nothing_known).unwrap();
            exec_repair += repairing.report.samples - repairing.report.failed;
            salvaged += repairing.report.repaired;
            if let Some(winner) = &repairing.winner {
                if analyzer.gate(&winner.sql).0.dooms_execution()
                    || cda_sql::execute(&catalog, &winner.sql).is_err()
                {
                    regressions += 1;
                }
            }
            // Per-sample overhead: the product's gate + repair on a raw
            // sample vs what executing that sample would cost.
            for g in lm.sample_k(&prompt, config.temperature, 3) {
                let (_, dt) = clock(1, || analyzer.gate_with_repair(&g.sql, rounds));
                t_gate += dt;
                let (_, dt) = clock(1, || cda_sql::execute(&catalog, &g.sql));
                t_exec += dt;
            }
        }
        let n = workload.tasks.len();
        total_salvaged += salvaged;
        total_regressions += regressions;
        total_exec_skip += exec_skip;
        total_exec_repair += exec_repair;
        row!(t; format!("{pct}%"), n, salvaged as f64 / (n * k) as f64,
            exec_skip as f64 / n as f64, exec_repair as f64 / n as f64, regressions,
            t_gate, t_exec, Cell::TimeRatio(t_gate.as_secs_f64() / t_exec.as_secs_f64()));
    }
    e.tables.push(t);

    let gained = total_exec_repair as i64 - total_exec_skip as i64;
    e.gate("salvaged samples > 0", total_salvaged, total_salvaged > 0);
    e.gate("executing samples gained by repair > 0", gained, gained > 0);
    e.gate("soundness regressions == 0", total_regressions, total_regressions == 0);
    e
}

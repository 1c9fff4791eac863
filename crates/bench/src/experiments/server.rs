//! **E19** — multiplexed session runtime at scale: transcript determinism
//! under concurrency and admission control.
//!
//! Full mode drives >=100k turns across >=1k sessions through the server;
//! a fast budget scales down for CI. Gates:
//!
//! * **0 transcript mismatches**: every hosted session's transcript hash
//!   (a 64-bit hash of the rendered answers, in turn order) equals a serial
//!   `Session` replay of the same script with the same seed — at 1 and at
//!   4 workers. The counts are fixed, not read from the machine, so the
//!   output is the same everywhere; `crates/integration/tests/server.rs`
//!   covers {1, 2, 8}.
//! * **admission**: a row-budget-capped tenant's wide turns are all
//!   rejected pre-execution (the session's turn counter stays at the
//!   admitted count) and every rejection is visible in `ServerStats`.
//!
//! Worker-pool throughput is not measured here: the `perf/` benchmark's
//! `server_read` / `server_rw` workloads report it (`server.w1_ratio`).

use crate::loadgen::{interleave, session_scripts, LoadSpec};
use crate::{row, Budget, Experiment};
use cda_core::demo::demo_world;
use cda_core::{CdaConfig, Session};
use cda_server::{Server, ServerConfig, TenantQuota, TurnOutcome};
use std::hash::{DefaultHasher, Hasher};

/// Serial reference: replay each script on a bare session (seed = id + 1,
/// the server's derivation) and hash the transcript.
fn serial_hashes(scripts: &[Vec<String>]) -> Vec<u64> {
    scripts
        .iter()
        .enumerate()
        .map(|(i, script)| {
            let mut s = Session::open_seeded(demo_world(42), CdaConfig::default(), i as u64 + 1);
            let mut h = DefaultHasher::new();
            for turn in script {
                h.write(s.process(turn).render().as_bytes());
                h.write(b"\n");
            }
            h.finish()
        })
        .collect()
}

/// Hosted run: one drain over all turns with `workers` threads. Returns
/// per-session transcript hashes.
fn hosted_run(scripts: &[Vec<String>], workers: usize) -> Vec<u64> {
    let mut server =
        Server::new(demo_world(42), ServerConfig { workers, ..ServerConfig::default() });
    let ids = server.open_sessions("load", scripts.len());
    for (i, turn) in interleave(scripts, 0xE19) {
        server.submit(ids[i], &turn).expect("unlimited tenant");
    }
    let report = server.drain();
    let mut hashes: Vec<DefaultHasher> = vec![DefaultHasher::new(); scripts.len()];
    for o in &report.outcomes {
        match o {
            TurnOutcome::Completed(r) => {
                let h = &mut hashes[r.session.index()];
                h.write(r.rendered.as_bytes());
                h.write(b"\n");
            }
            TurnOutcome::Rejected { .. } => unreachable!("unlimited tenant"),
        }
    }
    hashes.iter().map(Hasher::finish).collect()
}

/// Run E19.
pub fn run(budget: &Budget) -> Experiment {
    let (sessions, turns_per_session) = if budget.fast { (80, 16) } else { (1250, 80) };
    let mut e = Experiment::new(
        "E19",
        "multiplexed session runtime: determinism under concurrency + admission control",
    );

    let world = demo_world(42);
    let spec = LoadSpec { sessions, turns_per_session, seed: 0xE19 };
    let scripts = session_scripts(&world, spec);

    let reference = serial_hashes(&scripts);
    let count_mismatches =
        |hosted: &[u64]| reference.iter().zip(hosted).filter(|(a, b)| a != b).count();
    let mut determinism = crate::Table::new(
        format!(
            "{sessions} sessions x {turns_per_session} turns = {} turns, hosted vs serial replay",
            sessions * turns_per_session
        ),
        &["run", "workers", "mismatches"],
    );
    row!(determinism; "serial Session", "-", "0 (oracle)");
    let mut mismatches = 0usize;
    for workers in [1usize, 4] {
        let m = count_mismatches(&hosted_run(&scripts, workers));
        row!(determinism; "server", workers, m);
        mismatches += m;
    }

    // ---- admission control: row-budget governor + tenant quota ----------
    let mut server =
        Server::new(demo_world(42), ServerConfig { workers: 4, ..ServerConfig::default() });
    server.set_quota("capped", TenantQuota { max_turns: Some(6), max_estimated_rows: Some(1) });
    let id = server.open_session("capped");
    let narrow = "How many entries are in employment_by_type where type is part_time?";
    let wide = "What is the total employees in employment_by_type per canton?";
    let mut quota_rejects = 0usize;
    for i in 0..8 {
        let turn = if i % 2 == 0 { narrow } else { wide };
        if server.submit(id, turn).is_err() {
            quota_rejects += 1;
        }
    }
    let report = server.drain();
    let budget_rejects =
        report.outcomes.iter().filter(|o| matches!(o, TurnOutcome::Rejected { .. })).count();
    let executed = server.session_stats(id).map(|s| s.turns).unwrap_or(0);
    let stats = server.stats();
    let mut admission = crate::Table::new(
        "admission control (capped tenant: quota 6 turns, row budget 1)",
        &["submitted", "quota-rejected", "budget-rejected", "executed"],
    );
    row!(admission; 8usize, quota_rejects, budget_rejects, executed);
    e.tables = vec![determinism, admission];
    let admission_ok = quota_rejects == 2
        && budget_rejects == 3
        && executed == 3
        && stats.rejected_quota == 2
        && stats.rejected_budget == 3;

    e.gate("transcript mismatches at 1 and 4 workers == 0", mismatches, mismatches == 0);
    e.gate(
        "admission: 2 quota + 3 budget rejects, 3 executed, all counted in ServerStats",
        format!(
            "{quota_rejects} + {budget_rejects} rejected, {executed} executed; stats {} + {}",
            stats.rejected_quota, stats.rejected_budget
        ),
        admission_ok,
    );
    e
}

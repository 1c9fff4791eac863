//! **E19** — multiplexed session runtime at scale: transcript determinism
//! under concurrency and admission control.
//!
//! Full mode drives >=100k turns across >=1k sessions through the server;
//! `CDA_BENCH_FAST=1` scales down for CI. Gates:
//!
//! * **0 transcript mismatches**: every hosted session's transcript hash
//!   (FNV-1a over the rendered answers, in turn order) equals a serial
//!   `Session` replay of the same script with the same seed — for both the
//!   single-worker and the multi-worker run.
//! * **admission**: a row-budget-capped tenant's wide turns are all
//!   rejected pre-execution (the session's turn counter stays at the
//!   admitted count) and every rejection is visible in `ServerStats`.
//!
//! Worker-pool throughput is not measured here: the `perf/` benchmark's
//! `server_read` / `server_rw` workloads report it (`server.w1_ratio`).

use cda_bench::{header, row};
use cda_core::demo::demo_world;
use cda_core::{CdaConfig, Session};
use cda_server::loadgen::{interleave, session_scripts, LoadSpec};
use cda_server::{Server, ServerConfig, TenantQuota, TurnOutcome};

/// FNV-1a 64-bit over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Serial reference: replay each script on a bare session (seed = id + 1,
/// the server's derivation) and hash the transcript.
fn serial_hashes(scripts: &[Vec<String>]) -> Vec<u64> {
    scripts
        .iter()
        .enumerate()
        .map(|(i, script)| {
            let mut s = Session::open_seeded(demo_world(42), CdaConfig::default(), i as u64 + 1);
            let mut h = Fnv::new();
            for turn in script {
                h.write(s.process(turn).render().as_bytes());
                h.write(b"\n");
            }
            h.0
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
    let mut hashes: Vec<Fnv> = (0..scripts.len()).map(|_| Fnv::new()).collect();
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
    hashes.into_iter().map(|h| h.0).collect()
}

fn main() {
    let fast = std::env::var("CDA_BENCH_FAST").is_ok();
    let (sessions, turns_per_session) = if fast { (80, 16) } else { (1250, 80) };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let multi_workers = cores.max(2);
    header(
        "E19",
        "multiplexed session runtime: determinism under concurrency + admission control",
    );
    println!(
        "sessions {sessions}  turns/session {turns_per_session}  total {}  cores {cores}",
        sessions * turns_per_session
    );

    let world = demo_world(42);
    let spec = LoadSpec { sessions, turns_per_session, seed: 0xE19 };
    let scripts = session_scripts(&world, spec);

    let reference = serial_hashes(&scripts);
    let count_mismatches =
        |hosted: &[u64]| reference.iter().zip(hosted).filter(|(a, b)| a != b).count();
    let mismatches_1 = count_mismatches(&hosted_run(&scripts, 1));
    let mismatches_n = count_mismatches(&hosted_run(&scripts, multi_workers));

    row(&["run".into(), "workers".into(), "mismatches".into()]);
    row(&["serial Session".into(), "-".into(), "0 (oracle)".into()]);
    row(&["server".into(), "1".into(), mismatches_1.to_string()]);
    row(&["server".into(), multi_workers.to_string(), mismatches_n.to_string()]);

    // ---- admission control: row-budget governor + tenant quota ----------
    println!("\n-- admission control (capped tenant) --");
    let mut server = Server::new(demo_world(42), ServerConfig::default());
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
    row(&["submitted".into(), "quota-rejected".into(), "budget-rejected".into(), "executed".into()]);
    row(&[
        "8".into(),
        quota_rejects.to_string(),
        budget_rejects.to_string(),
        executed.to_string(),
    ]);
    let admission_ok = quota_rejects == 2
        && budget_rejects == 3
        && executed == 3
        && stats.rejected_quota == 2
        && stats.rejected_budget == 3;

    // ---- gates ----------------------------------------------------------
    let mismatches = mismatches_1 + mismatches_n;
    println!(
        "\nacceptance: mismatches {mismatches} (==0: {})  admission (ok: {admission_ok})",
        mismatches == 0
    );
    if mismatches != 0 || !admission_ok {
        std::process::exit(1);
    }
}

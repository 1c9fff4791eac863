//! Multiplexed-server determinism and admission-control suite.
//!
//! The load-bearing property: a session hosted by the server produces a
//! transcript **byte-identical** to a serial `Session` replay of the same
//! turns with the same seed, regardless of worker count, submission
//! interleaving, or how many other sessions run alongside it. Admission
//! control must reject over-quota work *before* execution, never after a
//! session has been touched.

use cda_bench::loadgen::{interleave, session_scripts, LoadSpec};
use cda_core::demo::demo_world;
use cda_core::{CdaConfig, Session};
use cda_server::{Server, ServerConfig, TenantQuota, TurnOutcome};

/// Serial reference: replay each session's script on a bare `Session` with
/// the server's seed derivation (id + 1) and collect rendered transcripts.
fn serial_transcripts(scripts: &[Vec<String>]) -> Vec<Vec<String>> {
    scripts
        .iter()
        .enumerate()
        .map(|(i, script)| {
            let mut s =
                Session::open_seeded(demo_world(42), CdaConfig::default(), i as u64 + 1);
            script.iter().map(|t| s.process(t).render()).collect()
        })
        .collect()
}

/// Hosted run: submit the interleaved turns, drain with `workers`, and
/// project transcripts back per session.
fn hosted_transcripts(
    scripts: &[Vec<String>],
    workers: usize,
    shuffle_seed: u64,
) -> Vec<Vec<String>> {
    let mut server = Server::new(
        demo_world(42),
        ServerConfig { workers, ..ServerConfig::default() },
    );
    let ids = server.open_sessions("tenant", scripts.len());
    for (i, turn) in interleave(scripts, shuffle_seed) {
        server.submit(ids[i], &turn).unwrap();
    }
    let report = server.drain();
    let mut out = vec![Vec::new(); scripts.len()];
    for o in &report.outcomes {
        match o {
            TurnOutcome::Completed(r) => out[r.session.index()].push(r.rendered.clone()),
            TurnOutcome::Rejected { .. } => panic!("unexpected rejection in unlimited run"),
        }
    }
    out
}

#[test]
fn hosted_sessions_are_byte_identical_to_serial_replay_across_workers() {
    let world = demo_world(42);
    let scripts =
        session_scripts(&world, LoadSpec { sessions: 6, turns_per_session: 8, seed: 17 });
    let reference = serial_transcripts(&scripts);
    for workers in [1usize, 2, 8] {
        for shuffle_seed in [5u64, 99] {
            let hosted = hosted_transcripts(&scripts, workers, shuffle_seed);
            assert_eq!(
                hosted, reference,
                "transcripts diverged at workers={workers} shuffle={shuffle_seed}"
            );
        }
    }
}

#[test]
fn repeated_drains_continue_conversations_deterministically() {
    // Split each script across two drains: state must carry over exactly.
    let world = demo_world(42);
    let scripts =
        session_scripts(&world, LoadSpec { sessions: 4, turns_per_session: 6, seed: 23 });
    let reference = serial_transcripts(&scripts);

    let mut server =
        Server::new(demo_world(42), ServerConfig { workers: 2, ..ServerConfig::default() });
    let ids = server.open_sessions("tenant", scripts.len());
    let mut hosted = vec![Vec::new(); scripts.len()];
    for half in 0..2 {
        for (i, script) in scripts.iter().enumerate() {
            let (lo, hi) = if half == 0 { (0, 3) } else { (3, script.len()) };
            for turn in &script[lo..hi] {
                server.submit(ids[i], turn).unwrap();
            }
        }
        for o in &server.drain().outcomes {
            if let TurnOutcome::Completed(r) = o {
                hosted[r.session.index()].push(r.rendered.clone());
            }
        }
    }
    assert_eq!(hosted, reference);
}

#[test]
fn admission_rejections_never_touch_a_session() {
    let mut server = Server::new(demo_world(42), ServerConfig::default());
    server.set_quota(
        "capped",
        TenantQuota { max_turns: Some(3), max_estimated_rows: Some(1) },
    );
    let id = server.open_session("capped");

    // One narrow turn (passes the governor), one wide analysis turn
    // (A013-rejected by the row-budget governor), one more narrow turn.
    server.submit(id, "How many entries are in employment_by_type where type is part_time?").unwrap();
    server.submit(id, "What is the total employees in employment_by_type per canton?").unwrap();
    server.submit(id, "How many entries are in employment_by_type where type is part_time?").unwrap();
    // quota gate: the 4th turn is rejected at submit, before queuing
    assert!(server.submit(id, "one too many").is_err());

    let before_turns = server.session_stats(id).unwrap().turns;
    assert_eq!(before_turns, 0, "nothing executes before drain");
    let report = server.drain();

    let mut rejected_at = Vec::new();
    for (i, o) in report.outcomes.iter().enumerate() {
        if matches!(o, TurnOutcome::Rejected { .. }) {
            rejected_at.push(i);
        }
    }
    assert_eq!(rejected_at, vec![1], "exactly the wide group-by is rejected");

    // The rejected turn left no trace in the session: only the two
    // admitted turns appear in the query log and dialogue state.
    let stats = server.session_stats(id).unwrap();
    assert_eq!(stats.turns, 2);
    let srv = server.stats();
    assert_eq!(srv.rejected_quota, 1);
    assert_eq!(srv.rejected_budget, 1);
    assert_eq!(srv.turns_completed, 2);
}

#[test]
fn world_swap_leaves_open_sessions_on_their_snapshot() {
    let mut server = Server::new(demo_world(42), ServerConfig::default());
    let old = server.open_session("t");
    let successor = server.world().successor().build_shared();
    server.install_world(successor).unwrap();
    let new = server.open_session("t");
    assert_eq!(server.session(old).unwrap().epoch(), 0);
    assert_eq!(server.session(new).unwrap().epoch(), 1);
    // both keep answering after the swap
    server.submit(old, "Which datasets cover employment?").unwrap();
    server.submit(new, "Which datasets cover employment?").unwrap();
    assert_eq!(server.drain().completed(), 2);
}

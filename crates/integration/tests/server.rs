//! Multiplexed-server determinism and admission-control suite.
//!
//! The load-bearing property: a session hosted by the server produces a
//! transcript **byte-identical** to a serial `Session` replay of the same
//! turns with the same seed, regardless of worker count, submission
//! interleaving, or how many other sessions run alongside it. Admission
//! control must reject over-quota work *before* execution, never after a
//! session has been touched.

use cda_analyzer::{statement_effects, EffectSet};
use cda_bench::loadgen::{interleave, session_scripts, LoadSpec};
use cda_core::demo::demo_world;
use cda_core::{CdaConfig, Session};
use cda_server::{Server, ServerConfig, TenantQuota, TurnOutcome};
use std::sync::Arc;

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

/// Serial reference with writes: replay the submitted turns on bare
/// sessions (seeded as the server seeds them) one after another in
/// submission order. Each turn runs over the world the last commit before it
/// produced, its session invalidated by the effects committed so far — what
/// a strictly serial execution gives every turn.
fn serial_replay_in_submission_order(
    sessions: usize,
    order: &[(usize, String)],
) -> Vec<Vec<String>> {
    let start = demo_world(42);
    let mut world = Arc::clone(&start);
    let mut delta: Option<EffectSet> = None;
    let mut replayed: Vec<Session> = (0..sessions)
        .map(|i| Session::open_seeded(Arc::clone(&start), CdaConfig::default(), i as u64 + 1))
        .collect();
    let mut out = vec![Vec::new(); sessions];
    for (i, turn) in order {
        let session = &mut replayed[*i];
        session.adopt_world(Arc::clone(&world), delta.as_ref());
        let epoch = session.epoch();
        out[*i].push(session.process(turn).render());
        if session.epoch() > epoch {
            world = Arc::clone(session.world());
            let stmt = cda_sql::parser::parse_statement(turn).unwrap();
            let catalog = start.catalog();
            let effects =
                statement_effects(catalog.sql(), &stmt, Some(catalog.stats())).unwrap();
            match &mut delta {
                Some(d) => d.union(&effects),
                None => delta = Some(effects),
            }
        }
    }
    out
}

/// The law above with writers in the round: every third session turns some
/// of its turns into `wage_stats` updates, while the other sessions ask
/// about every table under the default (hallucinating) model, so a repaired
/// candidate may read the written table whatever its question names.
/// Hosted transcripts must equal the serial replay in submission order, for
/// any worker count — every turn sees the writes submitted before it and
/// none submitted after it.
#[test]
fn hosted_sessions_with_writers_equal_a_serial_replay_in_submission_order() {
    const CANTONS: [&str; 4] = ["ZH", "BE", "GE", "VD"];
    let world = demo_world(42);
    for seed in [17u64, 25, 37] {
        let mut scripts =
            session_scripts(&world, LoadSpec { sessions: 12, turns_per_session: 10, seed });
        for (i, script) in scripts.iter_mut().enumerate().filter(|(i, _)| i % 3 == 0) {
            for (t, turn) in script.iter_mut().enumerate().filter(|(t, _)| t % 3 == 1) {
                let canton = CANTONS[(i + t) % CANTONS.len()];
                *turn = format!(
                    "UPDATE wage_stats SET median_wage = median_wage + 1 WHERE canton = '{canton}'"
                );
            }
        }
        let order = interleave(&scripts, seed);
        let reference = serial_replay_in_submission_order(scripts.len(), &order);
        for workers in [1usize, 2, 4] {
            let mut server = Server::new(
                demo_world(42),
                ServerConfig { workers, ..ServerConfig::default() },
            );
            let ids = server.open_sessions("tenant", scripts.len());
            for (i, turn) in &order {
                server.submit(ids[*i], turn).unwrap();
            }
            let report = server.drain();
            assert!(server.world().epoch() > 0, "the writes committed");
            let mut hosted = vec![Vec::new(); scripts.len()];
            for o in &report.outcomes {
                match o {
                    TurnOutcome::Completed(r) => {
                        hosted[r.session.index()].push(r.rendered.clone())
                    }
                    TurnOutcome::Rejected { .. } => panic!("unexpected rejection"),
                }
            }
            for s in 0..scripts.len() {
                assert_eq!(
                    hosted[s], reference[s],
                    "session {s} diverged from the serial replay at seed={seed} workers={workers}"
                );
            }
        }
    }
}

/// Readers whose questions all name tables the writer never touches, asked
/// twice with a `wage_stats` update submitted in between. Under the
/// hallucinating model some answers are repaired candidates that read
/// `wage_stats` anyway (session seed 3 answers one of these questions from
/// `wage_stats.median_wage`), so the update must invalidate them for the
/// second ask exactly as it does serially, whatever the question names.
#[test]
fn an_answer_reading_a_written_table_sees_the_write_submitted_before_it() {
    const UPDATE: &str = "UPDATE wage_stats SET median_wage = median_wage + 1";
    let world = demo_world(42);
    let fixed =
        ["Which datasets", "Tell me more", "Is there seasonality", "and per type", "only the top"];
    let mut questions: Vec<String> =
        session_scripts(&world, LoadSpec { sessions: 64, turns_per_session: 16, seed: 17 })
            .into_iter()
            .flatten()
            .filter(|t| !t.contains("wage") && !fixed.iter().any(|f| t.starts_with(f)))
            .collect();
    questions.sort();
    questions.dedup();
    let readers = 1..5;
    let mut order: Vec<(usize, String)> = Vec::new();
    for q in &questions {
        order.extend(readers.clone().map(|r| (r, q.clone())));
    }
    order.push((0, UPDATE.to_owned()));
    for q in &questions {
        order.extend(readers.clone().map(|r| (r, q.clone())));
    }
    let reference = serial_replay_in_submission_order(readers.end, &order);
    for workers in [1usize, 2, 4] {
        let mut server =
            Server::new(demo_world(42), ServerConfig { workers, ..ServerConfig::default() });
        let ids = server.open_sessions("tenant", readers.end);
        for (i, turn) in &order {
            server.submit(ids[*i], turn).unwrap();
        }
        let report = server.drain();
        assert_eq!(server.world().epoch(), 1, "the update committed");
        let mut hosted = vec![Vec::new(); readers.end];
        for o in &report.outcomes {
            if let TurnOutcome::Completed(r) = o {
                hosted[r.session.index()].push(r.rendered.clone());
            }
        }
        for s in readers.clone() {
            assert_eq!(hosted[s], reference[s], "session {s} diverged at workers={workers}");
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

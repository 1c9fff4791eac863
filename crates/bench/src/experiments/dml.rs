//! **E21** — the mutation gate: doomed-write catch rate, precise
//! cross-session cache invalidation, retention under unrelated writes, and
//! the runtime effect sanitizer.
//!
//! Four gates, all hard:
//!
//! * **doomed-write catch rate 1.0**: every statement of the doomed corpus
//!   (unknown tables/columns, INSERT arity mismatches) is rejected by the
//!   static gate with the repair loop off, and none of them mutates the
//!   world; every statement of the valid corpus is applied — **0 false
//!   rejects**.
//! * **0 stale serves after cross-session DML**: readers warm their caches,
//!   another session commits a conflicting write through the server's
//!   write lane, and every reader's next answer reflects the write — no
//!   reader serves its pre-write cached answer, and no reader takes a
//!   cache hit on the conflicting question.
//! * **retention hit rate 1.0 on unrelated writes**: a write to one table
//!   must not evict cached answers grounded in other tables — after the
//!   write, every reader's repeat question on an untouched table is a
//!   cache hit.
//! * **0 effect-sanitizer violations**: the valid corpus executes under
//!   `effect_check` with every write guarded by its static write set.

use crate::{clock, row, Budget, Experiment, Table};
use cda_core::demo::demo_world;
use cda_core::{CdaConfig, Session, WriteDecision};
use cda_server::{Server, ServerConfig, SessionId, TurnOutcome};

const EMP_Q: &str = "What is the total employees in employment_by_type per canton?";
const WAGE_Q: &str = "What is the average median_wage in wage_stats per canton?";
const DML: &str = "INSERT INTO employment_by_type (canton, type, year, employees) \
                   VALUES ('ZH', 'full_time', 2024, 9999)";

/// Statements the static gate must reject (repair off), touching nothing.
fn doomed_corpus() -> Vec<&'static str> {
    vec![
        "DELETE FROM employment_by_type WHERE no_such_column = 3",
        "UPDATE no_such_table_at_all SET employees = 1",
        "UPDATE employment_by_type SET missing_col = 1 WHERE canton = 'ZH'",
        "INSERT INTO employment_by_type (canton, type) VALUES ('ZH')",
        "INSERT INTO employment_by_type (canton, nope) VALUES ('ZH', 1)",
        "DELETE FROM wage_stats WHERE median_wage > bogus_column",
    ]
}

/// Statements the gate must let through (and the sanitizer must accept).
fn valid_corpus() -> Vec<&'static str> {
    vec![
        "INSERT INTO employment_by_type (canton, type, year, employees) \
         VALUES ('TI', 'part_time', 2024, 321)",
        "UPDATE employment_by_type SET employees = employees + 1 WHERE canton = 'ZH'",
        "UPDATE wage_stats SET median_wage = median_wage * 2.0 WHERE canton = 'GE'",
        "UPDATE employment_by_type SET employees = 0 WHERE year = 1900",
        "DELETE FROM wage_stats WHERE canton = 'TI'",
        "DELETE FROM employment_by_type WHERE year = 1900",
    ]
}

fn gated_session(repair_rounds: usize) -> Session {
    let config = CdaConfig { effect_check: true, repair_rounds, ..CdaConfig::default() };
    Session::open_seeded(demo_world(42), config, 1)
}

/// Rendered answers of one drain, keyed by submission order per session.
fn rendered(report: &cda_server::DrainReport, id: SessionId) -> Vec<String> {
    report
        .outcomes
        .iter()
        .filter_map(|o| match o {
            TurnOutcome::Completed(r) if r.session == id => Some(r.rendered.clone()),
            _ => None,
        })
        .collect()
}

fn server(readers: usize) -> (Server, SessionId, Vec<SessionId>) {
    let config = ServerConfig {
        workers: 4,
        session_config: CdaConfig { effect_check: true, ..CdaConfig::default() },
        ..ServerConfig::default()
    };
    let mut srv = Server::new(demo_world(42), config);
    let writer = srv.open_session("bench");
    let readers = (0..readers).map(|_| srv.open_session("bench")).collect();
    (srv, writer, readers)
}

/// Run E21.
pub fn run(budget: &Budget) -> Experiment {
    let readers = if budget.fast { 3 } else { 8 };
    let mut e = Experiment::new(
        "E21",
        "mutation gate: doomed writes, precise invalidation, effect sanitizer",
    );

    // ---- doomed-write catch rate ----------------------------------------
    let mut s = gated_session(0);
    let epoch_before = s.epoch();
    let doomed = doomed_corpus();
    let (caught, t_doom) = clock(1, || {
        doomed
            .iter()
            .filter(|sql| {
                matches!(s.apply_sql(sql), Ok(WriteDecision::Rejected { .. }))
            })
            .count()
    });
    let catch_rate = caught as f64 / doomed.len() as f64;
    let doom_clean = s.epoch() == epoch_before;

    // ---- valid corpus under the sanitizer -------------------------------
    let mut s = gated_session(2);
    let valid = valid_corpus();
    let (applied, t_valid) = clock(1, || {
        valid
            .iter()
            .filter(|sql| matches!(s.apply_sql(sql), Ok(WriteDecision::Applied(_))))
            .count()
    });
    let violations = valid.len() - applied;

    let mut gate = Table::new("the DML gate (gated session)", &["corpus", "outcome", "wall"]);
    row!(gate; "doomed", format!("{caught}/{} rejected (catch rate {catch_rate:.3})", doomed.len()),
        t_doom);
    row!(gate; "valid + sanitizer", format!("{applied}/{} applied ({violations} violations)",
        valid.len()), t_valid);

    // ---- cross-session DML: 0 stale serves ------------------------------
    let (mut srv, writer, ids) = server(readers);
    for id in &ids {
        srv.submit(*id, EMP_Q).expect("submit warm turn");
    }
    let warm = srv.drain();
    let round1: Vec<Vec<String>> = ids.iter().map(|id| rendered(&warm, *id)).collect();

    srv.submit(writer, DML).expect("submit write");
    for id in &ids {
        srv.submit(*id, EMP_Q).expect("submit conflicting turn");
    }
    let (report, t_lane) = clock(1, || srv.drain());
    let round2: Vec<Vec<String>> = ids.iter().map(|id| rendered(&report, *id)).collect();
    let stale_serves = round1.iter().zip(&round2).filter(|(a, b)| a == b).count();
    let conflicting_hits: usize = ids
        .iter()
        .map(|id| srv.session_stats(*id).map(|st| st.cache.hits).unwrap_or(0))
        .sum();
    let mut lane = Table::new(
        format!("one writer + {readers} readers through the server's write lane"),
        &["write", "serialized", "epoch", "reader outcome", "drain wall"],
    );
    row!(lane; "conflicting", format!("{}/{}", report.serialized, ids.len() + 1),
        format!("{epoch_before} -> {}", srv.world().epoch()),
        format!("{stale_serves} stale serves, {conflicting_hits} cache hits"), t_lane);

    // ---- unrelated write: retention hit rate ----------------------------
    let (mut srv, writer, ids) = server(readers);
    for id in &ids {
        srv.submit(*id, WAGE_Q).expect("submit warm turn");
    }
    srv.drain();
    srv.submit(writer, DML).expect("submit unrelated write");
    for id in &ids {
        srv.submit(*id, WAGE_Q).expect("submit retained turn");
    }
    let (unrelated, t_keep) = clock(1, || srv.drain());
    let retained: usize = ids
        .iter()
        .map(|id| srv.session_stats(*id).map(|st| st.cache.hits).unwrap_or(0))
        .sum();
    let retention = retained as f64 / ids.len() as f64;
    row!(lane; "unrelated", format!("{}/{}", unrelated.serialized, ids.len() + 1),
        format!("{epoch_before} -> {}", srv.world().epoch()),
        format!("{retained}/{} answers retained (hit rate {retention:.3})", ids.len()), t_keep);
    e.tables = vec![gate, lane];

    // ---- gates ----------------------------------------------------------
    e.gate(
        "doomed-write catch rate == 1.0 with the world untouched",
        format!("{catch_rate:.3}, world untouched: {doom_clean}"),
        catch_rate == 1.0 && doom_clean,
    );
    e.gate("effect-sanitizer violations == 0", violations, violations == 0);
    e.gate(
        "stale serves and conflicting cache hits after cross-session DML == 0",
        format!("{stale_serves} stale, {conflicting_hits} hits"),
        stale_serves == 0 && conflicting_hits == 0,
    );
    e.gate(
        "retention hit rate on unrelated writes == 1.0",
        format!("{retention:.3}"),
        retention == 1.0,
    );
    e
}

//! Durable world storage end-to-end: restart reuse, epoch invalidation,
//! and the [`CacheStore`] / [`StorageBackend`] swap contracts (the
//! integration half of experiment E20).
//!
//! The headline claim: with a `FileBackend` attached, a *process restart*
//! over an unchanged world serves previously verified answers from the
//! durable semantic cache — byte-identical to fresh execution, with zero
//! re-executions — while a `successor()` epoch bump invalidates every
//! stored record rather than ever serving a stale one. "Restart" here is
//! literal within one test process: every handle (session, world, backend)
//! is dropped, and the world is rebuilt from the file alone.

use cda_core::demo::{demo_catalog, demo_kg, demo_linker, demo_vocabulary};
use cda_core::session::{CachedAnswer, SemanticCache};
use cda_core::storage::{FaultPlan, FileBackend, MemBackend, StorageBackend, StoreId};
use cda_core::{CacheStore, CdaConfig, DurableCache, Session, WorldSnapshot};
use cda_nlmodel::lm::SimLmConfig;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cda-integration-storage-{}-{name}.db", std::process::id()));
    p
}

/// The demo world with a file backend attached and reconciled — what a
/// deployment's startup path looks like. Calling it twice with the same
/// path models a process restart: the second call finds the committed
/// world on disk and adopts it.
fn durable_world(path: &Path, seed: u64) -> Arc<WorldSnapshot> {
    let backend = Arc::new(FileBackend::open(path).unwrap());
    WorldSnapshot::builder()
        .catalog(demo_catalog(seed))
        .kg(demo_kg())
        .vocab(demo_vocabulary())
        .linker(demo_linker())
        .lm(SimLmConfig { hallucination_rate: 0.15, overconfidence: 0.8, seed })
        .with_storage(backend)
        .open_shared()
        .unwrap()
}

/// Strip the cache-note line so a served answer can be compared to the
/// originally executed one (same discipline as the dialogue unit test).
fn strip_cache_note(text: &str) -> String {
    text.lines().filter(|l| !l.contains("reused") && !l.is_empty()).collect::<Vec<_>>().join("\n")
}

const QUERIES: &[&str] = &[
    "What is the total employees in employment_by_type per canton?",
    "and per type instead?",
];

#[test]
fn restart_serves_byte_identical_answers_with_zero_reexecutions() {
    let path = tmp("restart");
    let _ = std::fs::remove_file(&path);

    // First process: every analysis turn executes and is persisted.
    let world = durable_world(&path, 1);
    let mut first = Session::open_durable(Arc::clone(&world), CdaConfig::default()).unwrap();
    let first_answers: Vec<_> = QUERIES.iter().map(|q| first.process(q)).collect();
    let stats = first.stats();
    assert_eq!(stats.cache.hits, 0, "fresh world cannot hit");
    assert!(stats.cache.misses >= 2, "both turns should execute: {stats:?}");
    drop(first);
    drop(world);

    // Process restart: same path, nothing else carried over.
    let world = durable_world(&path, 1);
    assert_eq!(world.epoch(), 0, "disk world adopted");
    assert_eq!(world.catalog().len(), 4, "catalog reloaded from pages");
    let mut second = Session::open_durable(Arc::clone(&world), CdaConfig::default()).unwrap();
    let second_answers: Vec<_> = QUERIES.iter().map(|q| second.process(q)).collect();
    let stats = second.stats();
    assert!(stats.cache.hits >= 2, "restart must serve from the durable cache: {stats:?}");
    assert_eq!(stats.cache.misses, 0, "an unchanged world re-executes nothing: {stats:?}");

    for (a, b) in first_answers.iter().zip(&second_answers) {
        assert_eq!(a.executed_sql, b.executed_sql);
        assert_eq!(strip_cache_note(&a.text), strip_cache_note(&b.text));
        assert!(
            b.analysis.iter().any(|n| n.starts_with("[cache]")),
            "restart answers carry the cache provenance note: {:?}",
            b.analysis
        );
    }

    // And the served result is exactly what re-executing would produce.
    let sql = second_answers[0].executed_sql.as_deref().unwrap();
    let fresh = cda_sql::execute(world.catalog().sql(), sql).unwrap();
    let served = &second_answers[0].explanation.as_ref().unwrap().plan;
    assert_eq!(served, &fresh.plan.explain());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn epoch_bump_invalidates_every_cached_record() {
    let path = tmp("epoch-bump");
    let _ = std::fs::remove_file(&path);

    let world = durable_world(&path, 1);
    let mut s = Session::open_durable(Arc::clone(&world), CdaConfig::default()).unwrap();
    let _ = s.process(QUERIES[0]);
    assert!(s.stats().cache.misses >= 1);
    let backend = Arc::clone(world.storage().unwrap());
    assert!(backend.len(StoreId::SemanticCache).unwrap() >= 1, "record persisted");
    drop(s);

    // The world changes: a successor with a different catalog. Epoch 1 is
    // newer than the committed epoch 0, so memory wins and stale cache
    // records are purged during the open.
    let next = world.successor().catalog(demo_catalog(2)).open_shared().unwrap();
    assert_eq!(next.epoch(), 1);
    assert!(next.stale_cache_dropped() >= 1, "epoch bump must drop the old records");
    assert_eq!(
        backend.len(StoreId::SemanticCache).unwrap(),
        0,
        "no record of epoch 0 survives the bump"
    );

    // Zero stale hits: the same question re-executes under the new world.
    let mut s = Session::open_durable(Arc::clone(&next), CdaConfig::default()).unwrap();
    let _ = s.process(QUERIES[0]);
    let stats = s.stats();
    assert_eq!(stats.cache.hits, 0, "a dropped record must never be served: {stats:?}");
    assert!(stats.cache.misses >= 1, "the turn re-executed: {stats:?}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn reopening_a_successor_world_adopts_the_bumped_epoch() {
    let path = tmp("successor-reopen");
    let _ = std::fs::remove_file(&path);
    let world = durable_world(&path, 1);
    let next = world.successor().catalog(demo_catalog(2)).open_shared().unwrap();
    drop(world);
    drop(next);

    // A restart that still assembles the *old* builder state (epoch 0)
    // must adopt the committed epoch-1 world from disk — disk wins.
    let reopened = durable_world(&path, 1);
    assert_eq!(reopened.epoch(), 1);
    // demo_catalog(2) differs from demo_catalog(1) in its generated rows;
    // the reloaded catalog must be the committed one, not the builder's.
    let committed = demo_catalog(2);
    let reloaded = reopened.catalog();
    assert_eq!(reloaded.len(), committed.len());
    let a = reloaded.get("employment_by_type").unwrap().table.as_ref().unwrap();
    let b = committed.get("employment_by_type").unwrap().table.as_ref().unwrap();
    assert_eq!(a, b, "disk catalog wins over the builder's");
    let _ = std::fs::remove_file(&path);
}

/// The [`CacheStore`] contract both backends must satisfy behind one
/// interface: miss on empty, put-then-get round trip, counters.
fn exercise_cache_store<C: CacheStore>(cache: &mut C, answer: &CachedAnswer) {
    assert!(cache.get(0xFEED).is_none(), "empty store must miss");
    cache.put(0xFEED, answer.clone());
    let got = cache.get(0xFEED).expect("stored answer must be served");
    assert_eq!(got.sql, answer.sql);
    assert_eq!(got.turn, answer.turn);
    assert_eq!(got.result.table, answer.result.table);
    assert_eq!(got.result.stats, answer.result.stats);
    assert!(cache.len() >= 1);
    assert!(!cache.is_empty());
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1), "{stats:?}");
    assert!((stats.hit_rate - 0.5).abs() < 1e-12);
    assert_eq!(stats.write_errors, 0, "{stats:?}");
}

#[test]
fn cache_store_contract_holds_for_memory_and_durable_backends() {
    let catalog = demo_catalog(1);
    let sql = "SELECT canton, employees FROM employment_by_type";
    let result = cda_sql::execute(catalog.sql(), sql).unwrap();
    let answer = CachedAnswer { turn: 3, sql: sql.into(), result };

    // In-memory backend.
    let mut mem = SemanticCache::new();
    exercise_cache_store(&mut mem, &answer);
    CacheStore::clear(&mut mem);
    assert_eq!(mem.len(), 0, "mem entries are conversation-scoped");

    // Durable cache over the in-memory storage backend…
    let world = WorldSnapshot::builder()
        .catalog(demo_catalog(1))
        .kg(demo_kg())
        .with_storage(Arc::new(MemBackend::new()))
        .open_shared()
        .unwrap();
    let backend = Arc::clone(world.storage().unwrap());
    let mut durable = DurableCache::new(Arc::clone(&world), backend);
    exercise_cache_store(&mut durable, &answer);
    durable.clear();
    assert!(durable.len() >= 1, "durable entries are world-scoped and survive clear");
    assert_eq!(durable.stats().hits, 0, "clear resets the counters");

    // …and over the file backend, behind the same two interfaces.
    let path = tmp("swap");
    let _ = std::fs::remove_file(&path);
    let world = WorldSnapshot::builder()
        .catalog(demo_catalog(1))
        .kg(demo_kg())
        .with_storage(Arc::new(FileBackend::open(&path).unwrap()))
        .open_shared()
        .unwrap();
    let backend = Arc::clone(world.storage().unwrap());
    let mut durable = DurableCache::new(world, backend);
    exercise_cache_store(&mut durable, &answer);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_failing_disk_still_answers_and_counts_its_write_errors() {
    // Durable cache writes fail open: a sick disk degrades the session to
    // in-memory behaviour, and the failed write shows in its stats.
    let path = tmp("write-fault");
    let _ = std::fs::remove_file(&path);
    let file = Arc::new(FileBackend::open(&path).unwrap());
    let world = WorldSnapshot::builder()
        .catalog(demo_catalog(1))
        .kg(demo_kg())
        .vocab(demo_vocabulary())
        .linker(demo_linker())
        .lm(SimLmConfig { hallucination_rate: 0.15, overconfidence: 0.8, seed: 1 })
        .with_storage(Arc::clone(&file) as Arc<dyn StorageBackend>)
        .open_shared()
        .unwrap();
    let mut s = Session::open_durable(world, CdaConfig::default()).unwrap();
    file.set_fault_plan(Some(FaultPlan { fail_after_writes: 0, torn_bytes: 0 }));

    let answer = s.process(QUERIES[0]);
    assert!(answer.executed_sql.is_some(), "{}", answer.text);
    let stats = s.stats().cache;
    assert_eq!((stats.misses, stats.write_errors), (1, 1), "{stats:?}");

    // A conversation reset forgets hits and misses, not the disk's failures.
    s.reset_conversation();
    let stats = s.stats().cache;
    assert_eq!((stats.misses, stats.write_errors), (0, 1), "{stats:?}");
    let _ = std::fs::remove_file(&path);
}

/// The wage question reads `wage_stats`; the employment questions read
/// `employment_by_type` — disjoint tables, so a write to one must leave
/// the other's cached answers untouched.
const WAGE_QUERY: &str = "What is the average median_wage in wage_stats per canton?";

#[test]
fn statistics_only_rebuild_retains_every_durable_record() {
    // Regression: successor() used to force a full cache purge even when
    // the rebuild changed only derived statistics. With WorldDelta::
    // Statistics the records survive, re-stamped under the new epoch.
    let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let world = WorldSnapshot::builder()
        .catalog(demo_catalog(1))
        .kg(demo_kg())
        .vocab(demo_vocabulary())
        .linker(demo_linker())
        .lm(SimLmConfig { hallucination_rate: 0.15, overconfidence: 0.8, seed: 1 })
        .with_storage(Arc::clone(&backend))
        .open_shared()
        .unwrap();
    let mut s = Session::open_durable(Arc::clone(&world), CdaConfig::default()).unwrap();
    let first = s.process(QUERIES[0]);
    assert!(first.executed_sql.is_some(), "{}", first.text);
    let records = backend.len(StoreId::SemanticCache).unwrap();
    assert!(records >= 1, "the answer must persist");
    drop(s);

    let next = world
        .successor()
        .delta(cda_core::WorldDelta::Statistics)
        .open_shared()
        .unwrap();
    assert_eq!(next.epoch(), 1);
    assert_eq!(next.stale_cache_dropped(), 0, "statistics-only rebuild keeps every record");
    assert_eq!(backend.len(StoreId::SemanticCache).unwrap(), records);

    // And the retained records are served under the new epoch.
    let mut s = Session::open_durable(next, CdaConfig::default()).unwrap();
    let again = s.process(QUERIES[0]);
    let stats = s.stats();
    assert!(stats.cache.hits >= 1, "re-stamped record must hit: {stats:?}");
    assert_eq!(stats.cache.misses, 0, "{stats:?}");
    assert_eq!(again.executed_sql, first.executed_sql);
    assert_eq!(strip_cache_note(&again.text), strip_cache_note(&first.text));
}

#[test]
fn dml_commit_drops_only_intersecting_durable_records() {
    let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let world = WorldSnapshot::builder()
        .catalog(demo_catalog(1))
        .kg(demo_kg())
        .vocab(demo_vocabulary())
        .linker(demo_linker())
        .lm(SimLmConfig { hallucination_rate: 0.15, overconfidence: 0.8, seed: 1 })
        .with_storage(Arc::clone(&backend))
        .open_shared()
        .unwrap();
    let mut s = Session::open_durable(Arc::clone(&world), CdaConfig::default()).unwrap();
    let emp = s.process(QUERIES[0]);
    assert!(emp.executed_sql.is_some(), "{}", emp.text);
    let wage = s.process(WAGE_QUERY);
    assert!(wage.executed_sql.is_some(), "{}", wage.text);
    let records = backend.len(StoreId::SemanticCache).unwrap();
    assert!(records >= 2, "both answers persisted: {records}");

    // A write to wage_stats commits through the mutation gate.
    let d = s
        .apply_sql(
            "INSERT INTO wage_stats (canton, sector, median_wage) \
             VALUES ('ZH', 'construction', 6100.0)",
        )
        .unwrap();
    let cda_core::WriteDecision::Applied(o) = d else { panic!("gate rejected: {d:?}") };
    assert!(o.committed);
    assert!(o.cache_invalidated >= 1, "the wage answer must drop: {o:?}");
    assert_eq!(
        backend.len(StoreId::SemanticCache).unwrap(),
        records - 1,
        "exactly the intersecting record is gone"
    );

    // A fresh durable session over the successor: the employment answer is
    // served (retained + re-stamped), the wage answer re-executes — and
    // its re-executed result reflects the committed write.
    let mut s2 = Session::open_durable(s.world().clone(), CdaConfig::default()).unwrap();
    let emp2 = s2.process(QUERIES[0]);
    let stats = s2.stats();
    assert!(stats.cache.hits >= 1, "unrelated-table answer survives the write: {stats:?}");
    assert_eq!(strip_cache_note(&emp2.text), strip_cache_note(&emp.text));
    let wage2 = s2.process(WAGE_QUERY);
    assert_eq!(s2.stats().cache.misses, 1, "the invalidated answer re-executes");
    assert_ne!(
        strip_cache_note(&wage2.text),
        strip_cache_note(&wage.text),
        "the re-executed wage answer must see the inserted row"
    );
}

#[test]
fn cross_session_write_never_serves_stale_durable_answers() {
    let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let world = WorldSnapshot::builder()
        .catalog(demo_catalog(1))
        .kg(demo_kg())
        .vocab(demo_vocabulary())
        .linker(demo_linker())
        .lm(SimLmConfig { hallucination_rate: 0.15, overconfidence: 0.8, seed: 1 })
        .with_storage(Arc::clone(&backend))
        .open_shared()
        .unwrap();
    let mut reader = Session::open_durable(Arc::clone(&world), CdaConfig::default()).unwrap();
    let before = reader.process(QUERIES[0]);
    assert!(before.executed_sql.is_some(), "{}", before.text);

    // Another session over the same backend commits a write that touches
    // the reader's cached table.
    let mut writer = Session::open_durable(Arc::clone(&world), CdaConfig::default()).unwrap();
    let d = writer
        .apply_sql(
            "INSERT INTO employment_by_type (canton, type, year, employees) \
             VALUES ('ZH', 'full_time', 2024, 9999)",
        )
        .unwrap();
    let cda_core::WriteDecision::Applied(o) = d else { panic!("{d:?}") };
    assert!(o.committed);

    // The reader still holds the pre-write world: its durable cache is
    // epoch-gated, so the now-reconciled records are never served stale.
    let stale = reader.process(QUERIES[0]);
    assert!(
        stale.analysis.iter().all(|n| !n.starts_with("[cache]")),
        "a pre-write record must not be served after the commit: {:?}",
        stale.analysis
    );

    // Adopting the writer's world with the committed effects re-points the
    // reader; the next turn answers over the new data.
    reader.adopt_world(writer.world().clone(), Some(&o.effects));
    assert_eq!(reader.epoch(), writer.epoch());
    let fresh = reader.process(QUERIES[0]);
    assert!(
        fresh.text.contains("9999") || fresh.text != before.text,
        "the adopted world must reflect the write"
    );
}

#[test]
fn durable_server_restart_reuses_verified_answers() {
    use cda_server::{Server, ServerConfig};
    let path = tmp("server");
    let _ = std::fs::remove_file(&path);

    let config = ServerConfig { workers: 2, durable: true, ..ServerConfig::default() };
    let world = durable_world(&path, 1);
    let mut server = Server::new(world, config.clone());
    let id = server.open_session("tenant");
    for q in QUERIES {
        server.submit(id, q).unwrap();
    }
    let _ = server.drain();
    let before = server.session_stats(id).unwrap();
    assert!(before.cache.misses >= 2, "{before:?}");
    drop(server);

    // Server restart over the same file.
    let world = durable_world(&path, 1);
    let mut server = Server::new(world, config);
    let id = server.open_session("tenant");
    for q in QUERIES {
        server.submit(id, q).unwrap();
    }
    let report = server.drain();
    let after = server.session_stats(id).unwrap();
    assert!(after.cache.hits >= 2, "restarted server serves from disk: {after:?}");
    assert_eq!(after.cache.misses, 0, "{after:?}");
    assert!(report
        .outcomes
        .iter()
        .all(|o| matches!(o, cda_server::TurnOutcome::Completed(r) if !r.rendered.is_empty())));
    let _ = std::fs::remove_file(&path);
}

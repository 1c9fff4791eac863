//! **E20** — durable world storage: cold-restart answer reuse, epoch
//! invalidation, and crash-recovery under injected faults.
//!
//! Full mode drives 16 sessions x 40 turns through a file-backed world,
//! restarts it, and sweeps a fault through every page-write boundary of a
//! commit; a fast budget scales down for CI. Gates:
//!
//! * **restart reuse**: after a cold restart (every handle dropped, the
//!   world rebuilt from the file alone) the durable semantic cache serves
//!   previously verified answers — hit rate > 0 and **0 mismatches**
//!   against a fresh in-memory replay of the same scripts (cache
//!   provenance notes stripped, since only they may differ).
//! * **epoch invalidation**: a `successor()` rebuild drops every stored
//!   record (the backend's cache store is empty right after the bump) and
//!   the post-bump replay again matches a fresh in-memory replay — i.e.
//!   **0 stale hits** can have been served.
//! * **crash recovery**: with a fault injected at every write boundary of
//!   a mutation batch + commit (fast mode strides the sweep), reopening
//!   the file always recovers exactly the pre-commit or post-commit state
//!   — **0 torn recoveries**.
//! * **buffer pool**: the pool's hit rate over the run is reported.

// Scratch database files under the temp dir.
#![allow(clippy::disallowed_methods)]

use crate::loadgen::{session_scripts, LoadSpec};
use crate::{clock, row, Budget, Experiment, Table};
use cda_core::demo::{demo_catalog, demo_kg, demo_linker, demo_vocabulary};
use cda_core::storage::{FaultPlan, FileBackend, StorageBackend, StoreId, PAGE_SIZE};
use cda_core::{CdaConfig, Session, WorldSnapshot};
use cda_nlmodel::lm::SimLmConfig;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A scratch file. The pid keeps concurrent runs apart; the path never
/// reaches the printed output.
fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cda-e20-{}-{name}.db", std::process::id()));
    p
}

fn durable_world(path: &Path, seed: u64) -> Arc<WorldSnapshot> {
    let backend = Arc::new(FileBackend::open(path).expect("open backend"));
    WorldSnapshot::builder()
        .catalog(demo_catalog(seed))
        .kg(demo_kg())
        .vocab(demo_vocabulary())
        .linker(demo_linker())
        .lm(SimLmConfig { hallucination_rate: 0.15, overconfidence: 0.8, seed })
        .with_storage(backend)
        .open_shared()
        .expect("open world")
}

/// Cache provenance notes are the one legal difference between a served
/// and an executed answer's rendering; strip them before comparing.
fn strip_cache_notes(rendered: &str) -> String {
    rendered
        .lines()
        .filter(|l| !l.contains("reused") && !l.contains("[cache]"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Replay every script serially (seed = index + 1), durable or in-memory,
/// returning stripped transcripts and summed cache counters.
fn replay(
    world: &Arc<WorldSnapshot>,
    scripts: &[Vec<String>],
    durable: bool,
) -> (Vec<String>, usize, usize) {
    let mut transcripts = Vec::with_capacity(scripts.len());
    let (mut hits, mut misses) = (0usize, 0usize);
    for (i, script) in scripts.iter().enumerate() {
        let seed = i as u64 + 1;
        let mut s = if durable {
            Session::open_durable_seeded(Arc::clone(world), CdaConfig::default(), seed)
                .expect("durable session")
        } else {
            Session::open_seeded(Arc::clone(world), CdaConfig::default(), seed)
        };
        let mut t = String::new();
        for turn in script {
            t.push_str(&strip_cache_notes(&s.process(turn).render()));
            t.push('\n');
        }
        let st = s.stats();
        hits += st.cache.hits;
        misses += st.cache.misses;
        transcripts.push(t);
    }
    (transcripts, hits, misses)
}

/// Fault sweep over one mutation batch + commit: returns (boundaries
/// tested, torn recoveries). A torn recovery is any reopened state that is
/// neither the pre-commit nor the post-commit state.
/// Full observable state of a backend: every store's scan + the epoch.
type Observed = (Vec<Vec<(Vec<u8>, Vec<u8>)>>, Option<u64>);

fn fault_sweep(stride: u64) -> (u64, u64) {
    let observe = |b: &FileBackend| -> Observed {
        let stores =
            StoreId::ALL.iter().map(|&s| b.scan(s).expect("scan")).collect();
        (stores, b.committed_epoch().expect("epoch"))
    };
    let batch = |b: &FileBackend| -> Result<(), cda_core::storage::StorageError> {
        b.put(StoreId::Datasets, b"big", &vec![0xA5; 2 * PAGE_SIZE])?;
        b.put(StoreId::SemanticCache, b"fp", &vec![7; 900])?;
        b.remove(StoreId::Meta, b"gone")?;
        b.commit(2)
    };

    let base = tmp("sweep-base");
    let _ = std::fs::remove_file(&base);
    {
        let b = FileBackend::open(&base).expect("open base");
        b.put(StoreId::Datasets, b"big", &vec![0x5A; 3 * PAGE_SIZE]).expect("seed");
        b.put(StoreId::Meta, b"gone", b"x").expect("seed");
        b.commit(1).expect("seed commit");
    }
    let pre = {
        let b = FileBackend::open(&base).expect("reopen base");
        observe(&b)
    };
    // Fault-free run measures the batch's physical write count and the
    // legal post state.
    let post_path = tmp("sweep-post");
    std::fs::copy(&base, &post_path).expect("copy");
    let (post, writes) = {
        let b = FileBackend::open(&post_path).expect("open post");
        let before = b.writes_done();
        batch(&b).expect("fault-free batch");
        (observe(&b), b.writes_done() - before)
    };
    let _ = std::fs::remove_file(&post_path);

    let (mut tested, mut torn) = (0u64, 0u64);
    let mut k = 0u64;
    while k <= writes {
        let case = tmp("sweep-case");
        std::fs::copy(&base, &case).expect("copy");
        {
            let b = FileBackend::open(&case).expect("open case");
            b.set_fault_plan(Some(FaultPlan {
                fail_after_writes: k,
                torn_bytes: (k as usize * 97) % PAGE_SIZE,
            }));
            let _ = batch(&b);
        }
        let b = FileBackend::open(&case).expect("recover");
        let rec = observe(&b);
        if rec != pre && rec != post {
            torn += 1;
        }
        tested += 1;
        drop(b);
        let _ = std::fs::remove_file(&case);
        k += stride;
    }
    let _ = std::fs::remove_file(&base);
    (tested, torn)
}

/// Run E20.
pub fn run(budget: &Budget) -> Experiment {
    let (sessions, turns_per_session, stride) =
        if budget.fast { (4, 10, 4) } else { (16, 40, 1) };
    let mut e = Experiment::new(
        "E20",
        "durable world storage: restart reuse, epoch invalidation, crash recovery",
    );

    let path = tmp("world");
    let _ = std::fs::remove_file(&path);

    // ---- cold-restart reuse ---------------------------------------------
    let world = durable_world(&path, 42);
    let spec = LoadSpec { sessions, turns_per_session, seed: 0xE20 };
    let scripts = session_scripts(&world, spec);
    let ((_, h1, m1), t_cold) = clock(1, || replay(&world, &scripts, true));
    drop(world);

    let world = durable_world(&path, 42); // the restart: file is all that survives
    let ((fresh, _, _), t_fresh) = clock(1, || replay(&world, &scripts, false));
    let ((served, h2, m2), t_warm) = clock(1, || replay(&world, &scripts, true));
    let restart_mismatches =
        fresh.iter().zip(&served).filter(|(a, b)| a != b).count();
    let backend = Arc::clone(world.storage().expect("storage attached"));
    let stats = backend.stats();
    let total = (h2 + m2).max(1);
    let restart_hit_rate = h2 as f64 / total as f64;

    let mut restart = Table::new(
        format!("cold restart, {sessions} sessions x {turns_per_session} turns"),
        &["run", "hits", "misses", "mismatches", "wall"],
    );
    row!(restart; "cold (executes)", h1, m1, "-", t_cold);
    row!(restart; "fresh replay (oracle)", "-", "-", "-", t_fresh);
    row!(restart; "restart (serves)", h2, m2, restart_mismatches, t_warm);
    let mut storage = Table::new("storage after the restart replay", &["measure", "value"]);
    row!(storage; "pages", stats.pages);
    row!(storage; "free pages", stats.free_pages);
    row!(storage; "commits", stats.commits);
    row!(storage; "pool hit rate", stats.pool.hit_rate());

    // ---- epoch invalidation ---------------------------------------------
    let entries_before = backend.len(StoreId::SemanticCache).expect("len");
    let bumped = world.successor().catalog(demo_catalog(43)).open_shared().expect("bump");
    let entries_after = backend.len(StoreId::SemanticCache).expect("len");
    let (fresh_bumped, _, _) = replay(&bumped, &scripts, false);
    let (served_bumped, h3, m3) = replay(&bumped, &scripts, true);
    let stale_mismatches =
        fresh_bumped.iter().zip(&served_bumped).filter(|(a, b)| a != b).count();
    let mut epoch = Table::new(
        "epoch bump",
        &["records before", "records after", "dropped", "post-bump hits", "misses", "mismatches"],
    );
    row!(epoch; entries_before, entries_after, bumped.stale_cache_dropped(), h3, m3,
        stale_mismatches);

    // ---- crash recovery -------------------------------------------------
    let ((boundaries, torn), t_sweep) = clock(1, || fault_sweep(stride));
    let mut sweep = Table::new(
        format!("fault sweep, stride {stride}"),
        &["write boundaries", "torn recoveries", "wall"],
    );
    row!(sweep; boundaries, torn, t_sweep);
    e.tables = vec![restart, storage, epoch, sweep];

    // ---- gates ----------------------------------------------------------
    e.gate(
        "restart hit rate > 0 with 0 mismatches",
        format!("{restart_hit_rate:.3}, {restart_mismatches} mismatches"),
        h2 > 0 && restart_mismatches == 0,
    );
    e.gate(
        "epoch bump drops every record with 0 mismatches",
        format!(
            "{}/{entries_before} dropped, {entries_after} left, {stale_mismatches} mismatches",
            bumped.stale_cache_dropped()
        ),
        entries_after == 0
            && bumped.stale_cache_dropped() == entries_before
            && stale_mismatches == 0,
    );
    e.gate(
        "0 torn recoveries over > 0 boundaries",
        format!("{torn} torn over {boundaries}"),
        torn == 0 && boundaries > 0,
    );
    let _ = std::fs::remove_file(&path);
    e
}

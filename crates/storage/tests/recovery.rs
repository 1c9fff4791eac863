//! Crash-recovery certification for [`FileBackend`] (CI gate, experiment
//! E20's fault half).
//!
//! The commit protocol claims: after a crash at *any* point during a batch
//! of writes and its commit, reopening the file yields **exactly** the
//! pre-commit state or **exactly** the post-commit state — never a torn
//! mixture, never corruption. This suite makes the claim empirical:
//!
//! * The *sweep* tests first run a mutation batch fault-free to count the
//!   physical page writes it performs (the buffer pool flushes dirty pages
//!   in ascending page order, so the write sequence is deterministic), then
//!   replay the batch on a fresh copy of the base image with an injected
//!   fault at every write boundary `k = 0..=total`, with and without torn
//!   partial writes. Every recovered state must equal one of the two legal
//!   states, and a batch whose commit *reported* success must recover to
//!   the post state.
//! * The property test drives the same invariant with generated batches
//!   (random keys, value sizes spanning multi-page blobs, removes and
//!   overwrites) and generated fault positions.

// Scratch database files under the temp dir.
#![allow(clippy::disallowed_methods)]

use cda_storage::{FaultPlan, FileBackend, StorageBackend, StoreId, PAGE_SIZE};
use cda_testkit::prelude::*;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cda-storage-recovery-{}-{name}.db", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Everything observable about a backend: per-store contents + epoch.
type State = (Vec<Vec<(Vec<u8>, Vec<u8>)>>, Option<u64>);

fn observe(b: &FileBackend) -> State {
    let stores = StoreId::ALL.iter().map(|&s| b.scan(s).unwrap()).collect();
    (stores, b.committed_epoch().unwrap())
}

/// One mutation in a batch.
#[derive(Debug, Clone)]
enum Op {
    Put(StoreId, Vec<u8>, Vec<u8>),
    Remove(StoreId, Vec<u8>),
}

fn apply(b: &FileBackend, ops: &[Op]) -> Result<(), cda_storage::StorageError> {
    for op in ops {
        match op {
            Op::Put(s, k, v) => b.put(*s, k, v)?,
            Op::Remove(s, k) => {
                b.remove(*s, k)?;
            }
        }
    }
    Ok(())
}

/// Build the base image at `path`: a few committed entries in every store,
/// including one multi-page blob. Returns its observed state.
fn build_base(path: &PathBuf) -> State {
    let b = FileBackend::open(path).unwrap();
    for (i, &s) in StoreId::ALL.iter().enumerate() {
        b.put(s, format!("base-{i}").as_bytes(), &[i as u8; 64]).unwrap();
    }
    b.put(StoreId::Datasets, b"big", &vec![0x5A; 3 * PAGE_SIZE]).unwrap();
    b.commit(1).unwrap();
    observe(&b)
}

/// The mutation batch under test: overwrites (page churn through the free
/// list), fresh keys, a remove, and a new multi-page blob.
fn batch() -> Vec<Op> {
    vec![
        Op::Put(StoreId::Datasets, b"big".to_vec(), vec![0xA5; 2 * PAGE_SIZE]),
        Op::Put(StoreId::SemanticCache, b"fp-1".to_vec(), vec![7; 900]),
        Op::Put(StoreId::KgTriples, b"base-1".to_vec(), vec![9; 5000]),
        Op::Remove(StoreId::Meta, b"base-3".to_vec()),
        Op::Put(StoreId::Meta, b"clock".to_vec(), 42u64.to_be_bytes().to_vec()),
    ]
}

/// Run `ops` + `commit(epoch)` fault-free on a copy of `base` and return
/// the legal post state plus the number of physical writes the batch took.
fn post_state(base: &PathBuf, ops: &[Op], epoch: u64, tag: &str) -> (State, u64) {
    let path = tmp(tag);
    std::fs::copy(base, &path).unwrap();
    let b = FileBackend::open(&path).unwrap();
    let before = b.writes_done();
    apply(&b, ops).unwrap();
    b.commit(epoch).unwrap();
    let writes = b.writes_done() - before;
    let st = observe(&b);
    drop(b);
    let _ = std::fs::remove_file(&path);
    (st, writes)
}

/// The core invariant: fault at write boundary `k`, reopen, and the state
/// is exactly `pre` or exactly `post` (post mandatory if commit said Ok).
fn check_fault_at(
    base: &PathBuf,
    ops: &[Op],
    epoch: u64,
    fault: FaultPlan,
    pre: &State,
    post: &State,
    tag: &str,
) {
    let (k, torn) = (fault.fail_after_writes, fault.torn_bytes);
    let path = tmp(tag);
    std::fs::copy(base, &path).unwrap();
    let b = FileBackend::open(&path).unwrap();
    b.set_fault_plan(Some(fault));
    let committed = apply(&b, ops).and_then(|()| b.commit(epoch)).is_ok();
    drop(b);

    let b = FileBackend::open(&path).unwrap();
    let recovered = observe(&b);
    if committed {
        assert_eq!(
            &recovered, post,
            "fault at write {k} (torn {torn}): commit reported success but \
             recovery lost it"
        );
    } else {
        assert!(
            &recovered == pre || &recovered == post,
            "fault at write {k} (torn {torn}): recovered a torn state \
             (epoch {:?}, {} keys visible in Datasets)",
            recovered.1,
            recovered.0[0].len()
        );
    }
    // The recovered backend must be fully writable again.
    b.put(StoreId::Meta, b"probe", b"ok").unwrap();
    b.commit(epoch + 1).unwrap();
    drop(b);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fault_sweep_every_write_boundary_recovers_pre_or_post() {
    let base = tmp("sweep-base");
    let pre = build_base(&base);
    let ops = batch();
    let (post, writes) = post_state(&base, &ops, 2, "sweep-post");
    assert!(writes >= 5, "batch too small to exercise the protocol: {writes} writes");
    for k in 0..=writes {
        let fault = FaultPlan { fail_after_writes: k, torn_bytes: 0 };
        check_fault_at(&base, &ops, 2, fault, &pre, &post, "sweep-case");
    }
    let _ = std::fs::remove_file(&base);
}

#[test]
fn fault_sweep_with_torn_partial_writes_recovers_pre_or_post() {
    let base = tmp("torn-base");
    let pre = build_base(&base);
    let ops = batch();
    let (post, writes) = post_state(&base, &ops, 2, "torn-post");
    for torn in [1, 100, PAGE_SIZE / 2, PAGE_SIZE - 1] {
        for k in 0..=writes {
            let fault = FaultPlan { fail_after_writes: k, torn_bytes: torn };
            check_fault_at(&base, &ops, 2, fault, &pre, &post, "torn-case");
        }
    }
    let _ = std::fs::remove_file(&base);
}

#[test]
fn repeated_crashes_across_generations_never_tear() {
    // Crash during commit N, recover, commit N fault-free, crash during
    // commit N+1 … — recovery must be re-entrant, not single-shot.
    let path = tmp("generations");
    let b = FileBackend::open(&path).unwrap();
    b.put(StoreId::Datasets, b"k", &[0u8; 100]).unwrap();
    b.commit(1).unwrap();
    drop(b);
    for gen in 2u64..8 {
        let b = FileBackend::open(&path).unwrap();
        let pre = observe(&b);
        b.set_fault_plan(Some(FaultPlan {
            fail_after_writes: gen % 4, // vary the crash point per generation
            torn_bytes: (gen as usize * 97) % PAGE_SIZE,
        }));
        let value = vec![gen as u8; 600 * gen as usize];
        let crashed = b
            .put(StoreId::Datasets, b"k", &value)
            .and_then(|()| b.commit(gen))
            .is_err();
        drop(b);
        let b = FileBackend::open(&path).unwrap();
        let recovered = observe(&b);
        if crashed {
            assert!(recovered == pre || recovered.1 == Some(gen), "generation {gen} tore");
        }
        // Fault-free retry always lands the generation.
        b.put(StoreId::Datasets, b"k", &value).unwrap();
        b.commit(gen).unwrap();
        assert_eq!(b.committed_epoch().unwrap(), Some(gen));
        drop(b);
    }
    let _ = std::fs::remove_file(&path);
}

/// Generated batch: 1–6 ops over random stores/keys, value sizes crossing
/// the one-page and multi-page thresholds.
fn op_strategy() -> Gen<Op> {
    Gen::from_fn(|tc| {
        let store = StoreId::ALL[tc.choice(3)? as usize];
        let key = format!("k{}", tc.choice(4)?).into_bytes();
        if tc.choice(4)? == 0 {
            Ok(Op::Remove(store, key))
        } else {
            let size = match tc.choice(2)? {
                0 => 1 + tc.choice(200)? as usize,
                _ => 3000 + tc.choice(2 * PAGE_SIZE as u64)? as usize,
            };
            let fill = tc.choice(255)? as u8;
            Ok(Op::Put(store, key, vec![fill; size]))
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random batches, random fault positions: recovery is still all-or-
    /// nothing. `fault_frac` picks the crash point as a fraction of the
    /// batch's own (measured) write count so every region of the protocol
    /// gets hit regardless of batch size.
    #[test]
    fn generated_batches_recover_pre_or_post(
        ops in collection::vec(op_strategy(), 1..6),
        fault_frac in 0u64..100,
        torn in 0usize..256,
    ) {
        let base = tmp(&format!("prop-base-{fault_frac}-{torn}"));
        let pre = build_base(&base);
        let (post, writes) = post_state(&base, &ops, 2, &format!("prop-post-{fault_frac}-{torn}"));
        let fault = FaultPlan { fail_after_writes: fault_frac * writes / 100, torn_bytes: torn };
        check_fault_at(&base, &ops, 2, fault, &pre, &post,
                       &format!("prop-case-{fault_frac}-{torn}"));
        let _ = std::fs::remove_file(&base);
    }
}

//! # cda-storage
//!
//! Durable world storage for CDA: a paged on-disk layer with a buffer pool
//! behind a narrow [`StorageBackend`] trait. The ROADMAP's top open item —
//! "everything is in-memory and process-scoped" — is closed here: registered
//! datasets, KG triples, and the `PlanFingerprint → QueryResult` semantic
//! cache survive the process, keyed by `WorldSnapshot` epoch so a rebuild
//! invalidates stale entries on open instead of serving them.
//!
//! Components:
//!
//! * [`codec`] — bounds-checked little-endian byte readers/writers shared by
//!   every on-disk format in the workspace;
//! * [`page`] — fixed 4 KiB pages framed by an FNV-1a checksum; a page is
//!   either verifiably intact or detectably torn, never silently wrong;
//! * [`disk`] — positional page I/O over one file, plus the fault-injection
//!   hook ([`FaultPlan`]) the crash-recovery property suite uses to kill
//!   writes at every page boundary;
//! * [`buffer`] — a clock-replacement buffer pool with pin/unpin, dirty-page
//!   writeback, and hit/miss/eviction counters;
//! * [`backend`] — the [`StorageBackend`] trait (namespaced key-value stores
//!   with an epoch-stamped commit) and the default in-memory
//!   [`MemBackend`], byte-identical to the pre-storage system;
//! * [`mod@file`] — [`FileBackend`]: blob chains over the pager with a
//!   shadow-meta-page commit protocol (two alternating checksummed meta
//!   slots; data and directory pages are written copy-on-write and synced
//!   before the meta flips, so recovery always observes exactly the
//!   pre-commit or the post-commit state).
//!
//! The crate is deliberately domain-free: it stores bytes under byte keys.
//! Encoding catalog datasets, KG triples, and cached answers into those
//! bytes lives next to the types themselves in `cda-core::durable`.
//!
//! ## Example
//!
//! ```
//! use cda_storage::{MemBackend, StorageBackend, StoreId};
//!
//! let backend = MemBackend::new();
//! backend.put(StoreId::SemanticCache, b"fp", b"answer").unwrap();
//! backend.commit(0).unwrap();
//! assert_eq!(backend.get(StoreId::SemanticCache, b"fp").unwrap().unwrap(), b"answer");
//! assert_eq!(backend.committed_epoch().unwrap(), Some(0));
//! ```

// DESIGN.md §6: no panic and no stdio on product paths; `#[cfg(test)]` code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::allow_attributes, clippy::allow_attributes_without_reason))]
#![expect(
    clippy::disallowed_types,
    reason = "the one crate that owns the file system: clippy.toml bans `std::fs` everywhere else"
)]
#![cfg_attr(
    test,
    expect(clippy::disallowed_methods, reason = "unit tests remove their scratch files")
)]

pub mod backend;
pub mod buffer;
pub mod codec;
pub mod disk;
pub mod file;
pub mod page;

pub use backend::{MemBackend, StorageBackend, StorageStats, StoreId};
pub use codec::{ByteReader, ByteWriter};
pub use disk::FaultPlan;
pub use file::FileBackend;
pub use page::PAGE_SIZE;

use std::fmt;

/// Errors surfaced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An underlying I/O operation failed (message carries the OS error).
    Io(String),
    /// On-disk bytes failed a checksum or structural validation.
    Corrupt(String),
    /// A [`FaultPlan`] killed a physical page write (crash simulation).
    InjectedFault {
        /// Number of physical page writes that completed before the kill.
        writes_done: u64,
    },
    /// The backend aborted a commit and its in-memory state may no longer
    /// match disk; reopen the file to recover.
    Poisoned,
    /// A value failed to decode (message names the field).
    Codec(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage i/o error: {e}"),
            StorageError::Corrupt(what) => write!(f, "storage corruption: {what}"),
            StorageError::InjectedFault { writes_done } => {
                write!(f, "injected fault after {writes_done} page writes")
            }
            StorageError::Poisoned => {
                write!(f, "backend poisoned by an aborted commit; reopen to recover")
            }
            StorageError::Codec(what) => write!(f, "storage codec error: {what}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;

/// FNV-1a 64-bit hash — the workspace's standard checksum primitive.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

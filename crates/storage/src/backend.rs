//! The storage API surface: namespaced key-value stores with an
//! epoch-stamped commit.
//!
//! [`StorageBackend`] is the only interface the rest of the workspace sees.
//! It is deliberately narrow — byte keys, byte values, four fixed stores, a
//! single `commit(epoch)` — so the in-memory default and the paged on-disk
//! implementation are interchangeable behind
//! `WorldSnapshot::builder().with_storage(...)`. The epoch argument is the
//! `WorldSnapshot` epoch: a `successor()` rebuild commits under a new epoch
//! and stale cache entries are invalidated on open by comparing stamps, not
//! by trusting the writer.

use crate::buffer::PoolStats;
use crate::{Result, StorageError};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

/// The fixed namespaces a backend persists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StoreId {
    /// Registered datasets from `DatasetCatalog`, keyed by registration
    /// index so scans replay registration order.
    Datasets,
    /// KG dictionary + triples from `cda-kg`.
    KgTriples,
    /// `PlanFingerprint → QueryResult` semantic cache entries.
    SemanticCache,
    /// World-level metadata (catalog clock, format versions).
    Meta,
}

impl StoreId {
    /// Every store, in tag order.
    pub const ALL: [StoreId; 4] =
        [StoreId::Datasets, StoreId::KgTriples, StoreId::SemanticCache, StoreId::Meta];

    /// Dense index for per-store tables.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            StoreId::Datasets => 0,
            StoreId::KgTriples => 1,
            StoreId::SemanticCache => 2,
            StoreId::Meta => 3,
        }
    }

    /// Stable on-disk tag.
    #[must_use]
    pub fn tag(self) -> u8 {
        self.index() as u8
    }

    /// Inverse of [`StoreId::tag`].
    pub(crate) fn from_tag(tag: u8) -> Result<Self> {
        StoreId::ALL
            .get(tag as usize)
            .copied()
            .ok_or_else(|| StorageError::Corrupt(format!("unknown store tag {tag}")))
    }
}

impl fmt::Display for StoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            StoreId::Datasets => "datasets",
            StoreId::KgTriples => "kg",
            StoreId::SemanticCache => "cache",
            StoreId::Meta => "meta",
        };
        f.write_str(name)
    }
}

/// Observability counters for a backend.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct StorageStats {
    /// Pages in the backing file (0 for in-memory backends).
    pub pages: u64,
    /// Pages currently reusable without growing the file.
    pub free_pages: u64,
    /// Buffer-pool counters (all zero for in-memory backends).
    pub pool: PoolStats,
    /// Successful commits since open.
    pub commits: u64,
}

/// Namespaced durable key-value storage with epoch-stamped commits.
///
/// Mutating methods take `&self`: implementations use interior mutability so
/// a backend can be shared as `Arc<dyn StorageBackend>` by a world snapshot
/// and every session over it. Reads observe uncommitted writes from the
/// same process (read-your-writes); only `commit` makes them durable.
pub trait StorageBackend: fmt::Debug + Send + Sync {
    /// The value stored under `key`, if any.
    fn get(&self, store: StoreId, key: &[u8]) -> Result<Option<Vec<u8>>>;

    /// Insert or replace the value under `key`.
    fn put(&self, store: StoreId, key: &[u8], value: &[u8]) -> Result<()>;

    /// Remove `key`; returns whether it was present.
    fn remove(&self, store: StoreId, key: &[u8]) -> Result<bool>;

    /// Remove every entry in `store`.
    fn clear(&self, store: StoreId) -> Result<()>;

    /// All `(key, value)` pairs in `store`, in ascending key order.
    fn scan(&self, store: StoreId) -> Result<Vec<(Vec<u8>, Vec<u8>)>>;

    /// Number of entries in `store`.
    fn len(&self, store: StoreId) -> Result<usize>;

    /// True if `store` holds no entries.
    fn is_empty(&self, store: StoreId) -> Result<bool> {
        Ok(self.len(store)? == 0)
    }

    /// The epoch stamped by the last successful commit, or `None` if the
    /// backend has never committed (fresh file / fresh memory).
    fn committed_epoch(&self) -> Result<Option<u64>>;

    /// Atomically make every outstanding write durable under `epoch`.
    /// After an error the backend may refuse further work
    /// ([`StorageError::Poisoned`]); reopening the file recovers the last
    /// committed state.
    fn commit(&self, epoch: u64) -> Result<()>;

    /// Counters for dashboards and the E20 report.
    fn stats(&self) -> StorageStats;
}

#[derive(Debug, Default)]
struct MemInner {
    stores: [BTreeMap<Vec<u8>, Vec<u8>>; 4],
    epoch: Option<u64>,
    commits: u64,
}

/// The default in-memory backend: plain `BTreeMap`s, no durability.
///
/// Worlds built without `with_storage(...)` behave exactly as before this
/// crate existed; `MemBackend` exists so the durable code paths can be
/// swap-tested behind the same trait without touching a disk.
#[derive(Debug, Default)]
pub struct MemBackend {
    inner: Mutex<MemInner>,
}

impl MemBackend {
    /// An empty in-memory backend.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemInner> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl StorageBackend for MemBackend {
    fn get(&self, store: StoreId, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.lock().stores[store.index()].get(key).cloned())
    }

    fn put(&self, store: StoreId, key: &[u8], value: &[u8]) -> Result<()> {
        self.lock().stores[store.index()].insert(key.to_vec(), value.to_vec());
        Ok(())
    }

    fn remove(&self, store: StoreId, key: &[u8]) -> Result<bool> {
        Ok(self.lock().stores[store.index()].remove(key).is_some())
    }

    fn clear(&self, store: StoreId) -> Result<()> {
        self.lock().stores[store.index()].clear();
        Ok(())
    }

    fn scan(&self, store: StoreId) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Ok(self.lock().stores[store.index()]
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect())
    }

    fn len(&self, store: StoreId) -> Result<usize> {
        Ok(self.lock().stores[store.index()].len())
    }

    fn committed_epoch(&self) -> Result<Option<u64>> {
        Ok(self.lock().epoch)
    }

    fn commit(&self, epoch: u64) -> Result<()> {
        let mut g = self.lock();
        g.epoch = Some(epoch);
        g.commits += 1;
        Ok(())
    }

    fn stats(&self) -> StorageStats {
        StorageStats { commits: self.lock().commits, ..StorageStats::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_round_trips_and_scans_in_key_order() {
        let b = MemBackend::new();
        b.put(StoreId::Datasets, b"b", b"2").unwrap();
        b.put(StoreId::Datasets, b"a", b"1").unwrap();
        assert_eq!(b.get(StoreId::Datasets, b"a").unwrap().unwrap(), b"1");
        assert_eq!(b.get(StoreId::KgTriples, b"a").unwrap(), None, "stores are disjoint");
        let keys: Vec<_> = b.scan(StoreId::Datasets).unwrap().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec()]);
        assert!(b.remove(StoreId::Datasets, b"a").unwrap());
        assert!(!b.remove(StoreId::Datasets, b"a").unwrap());
        assert_eq!(b.len(StoreId::Datasets).unwrap(), 1);
        b.clear(StoreId::Datasets).unwrap();
        assert!(b.is_empty(StoreId::Datasets).unwrap());
    }

    #[test]
    fn commit_stamps_the_epoch() {
        let b = MemBackend::new();
        assert_eq!(b.committed_epoch().unwrap(), None);
        b.commit(3).unwrap();
        assert_eq!(b.committed_epoch().unwrap(), Some(3));
        assert_eq!(b.stats().commits, 1);
    }

    #[test]
    fn store_tags_round_trip() {
        for s in StoreId::ALL {
            assert_eq!(StoreId::from_tag(s.tag()).unwrap(), s);
        }
        assert!(StoreId::from_tag(9).is_err());
    }
}

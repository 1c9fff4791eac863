//! The paged on-disk backend with a shadow-meta-page commit protocol.
//!
//! ## File layout
//!
//! * **Pages 0 and 1** are the two *meta slots*. A meta payload carries a
//!   magic number, a monotonically increasing commit version, the world
//!   epoch of the commit, the head of the directory chain, and the file's
//!   page count. Version `v` always lives in slot `v % 2`, so a commit
//!   overwrites the *older* slot and the newest fully written meta is never
//!   touched while its successor is in flight.
//! * **Directory pages** form a singly linked chain. Each page lists
//!   `(store, key, blob head, blob length)` entries; the chain is rewritten
//!   copy-on-write at every commit.
//! * **Blob pages** hold values as singly linked segment chains
//!   (`next`, `seg_len`, bytes). Blobs are immutable once written: an
//!   overwrite allocates a fresh chain and the old one is reclaimed only
//!   *after* the commit that unlinks it.
//!
//! ## Commit protocol
//!
//! 1. flush dirty blob pages (ascending page order) and `fsync`;
//! 2. write the new directory chain to freshly allocated pages and `fsync`;
//! 3. write the meta page for `version + 1` into the old slot and `fsync`.
//!
//! Allocation never hands out a page reachable from the last committed
//! meta, so steps 1–2 cannot damage the committed state; recovery reads
//! both meta slots, discards any that fail their checksum (a torn step 3),
//! and resumes from the highest valid version. Every crash therefore lands
//! on exactly the pre-commit or the post-commit state — the property the
//! fault-injection suite in `tests/recovery.rs` checks at every page-write
//! boundary.

use crate::backend::{StorageBackend, StorageStats, StoreId};
use crate::buffer::BufferPool;
use crate::codec::{ByteReader, ByteWriter};
use crate::disk::{DiskManager, FaultPlan};
use crate::page::{Page, PageId, PAGE_PAYLOAD};
use crate::{Result, StorageError};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const META_MAGIC: u64 = 0x4344_4153_544f_5247; // "CDASTORG"
const N_STORES: usize = StoreId::ALL.len();
/// Chain page header: next page id (u64) + segment length (u32).
const CHAIN_HDR: usize = 12;
/// Payload bytes of one blob or directory page after the chain header.
const SEG_CAP: usize = PAGE_PAYLOAD - CHAIN_HDR;
/// Default buffer-pool capacity in frames.
pub(crate) const DEFAULT_POOL_FRAMES: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Meta {
    version: u64,
    epoch: Option<u64>,
    dir_head: PageId,
    pages: u64,
}

impl Meta {
    fn encode(&self) -> Result<Page> {
        let mut w = ByteWriter::new();
        w.u64(META_MAGIC);
        w.u64(self.version);
        match self.epoch {
            Some(e) => {
                w.u8(1);
                w.u64(e);
            }
            None => {
                w.u8(0);
                w.u64(0);
            }
        }
        w.u64(self.dir_head);
        w.u64(self.pages);
        Page::from_payload(&w.finish())
    }

    fn decode(page: &Page) -> Option<Meta> {
        if !page.is_sealed() {
            return None;
        }
        let mut r = ByteReader::new(page.payload());
        if r.u64().ok()? != META_MAGIC {
            return None;
        }
        let version = r.u64().ok()?;
        let has_epoch = r.u8().ok()? == 1;
        let epoch_raw = r.u64().ok()?;
        let dir_head = r.u64().ok()?;
        let pages = r.u64().ok()?;
        Some(Meta {
            version,
            epoch: has_epoch.then_some(epoch_raw),
            dir_head,
            pages,
        })
    }

    fn slot(&self) -> PageId {
        self.version % 2
    }
}

/// A value's location: head of its page chain and total byte length.
/// `head == 0` encodes the empty blob (page 0 is a meta slot, so the id is
/// unambiguous).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlobRef {
    head: PageId,
    len: u64,
}

#[derive(Debug)]
struct FileInner {
    disk: DiskManager,
    pool: BufferPool,
    /// Live (read-your-writes) view: per-store key → blob location.
    tables: [BTreeMap<Vec<u8>, BlobRef>; N_STORES],
    committed: Meta,
    /// Pages of the committed directory chain.
    dir_pages: Vec<PageId>,
    /// Allocatable pages: unreachable from the committed state.
    free: BTreeSet<PageId>,
    /// Pages unlinked by uncommitted operations; reusable only after the
    /// next successful commit proves the committed state no longer needs
    /// them.
    pending_free: Vec<PageId>,
    /// File-extension watermark.
    next_page: PageId,
    commits: u64,
    /// Set when an aborted commit may have diverged memory from disk.
    poisoned: bool,
}

/// The durable paged backend. See the module docs for the on-disk format
/// and crash-safety argument.
#[derive(Debug)]
pub struct FileBackend {
    inner: Mutex<FileInner>,
    path: PathBuf,
}

impl FileBackend {
    /// Open (creating or recovering) the file at `path` with the default
    /// buffer-pool size.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_pool(path, DEFAULT_POOL_FRAMES)
    }

    /// Open with an explicit buffer-pool capacity (frames).
    pub(crate) fn open_with_pool(path: impl AsRef<Path>, pool_frames: usize) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut disk = DiskManager::open(&path)?;
        let mut pool = BufferPool::new(pool_frames);

        if disk.num_pages() < 2 {
            init_fresh(&mut disk)?;
        }
        let committed = match read_best_meta(&mut disk) {
            Some(m) => m,
            None => {
                // Both slots invalid: the file never survived its first
                // commit. Nothing durable can have existed; re-initialise.
                init_fresh(&mut disk)?;
                read_best_meta(&mut disk)
                    .ok_or_else(|| StorageError::Corrupt("meta slots unwritable".into()))?
            }
        };

        let mut tables: [BTreeMap<Vec<u8>, BlobRef>; N_STORES] = Default::default();
        let mut used: BTreeSet<PageId> = BTreeSet::new();
        let mut dir_pages = Vec::new();
        let limit = disk.num_pages() + 2;

        // Replay the committed directory chain.
        let mut pid = committed.dir_head;
        let mut steps = 0u64;
        while pid != 0 {
            steps += 1;
            if steps > limit {
                return Err(StorageError::Corrupt("directory chain cycle".into()));
            }
            let idx = pool.fetch(&mut disk, pid)?;
            let payload = pool.page(idx).payload().to_vec();
            pool.unpin(idx, false);
            dir_pages.push(pid);
            used.insert(pid);
            let mut r = ByteReader::new(&payload);
            let next = r.u64()?;
            let count = r.u32()?;
            for _ in 0..count {
                let store = StoreId::from_tag(r.u8()?)?;
                let key = r.bytes()?.to_vec();
                let head = r.u64()?;
                let len = r.u64()?;
                tables[store.index()].insert(key, BlobRef { head, len });
            }
            pid = next;
        }

        // Walk every live blob chain: verifies checksums and lengths, and
        // tells us which pages the committed state owns.
        for table in &tables {
            for blob in table.values() {
                let mut pid = blob.head;
                let mut total = 0u64;
                let mut steps = 0u64;
                while pid != 0 {
                    steps += 1;
                    if steps > limit {
                        return Err(StorageError::Corrupt("blob chain cycle".into()));
                    }
                    used.insert(pid);
                    let idx = pool.fetch(&mut disk, pid)?;
                    let payload = pool.page(idx).payload();
                    let mut r = ByteReader::new(payload);
                    let next = r.u64()?;
                    let seg_len = r.u32()? as u64;
                    pool.unpin(idx, false);
                    total += seg_len;
                    pid = next;
                }
                if total != blob.len {
                    return Err(StorageError::Corrupt(format!(
                        "blob length mismatch: directory says {}, chain holds {total}",
                        blob.len
                    )));
                }
            }
        }

        // Everything else — including garbage from a crashed commit — is
        // allocatable.
        let next_page = disk.num_pages().max(2);
        let free: BTreeSet<PageId> = (2..next_page).filter(|p| !used.contains(p)).collect();

        Ok(Self {
            inner: Mutex::new(FileInner {
                disk,
                pool,
                tables,
                committed,
                dir_pages,
                free,
                pending_free: Vec::new(),
                next_page,
                commits: 0,
                poisoned: false,
            }),
            path,
        })
    }

    /// The backing file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Arm (or disarm) the crash simulation on the underlying disk
    /// manager. Test hook for the recovery suite; write counting restarts
    /// when the plan is armed.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        self.lock().disk.set_fault_plan(plan);
    }

    /// Physical page writes since open (or since the last plan was armed).
    #[must_use]
    pub fn writes_done(&self) -> u64 {
        self.lock().disk.writes_done()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FileInner> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

fn init_fresh(disk: &mut DiskManager) -> Result<()> {
    let meta = Meta { version: 0, epoch: None, dir_head: 0, pages: 2 };
    disk.write_page(0, &meta.encode()?)?;
    // Slot 1 starts as an unsealed zero page: detectably invalid.
    disk.write_page(1, &Page::zeroed())?;
    disk.sync()
}

fn read_best_meta(disk: &mut DiskManager) -> Option<Meta> {
    let mut best: Option<Meta> = None;
    for slot in 0..2u64 {
        if let Ok(page) = disk.read_page(slot) {
            if let Some(m) = Meta::decode(&page) {
                let newer = match best {
                    Some(b) => m.version > b.version,
                    None => true,
                };
                if m.slot() == slot && newer {
                    best = Some(m);
                }
            }
        }
    }
    best
}

impl FileInner {
    fn guard(&self) -> Result<()> {
        if self.poisoned {
            Err(StorageError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// Lowest free page, else extend the file.
    fn alloc(&mut self) -> PageId {
        let pid = match self.free.iter().next().copied() {
            Some(p) => {
                self.free.remove(&p);
                p
            }
            None => {
                let p = self.next_page;
                self.next_page += 1;
                p
            }
        };
        // A recycled id may still be cached from its previous life.
        self.pool.drop_page(pid);
        pid
    }

    fn read_blob(&mut self, blob: BlobRef) -> Result<Vec<u8>> {
        let limit = self.next_page + 2;
        // `blob.len` comes off disk: reserve no more than a chain of at most
        // `limit` pages can hold, so a forged length fails the check below
        // instead of allocating.
        let chain_cap = limit.saturating_mul(SEG_CAP as u64);
        let mut out = Vec::with_capacity(blob.len.min(chain_cap) as usize);
        let mut pid = blob.head;
        let mut steps = 0u64;
        while pid != 0 {
            steps += 1;
            if steps > limit {
                return Err(StorageError::Corrupt("blob chain cycle".into()));
            }
            let idx = self.pool.fetch(&mut self.disk, pid)?;
            let payload = self.pool.page(idx).payload();
            let mut r = ByteReader::new(payload);
            let next = r.u64()?;
            let seg_len = r.u32()? as usize;
            if seg_len > SEG_CAP {
                self.pool.unpin(idx, false);
                return Err(StorageError::Corrupt(format!("segment of {seg_len} bytes")));
            }
            let seg = r.raw(seg_len)?.to_vec();
            self.pool.unpin(idx, false);
            out.extend_from_slice(&seg);
            pid = next;
        }
        if out.len() as u64 != blob.len {
            return Err(StorageError::Corrupt(format!(
                "blob length mismatch: directory says {}, chain holds {}",
                blob.len,
                out.len()
            )));
        }
        Ok(out)
    }

    /// Write `value` as a fresh page chain; returns its blob ref.
    fn write_blob(&mut self, value: &[u8]) -> Result<BlobRef> {
        if value.is_empty() {
            return Ok(BlobRef { head: 0, len: 0 });
        }
        let n = value.len().div_ceil(SEG_CAP);
        let pids: Vec<PageId> = (0..n).map(|_| self.alloc()).collect();
        for (i, pid) in pids.iter().enumerate() {
            let start = i * SEG_CAP;
            let seg = &value[start..(start + SEG_CAP).min(value.len())];
            let next = pids.get(i + 1).copied().unwrap_or(0);
            let mut w = ByteWriter::new();
            w.u64(next);
            w.u32(seg.len() as u32);
            w.raw(seg);
            let encoded = w.finish();
            let idx = self.pool.create(&mut self.disk, *pid)?;
            let page = self.pool.page_mut(idx);
            page.payload_mut()[..encoded.len()].copy_from_slice(&encoded);
            page.seal();
            self.pool.unpin(idx, true);
        }
        Ok(BlobRef { head: pids[0], len: value.len() as u64 })
    }

    /// Unlink a blob's pages into `pending_free` (reusable after the next
    /// commit) and discard any cached frames.
    fn release_blob(&mut self, blob: BlobRef) -> Result<()> {
        let mut pid = blob.head;
        let limit = self.next_page + 2;
        let mut steps = 0u64;
        while pid != 0 {
            steps += 1;
            if steps > limit {
                return Err(StorageError::Corrupt("blob chain cycle".into()));
            }
            let idx = self.pool.fetch(&mut self.disk, pid)?;
            let mut r = ByteReader::new(self.pool.page(idx).payload());
            let next = r.u64()?;
            self.pool.unpin(idx, false);
            self.pool.drop_page(pid);
            self.pending_free.push(pid);
            pid = next;
        }
        Ok(())
    }

    fn do_commit(&mut self, epoch: u64) -> Result<()> {
        // 1. Blob pages first.
        self.pool.flush_all(&mut self.disk)?;
        self.disk.sync()?;

        // 2. Copy-on-write directory chain.
        let mut encoded: Vec<Vec<u8>> = Vec::new();
        for store in StoreId::ALL {
            for (key, blob) in &self.tables[store.index()] {
                let mut w = ByteWriter::new();
                w.u8(store.tag());
                w.bytes(key);
                w.u64(blob.head);
                w.u64(blob.len);
                if w.len() > SEG_CAP {
                    return Err(StorageError::Corrupt(format!(
                        "directory entry of {} bytes exceeds page capacity",
                        w.len()
                    )));
                }
                encoded.push(w.finish());
            }
        }
        let mut chunks: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut cur: Vec<Vec<u8>> = Vec::new();
        let mut cur_len = 0usize;
        for e in encoded {
            if cur_len + e.len() > SEG_CAP && !cur.is_empty() {
                chunks.push(std::mem::take(&mut cur));
                cur_len = 0;
            }
            cur_len += e.len();
            cur.push(e);
        }
        if !cur.is_empty() {
            chunks.push(cur);
        }
        let new_dir: Vec<PageId> = (0..chunks.len()).map(|_| self.alloc()).collect();
        for (i, chunk) in chunks.iter().enumerate() {
            let mut w = ByteWriter::new();
            w.u64(new_dir.get(i + 1).copied().unwrap_or(0));
            w.u32(chunk.len() as u32);
            for e in chunk {
                w.raw(e);
            }
            let page = Page::from_payload(&w.finish())?;
            self.disk.write_page(new_dir[i], &page)?;
        }
        self.disk.sync()?;

        // 3. Shadow meta flip.
        let meta = Meta {
            version: self.committed.version + 1,
            epoch: Some(epoch),
            dir_head: new_dir.first().copied().unwrap_or(0),
            pages: self.next_page,
        };
        self.disk.write_page(meta.slot(), &meta.encode()?)?;
        self.disk.sync()?;

        // Success: the old directory and every unlinked blob page are now
        // unreachable from disk — reclaim them.
        let old_dir = std::mem::replace(&mut self.dir_pages, new_dir);
        self.free.extend(old_dir);
        self.free.extend(self.pending_free.drain(..));
        self.committed = meta;
        self.commits += 1;
        Ok(())
    }
}

impl StorageBackend for FileBackend {
    fn get(&self, store: StoreId, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut g = self.lock();
        g.guard()?;
        match g.tables[store.index()].get(key).copied() {
            Some(blob) => Ok(Some(g.read_blob(blob)?)),
            None => Ok(None),
        }
    }

    fn put(&self, store: StoreId, key: &[u8], value: &[u8]) -> Result<()> {
        let mut g = self.lock();
        g.guard()?;
        let result = (|| -> Result<()> {
            let blob = g.write_blob(value)?;
            if let Some(old) = g.tables[store.index()].insert(key.to_vec(), blob) {
                g.release_blob(old)?;
            }
            Ok(())
        })();
        if result.is_err() {
            g.poisoned = true;
        }
        result
    }

    fn remove(&self, store: StoreId, key: &[u8]) -> Result<bool> {
        let mut g = self.lock();
        g.guard()?;
        match g.tables[store.index()].remove(key) {
            Some(old) => {
                if let Err(e) = g.release_blob(old) {
                    g.poisoned = true;
                    return Err(e);
                }
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn clear(&self, store: StoreId) -> Result<()> {
        let mut g = self.lock();
        g.guard()?;
        let blobs: Vec<BlobRef> = g.tables[store.index()].values().copied().collect();
        g.tables[store.index()].clear();
        for blob in blobs {
            if let Err(e) = g.release_blob(blob) {
                g.poisoned = true;
                return Err(e);
            }
        }
        Ok(())
    }

    fn scan(&self, store: StoreId) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut g = self.lock();
        g.guard()?;
        let entries: Vec<(Vec<u8>, BlobRef)> =
            g.tables[store.index()].iter().map(|(k, b)| (k.clone(), *b)).collect();
        let mut out = Vec::with_capacity(entries.len());
        for (key, blob) in entries {
            let value = g.read_blob(blob)?;
            out.push((key, value));
        }
        Ok(out)
    }

    fn len(&self, store: StoreId) -> Result<usize> {
        let g = self.lock();
        g.guard()?;
        Ok(g.tables[store.index()].len())
    }

    fn committed_epoch(&self) -> Result<Option<u64>> {
        let g = self.lock();
        g.guard()?;
        Ok(g.committed.epoch)
    }

    fn commit(&self, epoch: u64) -> Result<()> {
        let mut g = self.lock();
        g.guard()?;
        let result = g.do_commit(epoch);
        if result.is_err() {
            g.poisoned = true;
        }
        result
    }

    fn stats(&self) -> StorageStats {
        let g = self.lock();
        StorageStats {
            pages: g.next_page,
            free_pages: (g.free.len() + g.pending_free.len()) as u64,
            pool: g.pool.stats(),
            commits: g.commits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cda-storage-file-{}-{name}.db", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn put_get_round_trip_and_read_your_writes() {
        let path = tmp("rt");
        let b = FileBackend::open(&path).unwrap();
        assert_eq!(b.get(StoreId::Datasets, b"k").unwrap(), None);
        b.put(StoreId::Datasets, b"k", b"value one").unwrap();
        assert_eq!(b.get(StoreId::Datasets, b"k").unwrap().unwrap(), b"value one");
        b.put(StoreId::Datasets, b"k", b"value two").unwrap();
        assert_eq!(b.get(StoreId::Datasets, b"k").unwrap().unwrap(), b"value two");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn committed_state_survives_reopen() {
        let path = tmp("reopen");
        {
            let b = FileBackend::open(&path).unwrap();
            b.put(StoreId::Datasets, b"a", b"alpha").unwrap();
            b.put(StoreId::KgTriples, b"kg", &vec![7u8; 10_000]).unwrap();
            b.put(StoreId::SemanticCache, b"fp", b"answer").unwrap();
            b.commit(5).unwrap();
        }
        let b = FileBackend::open(&path).unwrap();
        assert_eq!(b.committed_epoch().unwrap(), Some(5));
        assert_eq!(b.get(StoreId::Datasets, b"a").unwrap().unwrap(), b"alpha");
        assert_eq!(b.get(StoreId::KgTriples, b"kg").unwrap().unwrap(), vec![7u8; 10_000]);
        assert_eq!(b.get(StoreId::SemanticCache, b"fp").unwrap().unwrap(), b"answer");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn uncommitted_writes_vanish_on_reopen() {
        let path = tmp("uncommitted");
        {
            let b = FileBackend::open(&path).unwrap();
            b.put(StoreId::Datasets, b"a", b"committed").unwrap();
            b.commit(0).unwrap();
            b.put(StoreId::Datasets, b"a", b"in flight").unwrap();
            b.put(StoreId::Datasets, b"b", b"also in flight").unwrap();
        }
        let b = FileBackend::open(&path).unwrap();
        assert_eq!(b.get(StoreId::Datasets, b"a").unwrap().unwrap(), b"committed");
        assert_eq!(b.get(StoreId::Datasets, b"b").unwrap(), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn multi_page_blobs_chain_correctly() {
        let path = tmp("chain");
        let b = FileBackend::open(&path).unwrap();
        let big: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        b.put(StoreId::SemanticCache, b"big", &big).unwrap();
        b.commit(1).unwrap();
        drop(b);
        let b = FileBackend::open(&path).unwrap();
        assert_eq!(b.get(StoreId::SemanticCache, b"big").unwrap().unwrap(), big);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_values_are_present_but_empty() {
        let path = tmp("empty");
        let b = FileBackend::open(&path).unwrap();
        b.put(StoreId::Meta, b"flag", b"").unwrap();
        b.commit(0).unwrap();
        drop(b);
        let b = FileBackend::open(&path).unwrap();
        assert_eq!(b.get(StoreId::Meta, b"flag").unwrap().unwrap(), Vec::<u8>::new());
        assert_eq!(b.len(StoreId::Meta).unwrap(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn overwrites_reclaim_pages_after_commit() {
        let path = tmp("reclaim");
        let b = FileBackend::open(&path).unwrap();
        let big = vec![1u8; 40_000];
        for round in 0..8 {
            b.put(StoreId::Datasets, b"big", &big).unwrap();
            b.commit(round).unwrap();
        }
        let stats = b.stats();
        // One live chain (~10 pages) plus bounded slack — not 8 chains.
        assert!(
            stats.pages < 40,
            "pages grew unboundedly: {} total, {} free",
            stats.pages,
            stats.free_pages
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn epoch_bump_is_visible_after_reopen() {
        let path = tmp("epoch");
        {
            let b = FileBackend::open(&path).unwrap();
            b.put(StoreId::SemanticCache, b"fp", b"old world").unwrap();
            b.commit(0).unwrap();
            b.commit(1).unwrap();
        }
        let b = FileBackend::open(&path).unwrap();
        assert_eq!(b.committed_epoch().unwrap(), Some(1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_fault_poisons_and_reopen_recovers() {
        let path = tmp("poison");
        {
            let b = FileBackend::open(&path).unwrap();
            b.put(StoreId::Datasets, b"a", b"stable").unwrap();
            b.commit(0).unwrap();
            b.put(StoreId::Datasets, b"a", b"doomed").unwrap();
            b.set_fault_plan(Some(FaultPlan { fail_after_writes: 0, torn_bytes: 0 }));
            assert!(matches!(b.commit(1), Err(StorageError::InjectedFault { .. })));
            assert!(matches!(b.get(StoreId::Datasets, b"a"), Err(StorageError::Poisoned)));
        }
        let b = FileBackend::open(&path).unwrap();
        assert_eq!(b.get(StoreId::Datasets, b"a").unwrap().unwrap(), b"stable");
        assert_eq!(b.committed_epoch().unwrap(), Some(0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scan_is_key_ordered_and_store_scoped() {
        let path = tmp("scan");
        let b = FileBackend::open(&path).unwrap();
        b.put(StoreId::Datasets, &[2], b"two").unwrap();
        b.put(StoreId::Datasets, &[1], b"one").unwrap();
        b.put(StoreId::KgTriples, &[0], b"other store").unwrap();
        let scan = b.scan(StoreId::Datasets).unwrap();
        assert_eq!(scan, vec![(vec![1], b"one".to_vec()), (vec![2], b"two".to_vec())]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn buffer_pool_reports_hits_on_hot_reads() {
        let path = tmp("pool");
        let b = FileBackend::open_with_pool(&path, 8).unwrap();
        b.put(StoreId::Datasets, b"k", &vec![9u8; 5000]).unwrap();
        b.commit(0).unwrap();
        for _ in 0..10 {
            b.get(StoreId::Datasets, b"k").unwrap();
        }
        assert!(b.stats().pool.hit_rate() > 0.5);
        let _ = std::fs::remove_file(&path);
    }
}

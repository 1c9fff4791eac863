//! Clock-replacement buffer pool.
//!
//! A fixed set of frames caches page images between the [`FileBackend`]'s
//! logical operations and the disk manager. Pages are pinned while a caller
//! holds a frame index, given a second chance via a reference bit when the
//! clock hand sweeps past, and written back on eviction only when dirty.
//! `flush_all` writes dirty frames in ascending page order, which keeps the
//! physical write sequence of a commit deterministic — the crash-recovery
//! sweep depends on that to enumerate every page-write boundary.
//!
//! [`FileBackend`]: crate::file::FileBackend

use crate::disk::DiskManager;
use crate::page::{Page, PageId};
use crate::{Result, StorageError};
use std::collections::HashMap;

/// Buffer pool counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Fetches served from a resident frame.
    pub hits: u64,
    /// Fetches that had to read the disk.
    pub misses: u64,
    /// Frames reclaimed by the clock hand.
    pub evictions: u64,
    /// Dirty pages written back (eviction + flush).
    pub writebacks: u64,
}

impl PoolStats {
    /// Fraction of fetches served from memory (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Frame {
    pid: PageId,
    page: Page,
    dirty: bool,
    pins: u32,
    referenced: bool,
}

/// A fixed-capacity page cache with clock replacement.
#[derive(Debug)]
pub(crate) struct BufferPool {
    frames: Vec<Option<Frame>>,
    map: HashMap<PageId, usize>,
    hand: usize,
    stats: PoolStats,
}

impl BufferPool {
    /// A pool with `capacity` frames (at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            frames: (0..capacity).map(|_| None).collect(),
            map: HashMap::new(),
            hand: 0,
            stats: PoolStats::default(),
        }
    }

    /// Counters since construction.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Pin page `pid`, reading (and checksum-verifying) it from disk on a
    /// miss. Returns the frame index.
    pub(crate) fn fetch(&mut self, disk: &mut DiskManager, pid: PageId) -> Result<usize> {
        if let Some(&idx) = self.map.get(&pid) {
            self.stats.hits += 1;
            if let Some(f) = self.frames[idx].as_mut() {
                f.pins += 1;
                f.referenced = true;
            }
            return Ok(idx);
        }
        self.stats.misses += 1;
        let page = disk.read_page(pid)?;
        page.verify(pid)?;
        self.install(disk, pid, page, false)
    }

    /// Pin a zeroed frame for a freshly allocated page without touching the
    /// disk. Any stale frame for `pid` (a previous life of a recycled page)
    /// is discarded.
    pub fn create(&mut self, disk: &mut DiskManager, pid: PageId) -> Result<usize> {
        if let Some(&idx) = self.map.get(&pid) {
            if let Some(f) = self.frames[idx].as_mut() {
                f.page = Page::zeroed();
                f.dirty = false;
                f.pins += 1;
                f.referenced = true;
            }
            return Ok(idx);
        }
        self.install(disk, pid, Page::zeroed(), false)
    }

    fn install(&mut self, disk: &mut DiskManager, pid: PageId, page: Page, dirty: bool) -> Result<usize> {
        let idx = self.victim(disk)?;
        if let Some(old) = self.frames[idx].take() {
            self.map.remove(&old.pid);
        }
        self.map.insert(pid, idx);
        self.frames[idx] = Some(Frame { pid, page, dirty, pins: 1, referenced: true });
        Ok(idx)
    }

    /// Clock sweep: skip pinned frames, clear one reference bit per pass,
    /// evict the first unreferenced unpinned frame (writing it back if
    /// dirty).
    fn victim(&mut self, disk: &mut DiskManager) -> Result<usize> {
        let cap = self.frames.len();
        for _ in 0..2 * cap + 1 {
            let idx = self.hand;
            self.hand = (self.hand + 1) % cap;
            match self.frames[idx].as_mut() {
                None => return Ok(idx),
                Some(f) if f.pins > 0 => continue,
                Some(f) if f.referenced => f.referenced = false,
                Some(f) => {
                    if f.dirty {
                        disk.write_page(f.pid, &f.page)?;
                        self.stats.writebacks += 1;
                    }
                    self.stats.evictions += 1;
                    let old = self.frames[idx].take();
                    if let Some(old) = old {
                        self.map.remove(&old.pid);
                    }
                    return Ok(idx);
                }
            }
        }
        Err(StorageError::Io("buffer pool exhausted: every frame is pinned".into()))
    }

    /// Immutable view of a pinned frame's page.
    #[must_use]
    pub fn page(&self, idx: usize) -> &Page {
        match self.frames[idx].as_ref() {
            Some(f) => &f.page,
            None => unreachable_page(),
        }
    }

    /// Mutable view of a pinned frame's page. Callers seal the page and
    /// pass `dirty = true` to [`BufferPool::unpin`].
    pub(crate) fn page_mut(&mut self, idx: usize) -> &mut Page {
        match self.frames[idx].as_mut() {
            Some(f) => &mut f.page,
            None => unreachable_page_mut(),
        }
    }

    /// Release a pin, optionally marking the frame dirty.
    pub(crate) fn unpin(&mut self, idx: usize, dirty: bool) {
        if let Some(f) = self.frames[idx].as_mut() {
            f.pins = f.pins.saturating_sub(1);
            f.dirty |= dirty;
        }
    }

    /// Discard any frame caching `pid` without writing it back. Used when a
    /// page is logically freed: its bytes are garbage by definition.
    pub(crate) fn drop_page(&mut self, pid: PageId) {
        if let Some(idx) = self.map.remove(&pid) {
            self.frames[idx] = None;
        }
    }

    /// Write every dirty frame back, in ascending page order (deterministic
    /// physical write sequence), leaving all frames resident and clean.
    pub(crate) fn flush_all(&mut self, disk: &mut DiskManager) -> Result<()> {
        let mut dirty: Vec<usize> = self
            .frames
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_ref().filter(|f| f.dirty).map(|_| i))
            .collect();
        dirty.sort_by_key(|&i| self.frames[i].as_ref().map(|f| f.pid));
        for idx in dirty {
            if let Some(f) = self.frames[idx].as_mut() {
                disk.write_page(f.pid, &f.page)?;
                self.stats.writebacks += 1;
                f.dirty = false;
            }
        }
        Ok(())
    }
}

/// Accessing an unpinned frame index is a caller bug; surface it loudly in
/// debug builds and as an empty page reference never exposed on product
/// paths (indices are handed out pinned and used immediately).
fn unreachable_page() -> &'static Page {
    debug_assert!(false, "frame index used after eviction");
    static EMPTY: std::sync::OnceLock<Page> = std::sync::OnceLock::new();
    EMPTY.get_or_init(Page::zeroed)
}

fn unreachable_page_mut<'a>() -> &'a mut Page {
    debug_assert!(false, "frame index used after eviction");
    Box::leak(Box::new(Page::zeroed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;
    use std::path::{Path, PathBuf};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cda-storage-pool-{}-{name}.db", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn seeded_disk(path: &Path, pages: u64) -> DiskManager {
        let mut d = DiskManager::open(path).unwrap();
        for pid in 0..pages {
            let p = Page::from_payload(format!("page {pid}").as_bytes()).unwrap();
            d.write_page(pid, &p).unwrap();
        }
        d
    }

    #[test]
    fn repeated_fetch_hits_memory() {
        let path = tmp("hits");
        let mut d = seeded_disk(&path, 3);
        let mut pool = BufferPool::new(4);
        for _ in 0..5 {
            let idx = pool.fetch(&mut d, 1).unwrap();
            assert_eq!(&pool.page(idx).payload()[..6], b"page 1");
            pool.unpin(idx, false);
        }
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (4, 1));
        assert!(s.hit_rate() > 0.7);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let path = tmp("dirty");
        let mut d = seeded_disk(&path, 6);
        let mut pool = BufferPool::new(2);
        let idx = pool.fetch(&mut d, 0).unwrap();
        let page = pool.page_mut(idx);
        page.payload_mut()[..7].copy_from_slice(b"edited!");
        page.seal();
        pool.unpin(idx, true);
        // Two more distinct fetches force page 0 out of the 2-frame pool.
        for pid in 1..=4 {
            let i = pool.fetch(&mut d, pid).unwrap();
            pool.unpin(i, false);
        }
        assert!(pool.stats().writebacks >= 1);
        let back = d.read_page(0).unwrap();
        back.verify(0).unwrap();
        assert_eq!(&back.payload()[..7], b"edited!");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pinned_frames_survive_the_clock() {
        let path = tmp("pin");
        let mut d = seeded_disk(&path, 8);
        let mut pool = BufferPool::new(2);
        let pinned = pool.fetch(&mut d, 7).unwrap();
        for pid in 0..6 {
            let i = pool.fetch(&mut d, pid).unwrap();
            pool.unpin(i, false);
        }
        assert_eq!(&pool.page(pinned).payload()[..6], b"page 7");
        pool.unpin(pinned, false);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn all_pinned_pool_reports_exhaustion() {
        let path = tmp("full");
        let mut d = seeded_disk(&path, 4);
        let mut pool = BufferPool::new(2);
        let _a = pool.fetch(&mut d, 0).unwrap();
        let _b = pool.fetch(&mut d, 1).unwrap();
        assert!(pool.fetch(&mut d, 2).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flush_all_clears_dirt_in_page_order() {
        let path = tmp("flush");
        let mut d = seeded_disk(&path, 4);
        let mut pool = BufferPool::new(4);
        for pid in [3u64, 1, 2] {
            let i = pool.fetch(&mut d, pid).unwrap();
            let pg = pool.page_mut(i);
            pg.payload_mut()[0] = b'D';
            pg.seal();
            pool.unpin(i, true);
        }
        let before = d.writes_done();
        pool.flush_all(&mut d).unwrap();
        assert_eq!(d.writes_done() - before, 3);
        pool.flush_all(&mut d).unwrap();
        assert_eq!(d.writes_done() - before, 3, "second flush writes nothing");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn drop_page_discards_without_writeback() {
        let path = tmp("drop");
        let mut d = seeded_disk(&path, 2);
        let mut pool = BufferPool::new(2);
        let i = pool.fetch(&mut d, 1).unwrap();
        let pg = pool.page_mut(i);
        pg.payload_mut()[0] = b'X';
        pg.seal();
        pool.unpin(i, true);
        pool.drop_page(1);
        let before = d.writes_done();
        pool.flush_all(&mut d).unwrap();
        assert_eq!(d.writes_done(), before);
        let back = d.read_page(1).unwrap();
        assert_eq!(&back.payload()[..6], b"page 1", "disk keeps the old bytes");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn create_resets_recycled_page_ids() {
        let path = tmp("create");
        let mut d = seeded_disk(&path, 2);
        let mut pool = BufferPool::new(2);
        let i = pool.fetch(&mut d, 1).unwrap();
        pool.unpin(i, false);
        let j = pool.create(&mut d, 1).unwrap();
        assert_eq!(pool.page(j).payload(), &[0u8; PAGE_SIZE - 8][..]);
        pool.unpin(j, false);
        let _ = std::fs::remove_file(&path);
    }
}

//! Positional page I/O over a single file, with fault injection.
//!
//! The disk manager is the only code in the workspace that touches the
//! filesystem on a product path (clippy's `disallowed_types` /
//! `disallowed_methods`, configured in `clippy.toml`, enforce this). It reads and
//! writes whole `Page`s at `page_id * PAGE_SIZE` offsets and exposes a
//! [`FaultPlan`] hook that kills a chosen physical page write — optionally
//! leaving a torn prefix — so the crash-recovery suite can simulate a power
//! cut at every page boundary of a commit.

use crate::page::{Page, PageId, PAGE_SIZE};
use crate::{Result, StorageError};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;

/// A simulated crash: the `fail_after_writes + 1`-th physical page write
/// (counted from when the plan is armed) fails with
/// [`StorageError::InjectedFault`] after persisting only `torn_bytes` of the
/// page. All subsequent writes fail too, as a killed process would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// How many physical page writes complete before the kill.
    pub fail_after_writes: u64,
    /// Bytes of the killed page actually persisted (0 = clean kill,
    /// `1..PAGE_SIZE` = torn page).
    pub torn_bytes: usize,
}

/// Page-granular file I/O with write accounting.
#[derive(Debug)]
pub(crate) struct DiskManager {
    file: File,
    pages: u64,
    fault: Option<FaultPlan>,
    writes_done: u64,
}

impl DiskManager {
    /// Open (or create) the backing file.
    pub fn open(path: &Path) -> Result<Self> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let len = file.metadata()?.len();
        Ok(Self {
            file,
            pages: len / PAGE_SIZE as u64,
            fault: None,
            writes_done: 0,
        })
    }

    /// Whole pages currently in the file (a torn trailing fragment does not
    /// count; it is overwritten when its page is next allocated).
    #[must_use]
    pub(crate) fn num_pages(&self) -> u64 {
        self.pages
    }

    /// Physical page writes performed so far.
    #[must_use]
    pub fn writes_done(&self) -> u64 {
        self.writes_done
    }

    /// Arm (or disarm) the crash simulation. Write counting for the plan
    /// starts at the moment it is armed.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
        self.writes_done = 0;
    }

    /// Read page `pid`. The image is returned unverified — callers decide
    /// whether a bad checksum is corruption (data page) or merely a stale
    /// shadow slot (meta page).
    pub(crate) fn read_page(&mut self, pid: PageId) -> Result<Page> {
        let mut buf = vec![0u8; PAGE_SIZE];
        self.file
            .read_exact_at(&mut buf, pid * PAGE_SIZE as u64)
            .map_err(|e| StorageError::Io(format!("read page {pid}: {e}")))?;
        Page::from_bytes(buf)
    }

    /// Write page `pid`, honouring the armed [`FaultPlan`].
    pub(crate) fn write_page(&mut self, pid: PageId, page: &Page) -> Result<()> {
        if let Some(plan) = self.fault {
            if self.writes_done >= plan.fail_after_writes {
                let torn = plan.torn_bytes.min(PAGE_SIZE);
                if torn > 0 {
                    self.file
                        .write_all_at(&page.as_bytes()[..torn], pid * PAGE_SIZE as u64)
                        .map_err(|e| StorageError::Io(format!("torn write page {pid}: {e}")))?;
                    let _ = self.file.sync_all();
                }
                return Err(StorageError::InjectedFault { writes_done: self.writes_done });
            }
        }
        self.file
            .write_all_at(page.as_bytes(), pid * PAGE_SIZE as u64)
            .map_err(|e| StorageError::Io(format!("write page {pid}: {e}")))?;
        self.writes_done += 1;
        self.pages = self.pages.max(pid + 1);
        Ok(())
    }

    /// Flush file contents and metadata to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_all().map_err(|e| StorageError::Io(format!("fsync: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cda-storage-disk-{}-{name}.db", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn write_read_round_trip() {
        let path = tmp("rt");
        let mut d = DiskManager::open(&path).unwrap();
        let p = Page::from_payload(b"page three").unwrap();
        d.write_page(3, &p).unwrap();
        assert_eq!(d.num_pages(), 4);
        let back = d.read_page(3).unwrap();
        back.verify(3).unwrap();
        assert_eq!(back, p);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fault_plan_kills_the_chosen_write_and_all_later_ones() {
        let path = tmp("fault");
        let mut d = DiskManager::open(&path).unwrap();
        d.set_fault_plan(Some(FaultPlan { fail_after_writes: 1, torn_bytes: 0 }));
        let p = Page::from_payload(b"x").unwrap();
        d.write_page(0, &p).unwrap();
        assert!(matches!(
            d.write_page(1, &p),
            Err(StorageError::InjectedFault { writes_done: 1 })
        ));
        assert!(d.write_page(2, &p).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_write_leaves_a_detectably_invalid_page() {
        let path = tmp("torn");
        let mut d = DiskManager::open(&path).unwrap();
        let good = Page::from_payload(&[0xAA; 300]).unwrap();
        d.write_page(0, &good).unwrap();
        d.set_fault_plan(Some(FaultPlan { fail_after_writes: 0, torn_bytes: 100 }));
        let next = Page::from_payload(&[0xBB; 300]).unwrap();
        assert!(d.write_page(0, &next).is_err());
        d.set_fault_plan(None);
        let back = d.read_page(0).unwrap();
        assert!(!back.is_sealed(), "torn page must fail its checksum");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reading_past_eof_is_an_io_error() {
        let path = tmp("eof");
        let mut d = DiskManager::open(&path).unwrap();
        assert!(matches!(d.read_page(9), Err(StorageError::Io(_))));
        let _ = std::fs::remove_file(&path);
    }
}

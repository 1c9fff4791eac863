//! Deterministic morsel-driven scheduling.
//!
//! Work is split into fixed-size **morsels** (contiguous row ranges). A small
//! `std::thread` worker pool pulls morsel indices from a shared atomic
//! counter (work stealing by index), computes each morsel independently, and
//! the caller merges the per-morsel results **in morsel order**.
//!
//! Determinism argument: each task function is a pure function of its morsel
//! index, results are slotted into a vector *by index* (never by completion
//! order), and every merge the physical operators perform walks that vector
//! front to back. Thread count and scheduling interleavings therefore cannot
//! be observed — results are bit-identical at any thread count, which the
//! `determinism.rs` integration suite pins for thread counts {1, 2, 8} and
//! morsel sizes {1, 64, 4096}.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Configuration of the vectorized morsel-parallel executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MorselConfig {
    /// Rows per morsel (minimum 1; fed to `morsel_ranges`).
    pub morsel_rows: usize,
    /// Worker threads. `0` means auto (available parallelism, capped at 8).
    pub threads: usize,
}

impl Default for MorselConfig {
    fn default() -> Self {
        Self { morsel_rows: 1024, threads: 0 }
    }
}

impl MorselConfig {
    /// Builder: set the morsel size.
    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = rows.max(1);
        self
    }

    /// Builder: set the worker-thread count (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The worker count actually used: explicit, or detected and capped at 8.
    pub(crate) fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
        }
    }
}

/// Split `rows` into contiguous ranges of at most `morsel_rows` rows.
/// Zero rows → no morsels.
pub(crate) fn morsel_ranges(rows: usize, morsel_rows: usize) -> Vec<Range<usize>> {
    let step = morsel_rows.max(1);
    let mut out = Vec::with_capacity(rows.div_ceil(step));
    let mut start = 0;
    while start < rows {
        let end = (start + step).min(rows);
        out.push(start..end);
        start = end;
    }
    out
}

/// Run `f(0..tasks)` across `threads` workers and return the results **in
/// task order**, regardless of which worker computed what. Panics in workers
/// propagate to the caller.
#[expect(clippy::expect_used, reason = "every task index is claimed by exactly one worker")]
pub fn run_ordered<T, F>(tasks: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if tasks == 0 {
        return Vec::new();
    }
    let workers = threads.max(1).min(tasks);
    if workers == 1 {
        return (0..tasks).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
    let worker_results: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });
    for (i, value) in worker_results.into_iter().flatten() {
        slots[i] = Some(value);
    }
    // Every index in 0..tasks is claimed by exactly one worker via fetch_add,
    // so every slot is filled once all workers have joined.
    slots
        .into_iter()
        .map(|s| s.expect("run_ordered: task produced no result"))
        .collect()
}

/// Merge per-morsel fallible results in morsel order: the error of the
/// smallest morsel index wins, matching row-at-a-time error order across
/// morsel boundaries.
pub(crate) fn first_error<T, E>(results: Vec<Result<T, E>>) -> Result<Vec<T>, E> {
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        out.push(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tile_exactly() {
        assert_eq!(morsel_ranges(0, 4), Vec::<Range<usize>>::new());
        assert_eq!(morsel_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(morsel_ranges(4, 4), vec![0..4]);
        // morsel size 0 is clamped to 1
        assert_eq!(morsel_ranges(2, 0), vec![0..1, 1..2]);
    }

    #[test]
    fn run_ordered_is_order_stable_at_any_thread_count() {
        let expected: Vec<usize> = (0..100).map(|i| i * 3).collect();
        for threads in [1, 2, 8, 32] {
            let got = run_ordered(100, threads, |i| i * 3);
            assert_eq!(got, expected, "threads={threads}");
        }
        assert_eq!(run_ordered(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn first_error_prefers_smallest_morsel_index() {
        let r: Result<Vec<i32>, &str> = first_error(vec![Ok(1), Err("m1"), Err("m2")]);
        assert_eq!(r, Err("m1"));
        let ok: Result<Vec<i32>, &str> = first_error(vec![Ok(1), Ok(2)]);
        assert_eq!(ok, Ok(vec![1, 2]));
    }

    #[test]
    fn config_builders_and_auto_threads() {
        let c = MorselConfig::default().with_morsel_rows(0).with_threads(3);
        assert_eq!(c.morsel_rows, 1);
        assert_eq!(c.effective_threads(), 3);
        assert!(MorselConfig::default().effective_threads() >= 1);
    }
}

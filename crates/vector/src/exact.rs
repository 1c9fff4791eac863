//! Exact brute-force kNN — the correctness baseline of experiment E1 and the
//! ground-truth generator for recall computation.

use crate::metrics::Distance;
use crate::{Neighbor, SearchStats, VectorIndex, VectorSet};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A max-heap entry so `BinaryHeap` keeps the *worst* current neighbor on top.
#[derive(Debug, PartialEq)]
struct HeapEntry(Neighbor);

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.dist.total_cmp(&other.0.dist).then(self.0.id.cmp(&other.0.id))
    }
}

/// Maintain the k nearest seen so far with a bounded max-heap.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<HeapEntry>,
}

impl TopK {
    /// New collector for `k` results.
    pub fn new(k: usize) -> Self {
        Self { k, heap: BinaryHeap::with_capacity(k + 1) }
    }

    /// Offer a candidate; kept only if it improves the top-k.
    pub fn push(&mut self, n: Neighbor) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(HeapEntry(n));
        } else if let Some(worst) = self.heap.peek() {
            if n.dist < worst.0.dist {
                self.heap.pop();
                self.heap.push(HeapEntry(n));
            }
        }
    }

    /// Current k-th (worst retained) distance, or `INFINITY` while unfilled.
    pub(crate) fn kth_dist(&self) -> f32 {
        if self.heap.len() < self.k {
            f32::INFINITY
        } else {
            self.heap.peek().map_or(f32::INFINITY, |e| e.0.dist)
        }
    }

    /// Number of retained neighbors.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Extract results sorted by ascending distance.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut out: Vec<Neighbor> = self.heap.into_iter().map(|e| e.0).collect();
        out.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
        out
    }
}

/// Brute-force index (no preprocessing — the "build" is a no-op, kept for
/// interface symmetry).
#[derive(Debug, Clone)]
pub struct ExactIndex {
    metric: Distance,
}

impl ExactIndex {
    /// Build (trivially) over a dataset with the default metric.
    pub fn build(_data: &VectorSet) -> Self {
        Self { metric: Distance::default() }
    }

    /// Search with statistics.
    pub fn search_with_stats(
        &self,
        data: &VectorSet,
        query: &[f32],
        k: usize,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut top = TopK::new(k);
        for (i, v) in data.iter().enumerate() {
            top.push(Neighbor::new(i, self.metric.compute(query, v)));
        }
        let stats = SearchStats { distance_evals: data.len(), visited: data.len(), early_stop: false };
        (top.into_sorted(), stats)
    }
}

impl VectorIndex for ExactIndex {
    fn search(&self, data: &VectorSet, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_with_stats(data, query, k).0
    }

    fn name(&self) -> &'static str {
        "exact"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> VectorSet {
        VectorSet::from_rows(vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 2.0],
            vec![5.0, 5.0],
        ])
        .unwrap()
    }

    #[test]
    fn finds_nearest_in_order() {
        let idx = ExactIndex::build(&data());
        let hits = idx.search(&data(), &[0.9, 0.1], 3);
        assert_eq!(hits.iter().map(|n| n.id).collect::<Vec<_>>(), vec![1, 0, 2]);
        assert!(hits[0].dist <= hits[1].dist && hits[1].dist <= hits[2].dist);
    }

    #[test]
    fn k_larger_than_data_returns_all() {
        let idx = ExactIndex::build(&data());
        let hits = idx.search(&data(), &[0.0, 0.0], 10);
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn k_zero_returns_empty() {
        let idx = ExactIndex::build(&data());
        assert!(idx.search(&data(), &[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn stats_count_all_evals() {
        let idx = ExactIndex::build(&data());
        let (_, stats) = idx.search_with_stats(&data(), &[0.0, 0.0], 2);
        assert_eq!(stats.distance_evals, 4);
        assert!(!stats.early_stop);
    }

    #[test]
    fn cosine_metric_changes_ranking() {
        let d = VectorSet::from_rows(vec![vec![10.0, 0.0], vec![0.2, 0.2]]).unwrap();
        let l2 = ExactIndex { metric: Distance::SquaredEuclidean };
        let cos = ExactIndex { metric: Distance::Cosine };
        let q = [1.0, 1.0];
        assert_eq!(l2.search(&d, &q, 1)[0].id, 1);
        assert_eq!(cos.search(&d, &q, 1)[0].id, 1);
        let q = [1.0, 0.0];
        assert_eq!(cos.search(&d, &q, 1)[0].id, 0); // same direction
    }

    #[test]
    fn topk_kth_dist_transitions() {
        let mut t = TopK::new(2);
        assert_eq!(t.kth_dist(), f32::INFINITY);
        t.push(Neighbor::new(0, 5.0));
        assert_eq!(t.kth_dist(), f32::INFINITY); // not full yet
        t.push(Neighbor::new(1, 3.0));
        assert_eq!(t.kth_dist(), 5.0);
        t.push(Neighbor::new(2, 1.0));
        assert_eq!(t.kth_dist(), 3.0);
        assert_eq!(t.len(), 2);
        let sorted = t.into_sorted();
        assert_eq!(sorted.iter().map(|n| n.id).collect::<Vec<_>>(), vec![2, 1]);
    }
}

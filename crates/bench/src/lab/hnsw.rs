//! HNSW: hierarchical navigable small-world graph index.
//!
//! The "fast, no guarantee" graph-index family (Elpis \[3\] and friends in the
//! paper's related work). Recall is controlled by the beam width `ef`; the
//! index also exposes an instrumented layer-0 search whose termination is a
//! pluggable policy — the hook used by [`crate::learned`] to implement
//! learned adaptive early termination (Li et al., SIGMOD 2020 \[34\]).

use cda_vector::metrics::squared_euclidean;
use cda_vector::{Neighbor, SearchStats, VectorIndex, VectorSet};
use cda_testkit::rng::StdRng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Min-heap entry by distance (candidates to expand).
#[derive(Debug, PartialEq)]
struct MinEntry(Neighbor);
impl Eq for MinEntry {}
impl PartialOrd for MinEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MinEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.dist.total_cmp(&self.0.dist).then(other.0.id.cmp(&self.0.id))
    }
}

/// Max-heap entry by distance (result set, worst on top).
#[derive(Debug, PartialEq)]
struct MaxEntry(Neighbor);
impl Eq for MaxEntry {}
impl PartialOrd for MaxEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MaxEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.dist.total_cmp(&other.0.dist).then(self.0.id.cmp(&other.0.id))
    }
}

/// State handed to a termination policy after every node expansion.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TerminationState {
    /// Nodes expanded so far in this layer-0 search.
    pub expansions: usize,
    /// Expansions since the result set last improved.
    pub since_improvement: usize,
}

/// Construction/search parameters.
#[derive(Debug, Clone, Copy)]
pub struct HnswParams {
    /// Max out-degree per layer (layer 0 allows `2 * m`).
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Beam width during search.
    pub ef_search: usize,
    /// RNG seed for level assignment.
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        Self { m: 16, ef_construction: 100, ef_search: 50, seed: 0 }
    }
}

#[derive(Debug, Clone)]
struct Node {
    /// Adjacency lists, one per layer the node participates in.
    neighbors: Vec<Vec<usize>>,
}

/// The HNSW index.
#[derive(Debug, Clone)]
pub struct HnswIndex {
    nodes: Vec<Node>,
    entry: usize,
    max_level: usize,
    params: HnswParams,
}

impl HnswIndex {
    /// Build the index over a dataset.
    pub fn build(data: &VectorSet, params: HnswParams) -> Self {
        let n = data.len();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let ml = 1.0 / (params.m.max(2) as f64).ln();
        let mut index = Self { nodes: Vec::with_capacity(n), entry: 0, max_level: 0, params };
        for i in 0..n {
            let level = level_for(&mut rng, ml);
            index.insert(data, i, level);
        }
        index
    }

    fn insert(&mut self, data: &VectorSet, id: usize, level: usize) {
        let node = Node { neighbors: vec![Vec::new(); level + 1] };
        self.nodes.push(node);
        if self.nodes.len() == 1 {
            self.entry = id;
            self.max_level = level;
            return;
        }
        let q = data.vector(id);
        let mut ep = self.entry;
        // Greedy descent through layers above `level`.
        let mut l = self.max_level;
        while l > level {
            ep = self.greedy_closest(data, q, ep, l);
            l -= 1;
        }
        // Insert at each layer from min(level, max_level) down to 0.
        let top = level.min(self.max_level);
        for lc in (0..=top).rev() {
            let candidates = self.search_layer(data, q, ep, self.params.ef_construction, lc);
            let m_max = if lc == 0 { self.params.m * 2 } else { self.params.m };
            let selected: Vec<usize> =
                candidates.iter().take(self.params.m).map(|n| n.id).collect();
            for &nb in &selected {
                self.nodes[id].neighbors[lc].push(nb);
                self.nodes[nb].neighbors[lc].push(id);
                // prune the neighbor's list if it overflowed
                if self.nodes[nb].neighbors[lc].len() > m_max {
                    let v = data.vector(nb);
                    let mut ranked: Vec<Neighbor> = self.nodes[nb].neighbors[lc]
                        .iter()
                        .map(|&x| Neighbor::new(x, squared_euclidean(v, data.vector(x))))
                        .collect();
                    ranked.sort_by(|a, b| a.dist.total_cmp(&b.dist));
                    ranked.truncate(m_max);
                    self.nodes[nb].neighbors[lc] = ranked.into_iter().map(|n| n.id).collect();
                }
            }
            if let Some(best) = candidates.first() {
                ep = best.id;
            }
        }
        if level > self.max_level {
            self.max_level = level;
            self.entry = id;
        }
    }

    fn greedy_closest(&self, data: &VectorSet, q: &[f32], start: usize, layer: usize) -> usize {
        let mut cur = start;
        let mut cur_d = squared_euclidean(q, data.vector(cur));
        loop {
            let mut improved = false;
            if layer < self.nodes[cur].neighbors.len() {
                for &nb in &self.nodes[cur].neighbors[layer] {
                    let d = squared_euclidean(q, data.vector(nb));
                    if d < cur_d {
                        cur = nb;
                        cur_d = d;
                        improved = true;
                    }
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    /// Beam search within one layer; returns up to `ef` nearest, ascending.
    fn search_layer(
        &self,
        data: &VectorSet,
        q: &[f32],
        entry: usize,
        ef: usize,
        layer: usize,
    ) -> Vec<Neighbor> {
        let mut stats = SearchStats::default();
        self.search_layer_with_policy(data, q, entry, ef, layer, &mut stats, |_| false)
    }

    /// Beam search with an external termination policy. The policy is called
    /// after each expansion; returning `true` stops the search early.
    #[expect(clippy::too_many_arguments, reason = "the learned termination policies set each knob")]
    pub(crate) fn search_layer_with_policy(
        &self,
        data: &VectorSet,
        q: &[f32],
        entry: usize,
        ef: usize,
        layer: usize,
        stats: &mut SearchStats,
        mut stop: impl FnMut(&TerminationState) -> bool,
    ) -> Vec<Neighbor> {
        let mut visited = vec![false; self.nodes.len()];
        let d0 = squared_euclidean(q, data.vector(entry));
        stats.distance_evals += 1;
        visited[entry] = true;
        let mut candidates = BinaryHeap::new();
        candidates.push(MinEntry(Neighbor::new(entry, d0)));
        let mut results: BinaryHeap<MaxEntry> = BinaryHeap::new();
        results.push(MaxEntry(Neighbor::new(entry, d0)));
        let mut expansions = 0usize;
        let mut since_improvement = 0usize;
        while let Some(MinEntry(c)) = candidates.pop() {
            let worst = results.peek().map_or(f32::INFINITY, |e| e.0.dist);
            if c.dist > worst && results.len() >= ef {
                break;
            }
            expansions += 1;
            stats.visited += 1;
            let mut improved = false;
            if layer < self.nodes[c.id].neighbors.len() {
                for &nb in &self.nodes[c.id].neighbors[layer] {
                    if visited[nb] {
                        continue;
                    }
                    visited[nb] = true;
                    let d = squared_euclidean(q, data.vector(nb));
                    stats.distance_evals += 1;
                    let worst = results.peek().map_or(f32::INFINITY, |e| e.0.dist);
                    if results.len() < ef || d < worst {
                        candidates.push(MinEntry(Neighbor::new(nb, d)));
                        results.push(MaxEntry(Neighbor::new(nb, d)));
                        if results.len() > ef {
                            results.pop();
                        }
                        improved = true;
                    }
                }
            }
            since_improvement = if improved { 0 } else { since_improvement + 1 };
            let state = TerminationState {
                expansions,
                since_improvement,
            };
            if stop(&state) {
                stats.early_stop = true;
                break;
            }
        }
        let mut out: Vec<Neighbor> = results.into_iter().map(|e| e.0).collect();
        out.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
        out
    }

    /// Full search with statistics, using `ef` as beam width at layer 0.
    pub fn search_with_stats(
        &self,
        data: &VectorSet,
        query: &[f32],
        k: usize,
        ef: usize,
    ) -> (Vec<Neighbor>, SearchStats) {
        if self.nodes.is_empty() {
            return (Vec::new(), SearchStats::default());
        }
        let mut stats = SearchStats::default();
        let mut ep = self.entry;
        for l in (1..=self.max_level).rev() {
            ep = self.greedy_closest(data, query, ep, l);
        }
        let ef = ef.max(k);
        let mut hits =
            self.search_layer_with_policy(data, query, ep, ef, 0, &mut stats, |_| false);
        hits.truncate(k);
        (hits, stats)
    }

    /// Entry point id after descending the upper layers (used by the learned
    /// termination search which drives layer 0 itself).
    pub(crate) fn layer0_entry(&self, data: &VectorSet, query: &[f32]) -> usize {
        let mut ep = self.entry;
        for l in (1..=self.max_level).rev() {
            ep = self.greedy_closest(data, query, ep, l);
        }
        ep
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no vectors are indexed.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The configured parameters.
    pub fn params(&self) -> HnswParams {
        self.params
    }

    /// Approximate heap footprint in bytes (adjacency lists).
    pub fn heap_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.neighbors.iter().map(|l| l.len() * 8 + 24).sum::<usize>() + 24)
            .sum()
    }
}

fn level_for(rng: &mut StdRng, ml: f64) -> usize {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    ((-u.ln()) * ml).floor() as usize
}

impl VectorIndex for HnswIndex {
    fn search(&self, data: &VectorSet, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_with_stats(data, query, k, self.params.ef_search).0
    }

    fn name(&self) -> &'static str {
        "hnsw"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate_index, ground_truth, recall_at_k};

    #[test]
    fn single_point_index() {
        let data = VectorSet::from_rows(vec![vec![1.0, 2.0]]).unwrap();
        let idx = HnswIndex::build(&data, HnswParams::default());
        let hits = idx.search(&data, &[0.0, 0.0], 3);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    fn exactish_on_small_data() {
        let data = VectorSet::uniform(200, 8, 4).unwrap();
        let idx = HnswIndex::build(&data, HnswParams { ef_search: 200, ..Default::default() });
        let queries = data.queries_near(10, 0.02, 8);
        let r = evaluate_index(&idx, &data, &queries, 5);
        assert!(r > 0.99, "recall {r}");
    }

    #[test]
    fn recall_grows_with_ef() {
        let data = VectorSet::uniform(3000, 24, 6).unwrap();
        let idx = HnswIndex::build(&data, HnswParams { m: 8, ef_construction: 60, ef_search: 0, seed: 1 });
        let queries = data.queries_near(30, 0.05, 10);
        let truth = ground_truth(&data, &queries, 10);
        let mut prev = 0.0;
        for ef in [10usize, 40, 160] {
            let results: Vec<Vec<Neighbor>> =
                queries.iter().map(|q| idx.search_with_stats(&data, q, 10, ef).0).collect();
            let r = recall_at_k(&truth, &results, 10);
            assert!(r >= prev - 0.02, "recall dropped: {prev} -> {r} at ef={ef}");
            prev = r;
        }
        assert!(prev > 0.9, "high-ef recall {prev}");
    }

    #[test]
    fn stats_scale_with_ef() {
        let data = VectorSet::uniform(2000, 16, 2).unwrap();
        let idx = HnswIndex::build(&data, HnswParams::default());
        let q = data.vector(7).to_vec();
        let (_, s_small) = idx.search_with_stats(&data, &q, 5, 10);
        let (_, s_big) = idx.search_with_stats(&data, &q, 5, 200);
        assert!(s_small.distance_evals < s_big.distance_evals);
        assert!(s_big.distance_evals < 2000, "graph search must not scan everything");
    }

    #[test]
    fn termination_policy_stops_search() {
        let data = VectorSet::uniform(1000, 8, 3).unwrap();
        let idx = HnswIndex::build(&data, HnswParams::default());
        let q = data.vector(0).to_vec();
        let ep = idx.layer0_entry(&data, &q);
        let mut stats = SearchStats::default();
        let hits =
            idx.search_layer_with_policy(&data, &q, ep, 100, 0, &mut stats, |s| s.expansions >= 3);
        assert!(stats.early_stop);
        assert!(!hits.is_empty());
        assert!(stats.visited <= 4);
    }

    #[test]
    fn search_finds_itself() {
        let data = VectorSet::uniform(500, 12, 9).unwrap();
        let idx = HnswIndex::build(&data, HnswParams::default());
        let mut found = 0;
        for i in (0..500).step_by(50) {
            let hits = idx.search(&data, data.vector(i), 1);
            if hits.first().map(|n| n.id) == Some(i) {
                found += 1;
            }
        }
        assert!(found >= 9, "self-search found {found}/10");
    }
}

//! Progressive kNN search with quality guarantees (ProS-style \[13\]).
//!
//! This is the paper's P1 centerpiece: an index that is *faster than exact
//! scan* while still saying something precise about answer quality. (The
//! paper's "return an empty set" under a relevance threshold is
//! `cda-core`'s `DatasetCatalog::discover_with_threshold`.)
//!
//! Layout: a k-means partition of the dataset with, per cluster, its radius
//! and the sorted distances of members to their centroid. Query processing
//! scans clusters in ascending centroid distance and maintains the running
//! top-k. Two stopping regimes:
//!
//! * **Deterministic** — by the triangle inequality, no point of an unscanned
//!   cluster `c` can be closer than `max(0, d(q, centroid_c) − radius_c)`.
//!   Once that lower bound over every remaining cluster exceeds the current
//!   k-th distance, the current answer is provably exact. Clusters whose
//!   bound already exceeds the k-th distance are skipped individually, and a
//!   finer per-point necessary condition (`d(x, centroid) ≥ d(q, centroid) −
//!   d_k`) prunes within scanned clusters.
//! * **Probabilistic(δ)** — calibrated on training queries drawn from the
//!   same workload: stop after the smallest cluster-prefix `j` such that, on
//!   the training set, the top-k after `j` clusters equaled the final top-k
//!   with frequency ≥ 1 − δ. The guarantee is distributional over the query
//!   workload (an honest frequentist statement, matching how ProS's
//!   probabilistic bounds are used in practice).

use crate::exact::TopK;
use crate::ivf::KMeans;
use crate::metrics::squared_euclidean;
use crate::{Neighbor, SearchStats, VectorIndex, VectorSet};

/// Stopping regime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GuaranteeMode {
    /// Triangle-inequality bound; the returned answer is exactly the true
    /// top-k.
    Deterministic,
    /// Stop early once the calibrated probability that the answer is already
    /// final reaches `1 - delta`.
    Probabilistic {
        /// Allowed probability that the returned set differs from the exact
        /// top-k (workload-distributional).
        delta: f64,
    },
    /// Deterministic (1+ε)-approximation: the returned k-th distance is
    /// provably at most `(1 + epsilon)` times the true k-th distance. Stops
    /// as soon as no unseen point could improve the answer by more than the
    /// allowed factor.
    Approximate {
        /// Allowed relative error on the k-th distance (ε ≥ 0; ε = 0 is the
        /// deterministic exact mode).
        epsilon: f64,
    },
}

/// Progressive index with quality guarantees.
#[derive(Debug, Clone)]
pub struct ProgressiveIndex {
    kmeans: KMeans,
    lists: Vec<Vec<usize>>,
    /// Per cluster: sorted member distances to the centroid (L2, not squared).
    member_dists: Vec<Vec<f32>>,
    /// Per cluster: radius (max member distance).
    radii: Vec<f32>,
    /// `stable_freq[j]` = empirical P(top-k after scanning j+1 clusters ==
    /// final top-k) over the calibration queries.
    stable_freq: Vec<f64>,
    /// Mode used by the `VectorIndex` impl.
    pub mode: GuaranteeMode,
}

impl ProgressiveIndex {
    /// Build with `nlist` partitions and calibrate the probabilistic stopping
    /// rule with `calib_queries` workload-like queries for top-`calib_k`.
    pub fn build(data: &VectorSet, nlist: usize, calib_queries: usize, calib_k: usize, seed: u64) -> Self {
        let kmeans = KMeans::fit(data, nlist, 10, seed);
        let k = kmeans.k();
        let mut lists = vec![Vec::new(); k];
        for (i, &c) in kmeans.assignments.iter().enumerate() {
            lists[c].push(i);
        }
        let mut member_dists = Vec::with_capacity(k);
        let mut radii = Vec::with_capacity(k);
        // Sort each list's ids and centroid distances *together*, ascending
        // by distance, so member_dists[c][pos] always describes lists[c][pos]
        // (and the per-point pruning can stop scanning once past the cutoff).
        for (c, list) in lists.iter_mut().enumerate() {
            let centroid = kmeans.centroid(c);
            let mut pairs: Vec<(usize, f32)> = list
                .iter()
                .map(|&i| (i, squared_euclidean(data.vector(i), centroid).sqrt()))
                .collect();
            pairs.sort_by(|a, b| a.1.total_cmp(&b.1));
            *list = pairs.iter().map(|&(i, _)| i).collect();
            let dists: Vec<f32> = pairs.iter().map(|&(_, d)| d).collect();
            radii.push(dists.last().copied().unwrap_or(0.0));
            member_dists.push(dists);
        }
        let mut index = Self {
            kmeans,
            lists,
            member_dists,
            radii,
            stable_freq: Vec::new(),
            mode: GuaranteeMode::Deterministic,
        };
        index.calibrate(data, calib_queries, calib_k, seed ^ 0x5eed);
        index
    }
    fn calibrate(&mut self, data: &VectorSet, queries: usize, k: usize, seed: u64) {
        let nlist = self.lists.len();
        let mut stable_counts = vec![0usize; nlist];
        if queries == 0 {
            self.stable_freq = vec![1.0; nlist];
            return;
        }
        let qs = data.queries_near(queries, 0.05, seed);
        for q in &qs {
            let order = self.cluster_order(&q[..]);
            // Scan everything, recording after which prefix the top-k froze.
            let mut topk_after: Vec<Vec<usize>> = Vec::with_capacity(nlist);
            let mut collected: Vec<Neighbor> = Vec::new();
            for &(c, _) in &order {
                for &id in &self.lists[c] {
                    collected.push(Neighbor::new(id, squared_euclidean(&q[..], data.vector(id))));
                }
                // snapshot current top-k ids
                let mut snapshot: Vec<Neighbor> = collected.clone();
                snapshot.sort_by(|a, b| a.dist.total_cmp(&b.dist));
                snapshot.truncate(k);
                topk_after.push(snapshot.iter().map(|n| n.id).collect());
            }
            let final_ids = topk_after.last().cloned().unwrap_or_default();
            for (j, ids) in topk_after.iter().enumerate() {
                if *ids == final_ids {
                    stable_counts[j] += 1;
                }
            }
        }
        self.stable_freq =
            stable_counts.iter().map(|&c| c as f64 / qs.len() as f64).collect();
        // enforce monotonicity (scanning more can only stabilize further)
        for j in 1..self.stable_freq.len() {
            if self.stable_freq[j] < self.stable_freq[j - 1] {
                self.stable_freq[j] = self.stable_freq[j - 1];
            }
        }
    }

    fn cluster_order(&self, query: &[f32]) -> Vec<(usize, f32)> {
        let mut order: Vec<(usize, f32)> = (0..self.lists.len())
            .map(|c| (c, squared_euclidean(query, self.kmeans.centroid(c)).sqrt()))
            .collect();
        order.sort_by(|a, b| a.1.total_cmp(&b.1));
        order
    }

    /// Search with statistics under the given mode.
    pub fn search_mode(
        &self,
        data: &VectorSet,
        query: &[f32],
        k: usize,
        mode: GuaranteeMode,
    ) -> (Vec<Neighbor>, SearchStats) {
        let order = self.cluster_order(query);
        let mut top = TopK::new(k);
        let mut stats = SearchStats::default();
        for (rank, &(c, d_qc)) in order.iter().enumerate() {
            let kth_l2 = top.kth_dist().sqrt(); // top stores squared distances
            // Deterministic skip: no member of c can beat the current k-th.
            if d_qc - self.radii[c] > kth_l2 {
                continue;
            }
            stats.visited += 1;
            // Per-point necessary condition: d(x,centroid) ≥ d(q,centroid) − d_k.
            // Members are sorted by centroid distance, so the prunable points
            // form a prefix found by binary search.
            let cutoff = d_qc - kth_l2;
            let start = self.member_dists[c].partition_point(|&d| d < cutoff);
            for &id in &self.lists[c][start..] {
                stats.distance_evals += 1;
                top.push(Neighbor::new(id, squared_euclidean(query, data.vector(id))));
            }
            // Stopping tests over the remaining clusters.
            let kth_l2 = top.kth_dist().sqrt();
            let remaining_lb = order[rank + 1..]
                .iter()
                .map(|&(rc, rd)| rd - self.radii[rc])
                .fold(f32::INFINITY, f32::min);
            if remaining_lb > kth_l2 {
                stats.early_stop = true;
                break;
            }
            match mode {
                GuaranteeMode::Probabilistic { delta } => {
                    let stable = self.stable_freq.get(rank).copied().unwrap_or(0.0);
                    if top.len() >= k && stable >= 1.0 - delta {
                        stats.early_stop = true;
                        break;
                    }
                }
                GuaranteeMode::Approximate { epsilon } => {
                    // every unseen point has distance ≥ remaining_lb, so the
                    // true k-th distance is ≥ min(kth, remaining_lb); when
                    // remaining_lb · (1+ε) ≥ kth, our kth ≤ (1+ε) · true kth.
                    if top.len() >= k
                        && remaining_lb > 0.0
                        && f64::from(remaining_lb) * (1.0 + epsilon.max(0.0))
                            >= f64::from(kth_l2)
                    {
                        stats.early_stop = true;
                        break;
                    }
                }
                GuaranteeMode::Deterministic => {}
            }
        }
        (top.into_sorted(), stats)
    }
    /// Approximate heap footprint in bytes (centroids + lists + distances).
    pub fn heap_bytes(&self) -> usize {
        self.kmeans.centroids.len() * 4
            + self.lists.iter().map(|l| l.len() * 8 + 24).sum::<usize>()
            + self.member_dists.iter().map(|d| d.len() * 4 + 24).sum::<usize>()
            + self.stable_freq.len() * 8
    }
}

impl VectorIndex for ProgressiveIndex {
    fn search(&self, data: &VectorSet, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_mode(data, query, k, self.mode).0
    }

    fn name(&self) -> &'static str {
        match self.mode {
            GuaranteeMode::Deterministic => "progressive-exact",
            GuaranteeMode::Probabilistic { .. } => "progressive-delta",
            GuaranteeMode::Approximate { .. } => "progressive-eps",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactIndex;

    /// Mean recall@k of `results` against the exact top-k of each query.
    fn recall_at_k(
        data: &VectorSet,
        queries: &[Vec<f32>],
        results: &[Vec<Neighbor>],
        k: usize,
    ) -> f64 {
        let exact = ExactIndex::build(data);
        let total: f64 = queries
            .iter()
            .zip(results)
            .map(|(q, got)| {
                let truth: std::collections::HashSet<usize> =
                    exact.search(data, q, k).iter().map(|n| n.id).collect();
                let hits = got.iter().take(k).filter(|n| truth.contains(&n.id)).count();
                hits as f64 / truth.len() as f64
            })
            .sum();
        total / queries.len() as f64
    }

    fn clustered() -> VectorSet {
        VectorSet::gaussian_clusters(2000, 16, 20, 0.05, 42).unwrap().0
    }

    #[test]
    fn deterministic_mode_is_exact() {
        let data = clustered();
        let idx = ProgressiveIndex::build(&data, 20, 0, 10, 1);
        let exact = ExactIndex::build(&data);
        for q in data.queries_near(20, 0.05, 7) {
            let (got, _) = idx.search_mode(&data, &q, 10, GuaranteeMode::Deterministic);
            let want = exact.search(&data, &q, 10);
            assert_eq!(
                got.iter().map(|n| n.id).collect::<Vec<_>>(),
                want.iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn deterministic_mode_prunes_on_clustered_data() {
        let data = clustered();
        let idx = ProgressiveIndex::build(&data, 20, 0, 10, 1);
        let mut total_evals = 0usize;
        let queries = data.queries_near(20, 0.02, 3);
        for q in &queries {
            let (_, stats) = idx.search_mode(&data, q, 10, GuaranteeMode::Deterministic);
            total_evals += stats.distance_evals;
        }
        let avg = total_evals / queries.len();
        assert!(avg < data.len() / 2, "avg distance evals {avg} of {}", data.len());
    }

    #[test]
    fn probabilistic_mode_hits_recall_target() {
        let data = clustered();
        let idx = ProgressiveIndex::build(&data, 20, 50, 10, 1);
        let queries = data.queries_near(50, 0.05, 99);
        let delta = 0.2;
        let results: Vec<Vec<Neighbor>> = queries
            .iter()
            .map(|q| idx.search_mode(&data, q, 10, GuaranteeMode::Probabilistic { delta }).0)
            .collect();
        let r = recall_at_k(&data, &queries, &results, 10);
        // exact-set mismatch prob ≤ δ ⇒ recall ≥ 1 − δ in expectation; allow
        // sampling slack
        assert!(r >= 1.0 - delta - 0.1, "recall {r}");
    }

    #[test]
    fn probabilistic_mode_is_cheaper_than_deterministic() {
        let data = clustered();
        let idx = ProgressiveIndex::build(&data, 20, 50, 10, 1);
        let queries = data.queries_near(20, 0.05, 5);
        let (mut det, mut prob) = (0usize, 0usize);
        for q in &queries {
            det += idx.search_mode(&data, q, 10, GuaranteeMode::Deterministic).1.distance_evals;
            prob += idx
                .search_mode(&data, q, 10, GuaranteeMode::Probabilistic { delta: 0.1 })
                .1
                .distance_evals;
        }
        assert!(prob <= det, "probabilistic {prob} vs deterministic {det}");
    }

    #[test]
    fn stabilization_curve_is_monotone_and_ends_at_one() {
        let data = clustered();
        let idx = ProgressiveIndex::build(&data, 10, 30, 5, 2);
        let curve = &idx.stable_freq;
        assert_eq!(curve.len(), 10);
        for w in curve.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!((curve.last().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn approximate_mode_respects_epsilon_bound() {
        let data = clustered();
        let idx = ProgressiveIndex::build(&data, 20, 0, 10, 1);
        let exact = ExactIndex::build(&data);
        for q in data.queries_near(30, 0.05, 13) {
            let truth = exact.search(&data, &q, 10);
            let true_kth = f64::from(truth.last().unwrap().dist).sqrt();
            for epsilon in [0.0f64, 0.1, 0.5] {
                let (got, _) =
                    idx.search_mode(&data, &q, 10, GuaranteeMode::Approximate { epsilon });
                let got_kth = f64::from(got.last().unwrap().dist).sqrt();
                assert!(
                    got_kth <= (1.0 + epsilon) * true_kth + 1e-5,
                    "eps={epsilon}: got {got_kth} vs bound {}",
                    (1.0 + epsilon) * true_kth
                );
            }
        }
    }

    #[test]
    fn approximate_mode_saves_work_as_epsilon_grows() {
        let data = clustered();
        let idx = ProgressiveIndex::build(&data, 20, 0, 10, 1);
        let queries = data.queries_near(20, 0.05, 17);
        let evals = |epsilon: f64| -> usize {
            queries
                .iter()
                .map(|q| {
                    idx.search_mode(&data, q, 10, GuaranteeMode::Approximate { epsilon })
                        .1
                        .distance_evals
                })
                .sum()
        };
        let tight = evals(0.0);
        let loose = evals(1.0);
        assert!(loose <= tight, "eps=1.0 used {loose} vs eps=0 {tight}");
    }

    #[test]
    fn index_names_reflect_mode() {
        let data = VectorSet::uniform(50, 4, 0).unwrap();
        let mut idx = ProgressiveIndex::build(&data, 4, 0, 5, 1);
        assert_eq!(idx.name(), "progressive-exact");
        idx.mode = GuaranteeMode::Probabilistic { delta: 0.1 };
        assert_eq!(idx.name(), "progressive-delta");
        idx.mode = GuaranteeMode::Approximate { epsilon: 0.2 };
        assert_eq!(idx.name(), "progressive-eps");
    }
}

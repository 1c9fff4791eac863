//! IVF-Flat: k-means coarse quantizer + inverted lists.
//!
//! The canonical "fast but no guarantee" ANN design the paper contrasts with
//! guaranteed methods: recall depends on how many partitions (`nprobe`) are
//! scanned, and nothing bounds what the unscanned partitions hide. Also
//! reused by [`crate::progressive`] as its partitioning substrate, where the
//! same layout *does* yield guarantees via cluster radii.

use crate::exact::TopK;
use crate::metrics::{squared_euclidean, Distance};
use crate::{Neighbor, SearchStats, VectorIndex, VectorSet};
use cda_testkit::rng::StdRng;

/// k-means clustering result.
#[derive(Debug, Clone)]
pub(crate) struct KMeans {
    /// Flattened centroids (`k * dim`).
    pub centroids: Vec<f32>,
    /// Dimensionality.
    pub dim: usize,
    /// Assignment of each input vector to its centroid.
    pub assignments: Vec<usize>,
}

impl KMeans {
    /// Lloyd's algorithm with k-means++-style seeding (first center random,
    /// the rest chosen with probability proportional to squared distance).
    pub fn fit(data: &VectorSet, k: usize, iterations: usize, seed: u64) -> Self {
        let n = data.len();
        let dim = data.dim();
        let k = k.min(n).max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        // seeding
        let mut centroids: Vec<f32> = Vec::with_capacity(k * dim);
        let first = rng.gen_range(0..n);
        centroids.extend_from_slice(data.vector(first));
        let mut d2: Vec<f32> = (0..n)
            .map(|i| squared_euclidean(data.vector(i), data.vector(first)))
            .collect();
        for _ in 1..k {
            let total: f32 = d2.iter().sum();
            let pick = if total <= 0.0 {
                rng.gen_range(0..n)
            } else {
                let mut r = rng.gen_range(0.0..total);
                let mut chosen = n - 1;
                for (i, &w) in d2.iter().enumerate() {
                    if r < w {
                        chosen = i;
                        break;
                    }
                    r -= w;
                }
                chosen
            };
            let new_c = data.vector(pick).to_vec();
            for (i, d2i) in d2.iter_mut().enumerate() {
                let d = squared_euclidean(data.vector(i), &new_c);
                if d < *d2i {
                    *d2i = d;
                }
            }
            centroids.extend_from_slice(&new_c);
        }
        // Lloyd iterations
        let mut assignments = vec![0usize; n];
        for _ in 0..iterations {
            let mut changed = false;
            for (i, slot) in assignments.iter_mut().enumerate() {
                let v = data.vector(i);
                let mut best = 0usize;
                let mut best_d = f32::INFINITY;
                for c in 0..k {
                    let d = squared_euclidean(v, &centroids[c * dim..(c + 1) * dim]);
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                if *slot != best {
                    *slot = best;
                    changed = true;
                }
            }
            // recompute centroids
            let mut sums = vec![0.0f32; k * dim];
            let mut counts = vec![0usize; k];
            for (i, &c) in assignments.iter().enumerate() {
                counts[c] += 1;
                for (d, &x) in data.vector(i).iter().enumerate() {
                    sums[c * dim + d] += x;
                }
            }
            for c in 0..k {
                if counts[c] > 0 {
                    for d in 0..dim {
                        centroids[c * dim + d] = sums[c * dim + d] / counts[c] as f32;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        Self { centroids, dim, assignments }
    }

    /// Number of centroids.
    pub fn k(&self) -> usize {
        self.centroids.len() / self.dim
    }

    /// Centroid `c` as a slice.
    pub(crate) fn centroid(&self, c: usize) -> &[f32] {
        &self.centroids[c * self.dim..(c + 1) * self.dim]
    }
}

/// IVF-Flat index.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    kmeans: KMeans,
    /// `lists[c]` holds the vector ids assigned to centroid `c`.
    lists: Vec<Vec<usize>>,
    /// Number of lists probed at query time.
    pub nprobe: usize,
    metric: Distance,
}

impl IvfIndex {
    /// Build with `nlist` partitions (k-means, 10 iterations) and a default
    /// `nprobe` of 1.
    pub fn build(data: &VectorSet, nlist: usize, seed: u64) -> Self {
        let kmeans = KMeans::fit(data, nlist, 10, seed);
        let mut lists = vec![Vec::new(); kmeans.k()];
        for (i, &c) in kmeans.assignments.iter().enumerate() {
            lists[c].push(i);
        }
        Self { kmeans, lists, nprobe: 1, metric: Distance::SquaredEuclidean }
    }

    /// Set the number of probed lists (clamped to `nlist`).
    pub fn with_nprobe(mut self, nprobe: usize) -> Self {
        self.nprobe = nprobe.clamp(1, self.lists.len());
        self
    }

    /// The inverted lists.
    pub fn lists(&self) -> &[Vec<usize>] {
        &self.lists
    }

    /// Approximate heap footprint in bytes (centroids + inverted lists).
    pub fn heap_bytes(&self) -> usize {
        self.kmeans.centroids.len() * 4
            + self.kmeans.assignments.len() * 8
            + self.lists.iter().map(|l| l.len() * 8 + 24).sum::<usize>()
    }

    /// Search returning statistics.
    pub fn search_with_stats(
        &self,
        data: &VectorSet,
        query: &[f32],
        k: usize,
    ) -> (Vec<Neighbor>, SearchStats) {
        // Rank centroids by distance to the query.
        let mut order: Vec<(usize, f32)> = (0..self.kmeans.k())
            .map(|c| (c, squared_euclidean(query, self.kmeans.centroid(c))))
            .collect();
        order.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut top = TopK::new(k);
        let mut stats = SearchStats::default();
        for &(c, _) in order.iter().take(self.nprobe) {
            stats.visited += 1;
            for &id in &self.lists[c] {
                stats.distance_evals += 1;
                top.push(Neighbor::new(id, self.metric.compute(query, data.vector(id))));
            }
        }
        (top.into_sorted(), stats)
    }
}

impl VectorIndex for IvfIndex {
    fn search(&self, data: &VectorSet, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_with_stats(data, query, k).0
    }

    fn name(&self) -> &'static str {
        "ivf-flat"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactIndex;
    use crate::eval::recall_at_k;

    #[test]
    fn kmeans_partitions_clustered_data() {
        let (data, labels) = VectorSet::gaussian_clusters(300, 8, 3, 0.02, 11).unwrap();
        let km = KMeans::fit(&data, 3, 20, 1);
        // All points of one true cluster should share a k-means assignment.
        for true_c in 0..3 {
            let assigned: std::collections::HashSet<usize> = labels
                .iter()
                .enumerate()
                .filter(|(_, &l)| l == true_c)
                .map(|(i, _)| km.assignments[i])
                .collect();
            assert_eq!(assigned.len(), 1, "cluster {true_c} split: {assigned:?}");
        }
    }

    #[test]
    fn kmeans_handles_k_greater_than_n() {
        let data = VectorSet::from_rows(vec![vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        let km = KMeans::fit(&data, 10, 5, 0);
        assert_eq!(km.k(), 2);
    }

    #[test]
    fn nearest_centroid_is_consistent() {
        let (data, _) = VectorSet::gaussian_clusters(90, 4, 3, 0.01, 3).unwrap();
        let km = KMeans::fit(&data, 3, 20, 1);
        for i in 0..data.len() {
            let v = data.vector(i);
            let dist = |c: usize| squared_euclidean(v, km.centroid(c));
            let nearest = (0..km.k()).min_by(|&a, &b| dist(a).total_cmp(&dist(b))).unwrap();
            assert_eq!(nearest, km.assignments[i]);
        }
    }

    #[test]
    fn ivf_full_probe_equals_exact() {
        let data = VectorSet::uniform(500, 16, 5).unwrap();
        let ivf = IvfIndex::build(&data, 10, 1).with_nprobe(10);
        let exact = ExactIndex::build(&data);
        for q in data.queries_near(10, 0.05, 9) {
            let a = ivf.search(&data, &q, 5);
            let b = exact.search(&data, &q, 5);
            assert_eq!(
                a.iter().map(|n| n.id).collect::<Vec<_>>(),
                b.iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn recall_grows_with_nprobe() {
        let data = VectorSet::uniform(2000, 16, 5).unwrap();
        let exact = ExactIndex::build(&data);
        let queries = data.queries_near(20, 0.05, 9);
        let truth: Vec<Vec<Neighbor>> =
            queries.iter().map(|q| exact.search(&data, q, 10)).collect();
        let mut last = 0.0;
        let mut improved = false;
        for nprobe in [1usize, 4, 16] {
            let ivf = IvfIndex::build(&data, 16, 1).with_nprobe(nprobe);
            let got: Vec<Vec<Neighbor>> = queries.iter().map(|q| ivf.search(&data, q, 10)).collect();
            let r = recall_at_k(&truth, &got, 10);
            assert!(r >= last - 1e-6, "recall decreased: {last} -> {r}");
            if r > last {
                improved = true;
            }
            last = r;
        }
        assert!(improved);
        assert!(last > 0.99, "full-ish probe should be near exact, got {last}");
    }

    #[test]
    fn probing_fewer_lists_evaluates_fewer_distances() {
        let data = VectorSet::uniform(1000, 8, 2).unwrap();
        let narrow = IvfIndex::build(&data, 20, 1).with_nprobe(1);
        let wide = IvfIndex::build(&data, 20, 1).with_nprobe(20);
        let q = data.vector(0).to_vec();
        let (_, s1) = narrow.search_with_stats(&data, &q, 5);
        let (_, s2) = wide.search_with_stats(&data, &q, 5);
        assert!(s1.distance_evals < s2.distance_evals);
        assert_eq!(s2.distance_evals, 1000);
    }
}

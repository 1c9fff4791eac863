//! IVF-Flat: k-means coarse quantizer + inverted lists.
//!
//! The canonical "fast but no guarantee" ANN design the paper contrasts with
//! guaranteed methods: recall depends on how many partitions (`nprobe`) are
//! scanned, and nothing bounds what the unscanned partitions hide. The
//! product's `cda_vector::progressive` partitions the data with the same
//! k-means, where the layout *does* yield guarantees via cluster radii.

use cda_vector::exact::TopK;
use cda_vector::ivf::KMeans;
use cda_vector::metrics::{squared_euclidean, Distance};
use cda_vector::{Neighbor, SearchStats, VectorIndex, VectorSet};

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
    use crate::eval::recall_at_k;
    use cda_vector::exact::ExactIndex;

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

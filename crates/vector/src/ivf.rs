//! k-means partitioning: the coarse quantizer of an IVF layout.
//!
//! [`crate::progressive`] partitions the data with it and derives its
//! guarantees from the cluster radii. The IVF-Flat index of experiment E1
//! (no guarantee: recall depends on how many partitions are probed) is
//! built on the same clustering in `cda-bench`'s lab.

use crate::metrics::squared_euclidean;
use crate::VectorSet;
use cda_testkit::rng::StdRng;

/// k-means clustering result.
#[derive(Debug, Clone)]
pub struct KMeans {
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
    pub fn centroid(&self, c: usize) -> &[f32] {
        &self.centroids[c * self.dim..(c + 1) * self.dim]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}

//! Vector dataset storage and synthetic workload generators.
//!
//! Vectors live in one contiguous `Vec<f32>` (row-major), so scans stream
//! linearly through memory. Synthetic generators produce the clustered and
//! uniform workloads used by experiments E1/E2 — stand-ins for the paper's
//! billion-scale ANN corpora (see DESIGN.md substitution table).

use crate::error::VectorError;
use crate::Result;
use cda_testkit::rng::StdRng;

/// A dense, row-major set of equal-dimension vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorSet {
    dim: usize,
    data: Vec<f32>,
}

impl VectorSet {
    /// Build from row vectors, checking dimensional consistency.
    pub fn from_rows(rows: Vec<Vec<f32>>) -> Result<Self> {
        let Some(first) = rows.first() else {
            return Err(VectorError::EmptyInput("rows"));
        };
        let dim = first.len();
        if dim == 0 {
            return Err(VectorError::EmptyInput("dimension"));
        }
        let mut data = Vec::with_capacity(rows.len() * dim);
        for row in &rows {
            if row.len() != dim {
                return Err(VectorError::DimensionMismatch { expected: dim, actual: row.len() });
            }
            data.extend_from_slice(row);
        }
        Ok(Self { dim, data })
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// True if the set has no vectors (cannot normally happen post-construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `i`-th vector.
    pub fn vector(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterate all vectors.
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.dim)
    }

    /// Append one vector.
    pub fn push(&mut self, v: &[f32]) -> Result<()> {
        if v.len() != self.dim {
            return Err(VectorError::DimensionMismatch { expected: self.dim, actual: v.len() });
        }
        self.data.extend_from_slice(v);
        Ok(())
    }

    /// Generate `n` vectors uniform in `[-1, 1]^dim` (seeded).
    pub fn uniform(n: usize, dim: usize, seed: u64) -> Result<Self> {
        if n == 0 || dim == 0 {
            return Err(VectorError::EmptyInput("n or dim"));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        Ok(Self { dim, data })
    }

    /// Generate `n` vectors from `clusters` spherical Gaussian clusters with
    /// the given standard deviation (seeded). Cluster centers are uniform in
    /// `[-1, 1]^dim`. Returns the set and each vector's cluster label.
    pub fn gaussian_clusters(
        n: usize,
        dim: usize,
        clusters: usize,
        std_dev: f32,
        seed: u64,
    ) -> Result<(Self, Vec<usize>)> {
        if n == 0 || dim == 0 || clusters == 0 {
            return Err(VectorError::EmptyInput("n, dim, or clusters"));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..clusters)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let mut data = Vec::with_capacity(n * dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % clusters;
            labels.push(c);
            for &cd in &centers[c] {
                data.push(cd + gaussian(&mut rng) * std_dev);
            }
        }
        Ok((Self { dim, data }, labels))
    }

    /// Draw `q` query vectors near dataset points (perturbed copies), the
    /// standard ANN-benchmark query distribution.
    pub fn queries_near(&self, q: usize, noise: f32, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..q)
            .map(|_| {
                let i = rng.gen_range(0..self.len());
                self.vector(i)
                    .iter()
                    .map(|&x| x + gaussian(&mut rng) * noise)
                    .collect()
            })
            .collect()
    }
}

/// Standard normal via Box–Muller (avoids a distributions dependency).
pub fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_and_access() {
        let s = VectorSet::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.dim(), 2);
        assert_eq!(s.vector(1), &[3.0, 4.0]);
        assert_eq!(s.iter().count(), 2);
    }

    #[test]
    fn from_rows_validates() {
        assert!(VectorSet::from_rows(vec![]).is_err());
        assert!(VectorSet::from_rows(vec![vec![]]).is_err());
        assert!(VectorSet::from_rows(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn push_checks_dim() {
        let mut s = VectorSet::from_rows(vec![vec![0.0, 0.0]]).unwrap();
        assert!(s.push(&[1.0]).is_err());
        s.push(&[1.0, 1.0]).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn uniform_is_seeded_and_bounded() {
        let a = VectorSet::uniform(100, 8, 42).unwrap();
        let b = VectorSet::uniform(100, 8, 42).unwrap();
        assert_eq!(a, b);
        assert!(a.iter().flatten().all(|&x| (-1.0..1.0).contains(&x)));
        let c = VectorSet::uniform(100, 8, 43).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn clusters_have_labels_and_locality() {
        let (s, labels) = VectorSet::gaussian_clusters(300, 4, 3, 0.01, 7).unwrap();
        assert_eq!(s.len(), 300);
        assert_eq!(labels.len(), 300);
        // two points in the same cluster should be much closer than points in
        // different clusters (std 0.01 vs centers in [-1,1]^4), on average
        let same = crate::metrics::squared_euclidean(s.vector(0), s.vector(3)); // both cluster 0
        let diff = crate::metrics::squared_euclidean(s.vector(0), s.vector(1)); // clusters 0 vs 1
        assert!(same < diff);
    }

    #[test]
    fn queries_near_have_right_shape() {
        let s = VectorSet::uniform(50, 6, 1).unwrap();
        let qs = s.queries_near(10, 0.05, 2);
        assert_eq!(qs.len(), 10);
        assert!(qs.iter().all(|q| q.len() == 6));
    }

    #[test]
    fn gaussian_is_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(0);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}

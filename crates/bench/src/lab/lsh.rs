//! Random-hyperplane LSH (SimHash family).
//!
//! Probabilistic, collision-based retrieval: `tables` independent hash
//! tables, each hashing with `bits` random hyperplanes. A candidate set is
//! the union of the query's buckets; candidates are re-ranked exactly.
//! Collision probability for two vectors at angle θ is `(1 - θ/π)^bits` per
//! table — a *distributional* guarantee, contrasted in experiment E1 with
//! the per-query deterministic guarantee of `cda_vector::progressive`.

use cda_vector::exact::TopK;
use cda_vector::metrics::{squared_euclidean, dot};
use cda_vector::{Neighbor, SearchStats, VectorIndex, VectorSet};
use cda_testkit::rng::StdRng;
use std::collections::HashMap;

/// LSH parameters.
#[derive(Debug, Clone, Copy)]
pub struct LshParams {
    /// Hyperplanes per table (bucket key width in bits, ≤ 32).
    pub bits: usize,
    /// Number of independent tables.
    pub tables: usize,
    /// RNG seed for hyperplane sampling.
    pub seed: u64,
}

impl Default for LshParams {
    fn default() -> Self {
        Self { bits: 12, tables: 8, seed: 0 }
    }
}

/// The LSH index.
#[derive(Debug, Clone)]
pub struct LshIndex {
    /// `tables × bits` hyperplane normals, flattened per table.
    hyperplanes: Vec<Vec<f32>>,
    buckets: Vec<HashMap<u32, Vec<usize>>>,
    params: LshParams,
    dim: usize,
}

impl LshIndex {
    /// Build the index.
    pub fn build(data: &VectorSet, params: LshParams) -> Self {
        let bits = params.bits.clamp(1, 32);
        let dim = data.dim();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut hyperplanes = Vec::with_capacity(params.tables);
        for _ in 0..params.tables {
            let mut planes = Vec::with_capacity(bits * dim);
            for _ in 0..bits * dim {
                planes.push(cda_vector::dataset::gaussian(&mut rng));
            }
            hyperplanes.push(planes);
        }
        let mut buckets = vec![HashMap::new(); params.tables];
        for i in 0..data.len() {
            let v = data.vector(i);
            for (t, planes) in hyperplanes.iter().enumerate() {
                let key = hash_key(v, planes, bits, dim);
                buckets[t].entry(key).or_insert_with(Vec::new).push(i);
            }
        }
        Self { hyperplanes, buckets, params: LshParams { bits, ..params }, dim }
    }

    /// Search with statistics: gather candidates from all tables, re-rank.
    pub fn search_with_stats(
        &self,
        data: &VectorSet,
        query: &[f32],
        k: usize,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut seen = vec![false; data.len()];
        let mut top = TopK::new(k);
        let mut stats = SearchStats::default();
        for (t, planes) in self.hyperplanes.iter().enumerate() {
            let key = hash_key(query, planes, self.params.bits, self.dim);
            if let Some(ids) = self.buckets[t].get(&key) {
                stats.visited += 1;
                for &id in ids {
                    if seen[id] {
                        continue;
                    }
                    seen[id] = true;
                    stats.distance_evals += 1;
                    top.push(Neighbor::new(id, squared_euclidean(query, data.vector(id))));
                }
            }
        }
        (top.into_sorted(), stats)
    }

    /// Approximate heap footprint in bytes (hyperplanes + buckets).
    pub fn heap_bytes(&self) -> usize {
        self.hyperplanes.iter().map(|p| p.len() * 4).sum::<usize>()
            + self
                .buckets
                .iter()
                .flat_map(|t| t.values())
                .map(|v| v.len() * 8 + 48)
                .sum::<usize>()
    }
}

fn hash_key(v: &[f32], planes: &[f32], bits: usize, dim: usize) -> u32 {
    let mut key = 0u32;
    for b in 0..bits {
        let plane = &planes[b * dim..(b + 1) * dim];
        if dot(v, plane) >= 0.0 {
            key |= 1 << b;
        }
    }
    key
}

impl VectorIndex for LshIndex {
    fn search(&self, data: &VectorSet, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_with_stats(data, query, k).0
    }

    fn name(&self) -> &'static str {
        "lsh"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_index;

    #[test]
    fn identical_vector_is_found() {
        let data = VectorSet::uniform(500, 16, 7).unwrap();
        let idx = LshIndex::build(&data, LshParams::default());
        // the query IS a data point: it hashes to the same buckets in every table
        let hits = idx.search(&data, data.vector(42), 1);
        assert_eq!(hits[0].id, 42);
        assert_eq!(hits[0].dist, 0.0);
    }

    #[test]
    fn more_tables_improve_recall() {
        // recall@1: the angularly-close perturbed source point must collide
        // in at least one of the tables; more tables raise that probability.
        let data = VectorSet::uniform(3000, 16, 1).unwrap();
        let queries = data.queries_near(30, 0.02, 2);
        let few = LshIndex::build(&data, LshParams { bits: 14, tables: 1, seed: 5 });
        let many = LshIndex::build(&data, LshParams { bits: 14, tables: 16, seed: 5 });
        let r_few = evaluate_index(&few, &data, &queries, 1);
        let r_many = evaluate_index(&many, &data, &queries, 1);
        assert!(r_many >= r_few, "{r_many} vs {r_few}");
        assert!(r_many > 0.8, "16-table recall@1 too low: {r_many}");
    }

    #[test]
    fn candidate_set_is_a_fraction_of_data() {
        let data = VectorSet::uniform(5000, 16, 3).unwrap();
        let idx = LshIndex::build(&data, LshParams { bits: 14, tables: 4, seed: 0 });
        let (_, stats) = idx.search_with_stats(&data, data.vector(0), 5);
        assert!(stats.distance_evals < 2500, "evaluated {}", stats.distance_evals);
    }

    #[test]
    fn bits_clamped_to_32() {
        let data = VectorSet::uniform(10, 4, 0).unwrap();
        let idx = LshIndex::build(&data, LshParams { bits: 64, tables: 1, seed: 0 });
        assert_eq!(idx.params.bits, 32);
    }
}

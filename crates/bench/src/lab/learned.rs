//! Learned adaptive early termination for graph search (Li et al. \[34\]).
//!
//! The paper's "learning-augmented algorithms … make smart pruning decisions"
//! claim (experiment E2). A fixed `ef` wastes work on easy queries and
//! under-serves hard ones. Following the SIGMOD 2020 design, we learn a
//! per-query *expansion budget* from a cheap difficulty feature — the
//! distance from the query to its layer-0 entry point — and terminate the
//! beam search once the budget is exhausted:
//!
//! 1. On training queries, run an un-truncated search and record the number
//!    of expansions after which the final top-k had been reached.
//! 2. Fit `needed ≈ a + b · d_entry` by least squares.
//! 3. Inflate the prediction by the residual quantile matching the target
//!    recall, so the budget covers that fraction of training queries.

use crate::hnsw::HnswIndex;
use cda_vector::exact::ExactIndex;
use cda_vector::metrics::squared_euclidean;
use cda_vector::{Neighbor, SearchStats, VectorIndex, VectorSet};

/// A learned termination model wrapping an HNSW index.
#[derive(Debug, Clone)]
pub struct LearnedTermination {
    /// Linear model intercept.
    pub intercept: f64,
    /// Linear model slope on the entry-distance feature.
    pub slope: f64,
    /// Additive margin (residual quantile at the target recall).
    pub margin: f64,
    /// Target recall the model was calibrated for.
    pub target_recall: f64,
    /// Hard floor on the budget.
    pub min_budget: usize,
}

impl LearnedTermination {
    /// Train on `n_train` workload-like queries for top-`k` (queries are
    /// perturbed dataset points; use [`LearnedTermination::train_on_queries`]
    /// to train on a custom query distribution).
    pub fn train(
        index: &HnswIndex,
        data: &VectorSet,
        k: usize,
        n_train: usize,
        target_recall: f64,
        seed: u64,
    ) -> Self {
        let queries = data.queries_near(n_train.max(8), 0.05, seed);
        Self::train_on_queries(index, data, &queries, k, target_recall)
    }

    /// Train on an explicit set of training queries.
    pub fn train_on_queries(
        index: &HnswIndex,
        data: &VectorSet,
        queries: &[Vec<f32>],
        k: usize,
        target_recall: f64,
    ) -> Self {
        let exact = ExactIndex::build(data);
        let big_ef = (k * 16).max(128);
        let mut xs: Vec<f64> = Vec::with_capacity(queries.len());
        let mut ys: Vec<f64> = Vec::with_capacity(queries.len());
        for q in queries {
            let truth: std::collections::HashSet<usize> =
                exact.search(data, q, k).iter().map(|n| n.id).collect();
            let ep = index.layer0_entry(data, q);
            let d_entry = f64::from(squared_euclidean(q, data.vector(ep)).sqrt());
            // Run an un-truncated search once to learn the total expansion
            // count, then binary-search for the smallest budget that still
            // recovers the full true top-k.
            let mut total_expansions = 0usize;
            let _ = index.search_layer_with_policy(
                data,
                q,
                ep,
                big_ef,
                0,
                &mut SearchStats::default(),
                |state| {
                    total_expansions = state.expansions;
                    false
                },
            );
            let mut lo = 1usize;
            let mut hi = total_expansions.max(1);
            while lo < hi {
                let mid = (lo + hi) / 2;
                let hits = index.search_layer_with_policy(
                    data,
                    q,
                    ep,
                    big_ef,
                    0,
                    &mut SearchStats::default(),
                    |s| s.expansions >= mid,
                );
                let ids: std::collections::HashSet<usize> =
                    hits.iter().take(k).map(|n| n.id).collect();
                if truth.is_subset(&ids) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            let needed = lo;
            xs.push(d_entry);
            ys.push(needed as f64);
        }
        // Least-squares fit.
        let n = xs.len() as f64;
        let mean_x = xs.iter().sum::<f64>() / n;
        let mean_y = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mean_x) * (y - mean_y)).sum();
        let var: f64 = xs.iter().map(|x| (x - mean_x) * (x - mean_x)).sum();
        let slope = if var > 1e-12 { cov / var } else { 0.0 };
        let intercept = mean_y - slope * mean_x;
        // Residual quantile at the target recall.
        let mut residuals: Vec<f64> =
            xs.iter().zip(&ys).map(|(x, y)| y - (intercept + slope * x)).collect();
        residuals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let q_idx = ((residuals.len() as f64 - 1.0) * target_recall).round() as usize;
        let margin = residuals[q_idx.min(residuals.len() - 1)].max(0.0);
        Self { intercept, slope, margin, target_recall, min_budget: k.max(4) }
    }

    /// Predicted expansion budget for a query with entry distance `d_entry`.
    pub fn budget(&self, d_entry: f64) -> usize {
        let raw = self.intercept + self.slope * d_entry + self.margin;
        raw.ceil().max(self.min_budget as f64) as usize
    }

    /// Search with the learned budget.
    pub fn search_with_stats(
        &self,
        index: &HnswIndex,
        data: &VectorSet,
        query: &[f32],
        k: usize,
    ) -> (Vec<Neighbor>, SearchStats) {
        let ep = index.layer0_entry(data, query);
        let d_entry = f64::from(squared_euclidean(query, data.vector(ep)).sqrt());
        let budget = self.budget(d_entry);
        let big_ef = (k * 16).max(128);
        let mut stats = SearchStats::default();
        let mut hits = index.search_layer_with_policy(data, query, ep, big_ef, 0, &mut stats, |s| {
            s.expansions >= budget
        });
        hits.truncate(k);
        (hits, stats)
    }
}

/// The second learned policy of the adaptive-termination family: stop after
/// a calibrated streak of non-improving expansions ("patience"). Easy
/// queries stabilize quickly and stop early; hard queries keep improving and
/// automatically receive more budget — no per-query feature needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagnationPolicy {
    /// Stop once this many consecutive expansions fail to improve the
    /// result set.
    pub patience: usize,
}

impl StagnationPolicy {
    /// Calibrate the patience on training queries: for each query, find the
    /// smallest patience that still recovers the true top-`k`, then take the
    /// `target_recall` quantile across queries.
    pub fn train_on_queries(
        index: &HnswIndex,
        data: &VectorSet,
        queries: &[Vec<f32>],
        k: usize,
        target_recall: f64,
    ) -> Self {
        let big_ef = (k * 16).max(128);
        let mut required: Vec<usize> = Vec::with_capacity(queries.len());
        for q in queries {
            // calibrate against the best answer the *graph* can reach at the
            // reference beam width (not exact truth — unreachable points
            // would pin every hard query at the cap)
            let truth: std::collections::HashSet<usize> = index
                .search_with_stats(data, q, k, big_ef)
                .0
                .iter()
                .map(|n| n.id)
                .collect();
            let ep = index.layer0_entry(data, q);
            // binary search over patience
            let mut lo = 1usize;
            let mut hi = 64usize;
            while lo < hi {
                let mid = (lo + hi) / 2;
                let hits = index.search_layer_with_policy(
                    data,
                    q,
                    ep,
                    big_ef,
                    0,
                    &mut SearchStats::default(),
                    |s| s.since_improvement >= mid,
                );
                let ids: std::collections::HashSet<usize> =
                    hits.iter().take(k).map(|n| n.id).collect();
                if truth.is_subset(&ids) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            required.push(lo);
        }
        required.sort_unstable();
        let q_idx = ((required.len() as f64 - 1.0) * target_recall).round() as usize;
        Self { patience: required[q_idx.min(required.len().saturating_sub(1))].max(1) }
    }

    /// Search with the stagnation policy.
    pub fn search_with_stats(
        &self,
        index: &HnswIndex,
        data: &VectorSet,
        query: &[f32],
        k: usize,
    ) -> (Vec<Neighbor>, SearchStats) {
        let ep = index.layer0_entry(data, query);
        let big_ef = (k * 16).max(128);
        let mut stats = SearchStats::default();
        let mut hits = index.search_layer_with_policy(data, query, ep, big_ef, 0, &mut stats, |s| {
            s.since_improvement >= self.patience
        });
        hits.truncate(k);
        (hits, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{ground_truth, recall_at_k};
    use crate::hnsw::HnswParams;

    fn data() -> VectorSet {
        VectorSet::gaussian_clusters(2000, 16, 10, 0.1, 3).unwrap().0
    }

    /// The graph and a termination model trained on it for top-10 at 0.9 recall.
    fn build(data: &VectorSet) -> (HnswIndex, LearnedTermination) {
        let params = HnswParams { seed: 2, ..Default::default() };
        let index = HnswIndex::build(data, params);
        let model = LearnedTermination::train(&index, data, 10, 60, 0.9, params.seed ^ 0xabcd);
        (index, model)
    }

    #[test]
    fn model_hits_target_recall_on_holdout() {
        let data = data();
        let (index, model) = build(&data);
        let queries = data.queries_near(40, 0.05, 777);
        let truth = ground_truth(&data, &queries, 10);
        let results: Vec<Vec<Neighbor>> =
            queries.iter().map(|q| model.search_with_stats(&index, &data, q, 10).0).collect();
        let r = recall_at_k(&truth, &results, 10);
        assert!(r > 0.75, "holdout recall {r}");
    }

    #[test]
    fn learned_termination_saves_work_vs_fixed_large_ef() {
        let data = data();
        let (index, model) = build(&data);
        let queries = data.queries_near(20, 0.05, 11);
        let (mut fixed_cost, mut learned_cost) = (0usize, 0usize);
        for q in &queries {
            let (_, s_fixed) = index.search_with_stats(&data, q, 10, 160);
            fixed_cost += s_fixed.distance_evals;
            let (_, s_learned) = model.search_with_stats(&index, &data, q, 10);
            learned_cost += s_learned.distance_evals;
        }
        assert!(
            learned_cost < fixed_cost,
            "learned {learned_cost} should beat fixed-ef {fixed_cost}"
        );
    }

    #[test]
    fn budget_respects_floor_and_margin() {
        let m = LearnedTermination {
            intercept: 2.0,
            slope: 1.0,
            margin: 3.0,
            target_recall: 0.9,
            min_budget: 10,
        };
        assert_eq!(m.budget(0.0), 10); // floor
        assert_eq!(m.budget(100.0), 105);
    }

    #[test]
    fn stagnation_policy_recovers_target_recall() {
        let data = data();
        let idx = HnswIndex::build(&data, HnswParams { seed: 4, ..Default::default() });
        let train = data.queries_near(50, 0.05, 31);
        let policy = StagnationPolicy::train_on_queries(&idx, &data, &train, 10, 0.9);
        assert!(policy.patience >= 1);
        let holdout = data.queries_near(30, 0.05, 32);
        let truth = ground_truth(&data, &holdout, 10);
        let results: Vec<Vec<Neighbor>> = holdout
            .iter()
            .map(|q| policy.search_with_stats(&idx, &data, q, 10).0)
            .collect();
        let r = recall_at_k(&truth, &results, 10);
        assert!(r > 0.75, "stagnation holdout recall {r}");
    }

    #[test]
    fn higher_target_never_lowers_patience() {
        let data = data();
        let idx = HnswIndex::build(&data, HnswParams { seed: 4, ..Default::default() });
        let train = data.queries_near(40, 0.05, 33);
        let p80 = StagnationPolicy::train_on_queries(&idx, &data, &train, 10, 0.8);
        let p99 = StagnationPolicy::train_on_queries(&idx, &data, &train, 10, 0.99);
        assert!(p99.patience >= p80.patience);
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let data = data();
        let idx = HnswIndex::build(&data, HnswParams { seed: 5, ..Default::default() });
        let a = LearnedTermination::train(&idx, &data, 5, 30, 0.9, 9);
        let b = LearnedTermination::train(&idx, &data, 5, 30, 0.9, 9);
        assert_eq!(a.intercept, b.intercept);
        assert_eq!(a.slope, b.slope);
        assert_eq!(a.margin, b.margin);
    }
}

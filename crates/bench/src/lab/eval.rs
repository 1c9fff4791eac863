//! Evaluation helpers: ground truth, recall, and ranking metrics.
//!
//! Implements the metrics the paper's Evaluation paragraph names for
//! retrieval/ranking quality: recall@k (E1, E2), MRR (E3, E8) and NDCG (E8).
//! The calibration and abstention metrics are in [`crate::calibration`] and
//! [`crate::selective`], forecast error in [`crate::forecast`].

use cda_vector::exact::ExactIndex;
use cda_vector::{Neighbor, VectorIndex, VectorSet};

/// Exact ground-truth top-k for a batch of queries.
pub fn ground_truth(data: &VectorSet, queries: &[Vec<f32>], k: usize) -> Vec<Vec<Neighbor>> {
    let exact = ExactIndex::build(data);
    queries.iter().map(|q| exact.search(data, q, k)).collect()
}

/// Mean recall@k of `results` against `truth` (per query: fraction of the
/// true top-k ids that appear in the returned top-k).
pub fn recall_at_k(truth: &[Vec<Neighbor>], results: &[Vec<Neighbor>], k: usize) -> f64 {
    assert_eq!(truth.len(), results.len());
    if truth.is_empty() {
        return 1.0;
    }
    let mut total = 0.0;
    for (t, r) in truth.iter().zip(results) {
        let t_ids: std::collections::HashSet<usize> = t.iter().take(k).map(|n| n.id).collect();
        if t_ids.is_empty() {
            total += 1.0;
            continue;
        }
        let hit = r.iter().take(k).filter(|n| t_ids.contains(&n.id)).count();
        total += hit as f64 / t_ids.len() as f64;
    }
    total / truth.len() as f64
}

/// Mean reciprocal rank of the first relevant item: `relevant[i]` is the
/// item wanted in `rankings[i]`; a ranking without it scores 0.
pub fn mrr<T, U: PartialEq<T>>(relevant: &[T], rankings: &[Vec<U>]) -> f64 {
    assert_eq!(relevant.len(), rankings.len());
    if relevant.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for (rel, ranking) in relevant.iter().zip(rankings) {
        if let Some(pos) = ranking.iter().position(|r| *r == *rel) {
            total += 1.0 / (pos + 1) as f64;
        }
    }
    total / relevant.len() as f64
}

/// Normalized discounted cumulative gain at `k`, for graded relevance.
/// `gains[i]` is the relevance grade of the item ranked at position `i`.
pub fn ndcg_at_k(gains: &[f64], k: usize) -> f64 {
    let dcg: f64 = gains
        .iter()
        .take(k)
        .enumerate()
        .map(|(i, g)| (2f64.powf(*g) - 1.0) / ((i + 2) as f64).log2())
        .sum();
    let mut ideal = gains.to_vec();
    ideal.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let idcg: f64 = ideal
        .iter()
        .take(k)
        .enumerate()
        .map(|(i, g)| (2f64.powf(*g) - 1.0) / ((i + 2) as f64).log2())
        .sum();
    if idcg == 0.0 {
        0.0
    } else {
        dcg / idcg
    }
}

/// Test helper: run an index over queries and compute mean recall@k against
/// exact ground truth.
#[cfg(test)]
pub(crate) fn evaluate_index(
    index: &dyn VectorIndex,
    data: &VectorSet,
    queries: &[Vec<f32>],
    k: usize,
) -> f64 {
    let truth = ground_truth(data, queries, k);
    let results: Vec<Vec<Neighbor>> = queries.iter().map(|q| index.search(data, q, k)).collect();
    recall_at_k(&truth, &results, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(ids: &[usize]) -> Vec<Neighbor> {
        ids.iter().map(|&i| Neighbor::new(i, i as f32)).collect()
    }

    #[test]
    fn recall_perfect_and_partial() {
        let truth = vec![n(&[1, 2, 3])];
        assert_eq!(recall_at_k(&truth, &[n(&[3, 2, 1])], 3), 1.0);
        assert!((recall_at_k(&truth, &[n(&[1, 9, 8])], 3) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(recall_at_k(&truth, &[n(&[])], 3), 0.0);
    }

    #[test]
    fn recall_empty_truth_counts_full() {
        let truth = vec![n(&[])];
        assert_eq!(recall_at_k(&truth, &[n(&[])], 3), 1.0);
    }

    #[test]
    fn mrr_positions() {
        assert_eq!(mrr(&[5], &[vec![5, 1, 2]]), 1.0);
        assert_eq!(mrr(&[5], &[vec![1, 5, 2]]), 0.5);
        assert_eq!(mrr(&[5], &[vec![1, 2, 3]]), 0.0);
        let m = mrr(&[5, 7], &[vec![5], vec![1, 7]]);
        assert!((m - 0.75).abs() < 1e-12);
        assert_eq!(mrr::<usize, usize>(&[], &[]), 0.0);
    }

    #[test]
    fn ndcg_ideal_is_one() {
        assert!((ndcg_at_k(&[3.0, 2.0, 1.0], 3) - 1.0).abs() < 1e-12);
        let worse = ndcg_at_k(&[1.0, 2.0, 3.0], 3);
        assert!(worse < 1.0 && worse > 0.0);
        assert_eq!(ndcg_at_k(&[0.0, 0.0], 2), 0.0);
    }

    #[test]
    fn evaluate_exact_index_is_perfect() {
        let data = VectorSet::uniform(200, 8, 3).unwrap();
        let queries = data.queries_near(5, 0.01, 4);
        let idx = ExactIndex::build(&data);
        assert_eq!(evaluate_index(&idx, &data, &queries, 5), 1.0);
    }
}

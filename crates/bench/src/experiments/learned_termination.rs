//! **E2** — P1: learning-augmented pruning (learned adaptive early
//! termination vs fixed `ef`, per Li et al. \[34\]).
//!
//! The workload mixes *easy* queries (perturbed dataset points) with *hard*
//! ones (uniform random points far from the data), which is where a fixed
//! `ef` wastes work: it must be sized for the hard tail. The learned policy
//! predicts a per-query expansion budget from the query's entry-point
//! distance. Expected shape: at matched recall, the learned policy spends
//! fewer distance evaluations on the easy majority and more on the hard
//! tail, beating every fixed setting on the cost/recall frontier.

use crate::eval::{ground_truth, recall_at_k};
use crate::hnsw::{HnswIndex, HnswParams};
use crate::learned::{LearnedTermination, StagnationPolicy};
use crate::{mean, row, Budget, Experiment, Table};
use cda_vector::{Neighbor, SearchStats, VectorSet};

const K: usize = 10;

/// One policy's k-NN search with its work counters.
type Search<'a> = dyn Fn(&[f32]) -> (Vec<Neighbor>, SearchStats) + 'a;

/// 70% easy queries (tightly perturbed data points — the answer is right at
/// the entry region) and 30% hard ones (strongly perturbed — solvable, but
/// the graph must search much further).
fn mixed_queries(data: &VectorSet, n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut out = data.queries_near(n * 7 / 10, 0.02, seed ^ 1);
    out.extend(data.queries_near(n - out.len(), 0.35, seed ^ 2));
    out
}

/// Run E2.
pub fn run(_: &Budget) -> Experiment {
    let mut e = Experiment::new(
        "E2",
        "learned adaptive early termination vs fixed ef (HNSW, mixed difficulty)",
    );
    let (data, _) = VectorSet::gaussian_clusters(30_000, 32, 50, 0.15, 21).unwrap();
    let queries = mixed_queries(&data, 60, 22);
    let truth = ground_truth(&data, &queries, K);
    let params = HnswParams { m: 12, ef_construction: 80, ef_search: 0, seed: 2 };
    let hnsw = HnswIndex::build(&data, params);

    let mut t = Table::new(
        "30k x d32, 60 held-out queries (70% easy, 30% hard)",
        &["policy", "recall@10", "avg dist evals", "p95 evals"],
    );
    let mut report = |label: String, search: &Search| {
        let mut evals = Vec::new();
        let results: Vec<Vec<Neighbor>> = queries
            .iter()
            .map(|q| {
                let (hits, stats) = search(q);
                evals.push(stats.distance_evals as f64);
                hits
            })
            .collect();
        let mut sorted = evals.clone();
        sorted.sort_by(f64::total_cmp);
        let p95 = sorted[(sorted.len() as f64 * 0.95) as usize - 1];
        row!(t; label, recall_at_k(&truth, &results, K), format!("{:.0}", mean(&evals)),
            format!("{p95:.0}"));
    };

    for ef in [20usize, 40, 80, 160, 320] {
        report(format!("fixed ef={ef}"), &|q| hnsw.search_with_stats(&data, q, K, ef));
    }

    // train on a *separate* mixed sample so the evaluation is held-out
    let train_queries = mixed_queries(&data, 80, 77);
    for target in [0.8f64, 0.9, 0.95] {
        let model =
            LearnedTermination::train_on_queries(&hnsw, &data, &train_queries, K, target);
        report(format!("budget t={target}"), &|q| model.search_with_stats(&hnsw, &data, q, K));
    }
    for target in [0.8f64, 0.9, 0.95] {
        let policy =
            StagnationPolicy::train_on_queries(&hnsw, &data, &train_queries, K, target);
        report(format!("patience t={target} (T={})", policy.patience), &|q| {
            policy.search_with_stats(&hnsw, &data, q, K)
        });
    }
    e.tables.push(t);
    e
}

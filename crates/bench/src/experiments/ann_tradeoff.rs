//! **E1** — P1 efficiency: latency/recall trade-off of the index families.
//!
//! Reproduces the paper's claim that existing retrieval methods are "either
//! fast and do not provide guarantees, or provide quality guarantees and are
//! relatively slow", and that a progressive index with guarantees can beat
//! exact scan. Expected shape: exact = recall 1.0, slowest full-scan cost;
//! IVF/HNSW/LSH = fast, recall < 1 without guarantees; progressive-exact =
//! recall 1.0 with (often far) fewer distance evaluations; progressive-δ =
//! recall ≥ 1−δ, cheaper still.

use crate::eval::{ground_truth, recall_at_k};
use crate::hnsw::{HnswIndex, HnswParams};
use crate::ivf::IvfIndex;
use crate::lsh::{LshIndex, LshParams};
use crate::{clock, mean, row, Budget, Experiment, Table};
use cda_vector::exact::ExactIndex;
use cda_vector::progressive::{GuaranteeMode, ProgressiveIndex};
use cda_vector::{Neighbor, SearchStats, VectorSet};

const K: usize = 10;
const QUERIES: usize = 50;

/// One index's k-NN search with its work counters.
type Search<'a> = dyn Fn(&[f32]) -> (Vec<Neighbor>, SearchStats) + 'a;

/// Run E1.
pub fn run(_: &Budget) -> Experiment {
    let mut e =
        Experiment::new("E1", "ANN latency/recall trade-off (who has guarantees, who is fast)");
    for (n, dim, clusters) in [(20_000usize, 32usize, 40usize), (50_000, 64, 60)] {
        let mut search = Table::new(
            format!("n={n} d={dim} ({clusters} gaussian clusters), k={K}, {QUERIES} queries"),
            &["method", "recall@10", "avg dist evals", "avg query time", "guarantee"],
        );
        // build cost and memory footprint (the Evaluation paragraph's
        // "memory consumption" metric)
        let mut build = Table::new(
            format!("n={n} d={dim}: build time and index memory"),
            &["method", "build time", "index bytes"],
        );
        let (data, _) = VectorSet::gaussian_clusters(n, dim, clusters, 0.15, 7).unwrap();
        let queries = data.queries_near(QUERIES, 0.05, 11);
        let truth = ground_truth(&data, &queries, K);
        let mut measure = |name: &str, guarantee: &str, search_one: &Search| {
            let mut results = Vec::with_capacity(queries.len());
            let mut evals = Vec::with_capacity(queries.len());
            let (_, elapsed) = clock(1, || {
                for q in &queries {
                    let (hits, stats) = search_one(q);
                    evals.push(stats.distance_evals as f64);
                    results.push(hits);
                }
            });
            row!(search; name, recall_at_k(&truth, &results, K), format!("{:.0}", mean(&evals)),
                elapsed / queries.len() as u32, guarantee);
        };

        let exact = ExactIndex::build(&data);
        measure("exact", "exact", &|q| exact.search_with_stats(&data, q, K));

        let (ivf, t_ivf) = clock(1, || IvfIndex::build(&data, 64, 3));
        row!(build; "ivf(64)", t_ivf, ivf.heap_bytes());
        for nprobe in [2usize, 8] {
            let ivf = ivf.clone().with_nprobe(nprobe);
            measure(&format!("ivf(nprobe={nprobe})"), "none", &|q| {
                ivf.search_with_stats(&data, q, K)
            });
        }

        let params = HnswParams { m: 12, ef_construction: 80, ef_search: 0, seed: 5 };
        let (hnsw, t_hnsw) = clock(1, || HnswIndex::build(&data, params));
        row!(build; "hnsw(m=12)", t_hnsw, hnsw.heap_bytes());
        for ef in [20usize, 80] {
            measure(&format!("hnsw(ef={ef})"), "none", &|q| {
                hnsw.search_with_stats(&data, q, K, ef)
            });
        }

        let (lsh, t_lsh) =
            clock(1, || LshIndex::build(&data, LshParams { bits: 16, tables: 8, seed: 9 }));
        row!(build; "lsh(16x8)", t_lsh, lsh.heap_bytes());
        measure("lsh(16x8)", "distributional", &|q| lsh.search_with_stats(&data, q, K));

        // progressive: deterministic + probabilistic + approximate
        let (prog, t_prog) = clock(1, || ProgressiveIndex::build(&data, 64, 60, K, 3));
        row!(build; "progressive(64)", t_prog, prog.heap_bytes());
        measure("prog-exact", "per-query exact", &|q| {
            prog.search_mode(&data, q, K, GuaranteeMode::Deterministic)
        });
        for delta in [0.1f64, 0.25] {
            measure(&format!("prog(d={delta})"), &format!("P(exact)>={}", 1.0 - delta), &|q| {
                prog.search_mode(&data, q, K, GuaranteeMode::Probabilistic { delta })
            });
        }
        for epsilon in [0.2f64, 0.5] {
            measure(&format!("prog(e={epsilon})"), &format!("kth<={}x true", 1.0 + epsilon), &|q| {
                prog.search_mode(&data, q, K, GuaranteeMode::Approximate { epsilon })
            });
        }
        e.tables.push(search);
        e.tables.push(build);
    }
    e
}

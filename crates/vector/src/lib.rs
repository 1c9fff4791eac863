//! # cda-vector
//!
//! High-dimensional vector similarity search — the efficiency substrate
//! (property **P1**) of the CDA reproduction.
//!
//! The paper's P1 argument is that existing retrieval methods are *either*
//! fast without quality guarantees *or* guaranteed but slow, and calls for
//! "novel high-dimensional vector similarity search indexes able to provide
//! a precise bound to the quality of approximation … while achieving shorter
//! query answering times", including the ability to "return an empty set
//! when no answer exists with a given expected relevance", plus
//! "learning-augmented algorithms \[that\] make smart pruning decisions".
//! This crate implements the guaranteed end of that spectrum from scratch:
//!
//! | Module | Method | Guarantee |
//! |---|---|---|
//! | [`exact`] | brute-force scan | exact |
//! | [`progressive`] | cluster-ordered progressive scan (ProS-style) over [`ivf`]'s k-means partitions | **deterministic or (δ)-probabilistic early stop** |
//!
//! The baselines the paper contrasts these with — IVF-Flat, HNSW,
//! random-hyperplane LSH and learned early termination on HNSW (Li et al.) —
//! and the recall@k / MRR / NDCG instruments are experiment apparatus: they
//! live in `cda-bench`'s lab (`ivf`, `hnsw`, `lsh`, `learned`, `eval`) and
//! answer through the same [`VectorIndex`] trait, so experiments E1/E2 sweep
//! every index uniformly.
//!
//! ## Example
//!
//! ```
//! use cda_vector::{VectorSet, exact::ExactIndex, VectorIndex};
//!
//! let data = VectorSet::from_rows(vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 3.0]]).unwrap();
//! let index = ExactIndex::build(&data);
//! let hits = index.search(&data, &[0.9, 0.1], 2);
//! assert_eq!(hits[0].id, 1);
//! assert_eq!(hits[1].id, 0);
//! ```

// DESIGN.md §6: no panic and no stdio on product paths; `#[cfg(test)]` code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::allow_attributes, clippy::allow_attributes_without_reason))]

pub mod dataset;
pub mod error;
pub mod exact;
pub mod ivf;
pub mod metrics;
pub mod progressive;

pub use dataset::VectorSet;
pub use metrics::Distance;
use error::VectorError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, VectorError>;

/// One search hit: vector id + distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the vector in the [`VectorSet`].
    pub id: usize,
    /// Distance to the query (smaller is closer).
    pub dist: f32,
}

impl Neighbor {
    /// Construct a neighbor.
    pub fn new(id: usize, dist: f32) -> Self {
        Self { id, dist }
    }
}

/// Common interface implemented by every index in this crate.
pub trait VectorIndex {
    /// Return the `k` (approximately) nearest neighbors of `query`,
    /// sorted by ascending distance.
    fn search(&self, data: &VectorSet, query: &[f32], k: usize) -> Vec<Neighbor>;

    /// Human-readable name used in experiment output.
    fn name(&self) -> &'static str;
}

/// Search statistics shared by the instrumented search paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of full distance computations performed.
    pub distance_evals: usize,
    /// Number of candidate partitions / nodes visited.
    pub visited: usize,
    /// Whether the search stopped early under a guarantee.
    pub early_stop: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_constructor() {
        let n = Neighbor::new(3, 0.5);
        assert_eq!(n.id, 3);
        assert_eq!(n.dist, 0.5);
    }
}

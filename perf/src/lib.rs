//! # cda-perf — the CDA turn benchmark
//!
//! Five workloads over the product's public API, end-to-end metrics timed
//! with tracing off, and a traced pass that replays sampled operations
//! through each layer's entry points. See `perf/README.md` for the metric
//! and workload glossary and `BENCHMARK.json` for the contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod inputs;
pub mod replay;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

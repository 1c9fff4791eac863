#!/usr/bin/env bash
# Offline CI for the CDA workspace.
#
# Everything runs with zero network access and zero crates-io dependencies:
# the in-tree `cda-testkit` crate provides the PRNG and property-test harness.
# Run from anywhere; works from a clean checkout.
#
# Every pass/fail decision below is deterministic: no step exits non-zero
# because of a wall-clock reading. Speed is measured by the `perf/`
# benchmark (see perf/README.md), not gated here.
set -euo pipefail
cd "$(dirname "$0")"

echo "== deps: workspace must be fully self-contained (no registry deps)"
if cargo metadata --format-version 1 --no-deps -q >/dev/null 2>&1; then :; fi
if cargo metadata --format-version 1 2>/dev/null | grep -q '"source":"registry'; then
  echo "FAIL: external registry dependency found in cargo metadata" >&2
  exit 1
fi

echo "== tier-1: release build"
cargo build --release --workspace

echo "== tier-1: full test suite (unit + doc + integration), one run"
# Covers, among others: the integration suites (figure1, pipeline, compile,
# properties, session, edge_cases, determinism, server, storage), the testkit
# self-tests, the static analyzer suite (sqlcheck codes, gate consistency,
# absint soundness laws), optimizer certification (a refuted rewrite fails
# here and prints its counterexample tables), the vectorized differential
# certification, the server runtime suite and the storage fault sweep.
cargo test -q --workspace

echo "== tier-1, release: transcript pins and the execution-count law with the sanitizers off"
# The debug run above has absint_check / effect_check on (cfg!(debug_assertions));
# the benchmark runs release, where they are off. Same pins, same law, on that path.
cargo test --release -q -p cda-integration --test once

echo "== examples"
cargo build --examples

echo "== lint (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "== repolint (in-tree source conventions: R001-R004, R006, R007, R009, R010)"
cargo run --release -q -p cda-analyzer --bin repolint -- .

echo "== perf/: the benchmark builds against the product's public API and smoke-runs all five workloads"
# perf/ is its own package (not a workspace member): a refactor that breaks
# the surface it compiles against must fail here, not in the benchmark run.
cargo build --release --offline --manifest-path perf/Cargo.toml
cargo test --offline --manifest-path perf/Cargo.toml

echo "== E14: cardinality estimation (coverage 1.0, median q-error <= 16, 0 A013 false rejects)"
cargo run --release -q -p cda-bench --bin exp_cardinality

echo "== E15: analyzer-guided repair (salvaged > 0, attempts saved > 0, 0 soundness regressions)"
cargo run --release -q -p cda-bench --bin exp_repair

echo "== E16: plan equivalence (certified rewrites, semantic cache, UQ clustering)"
CDA_BENCH_FAST=1 cargo run --release -q -p cda-bench --bin exp_equiv

echo "== E17: vectorized morsel-parallel engine (0 mismatches vs the row engine)"
CDA_BENCH_FAST=1 cargo run --release -q -p cda-bench --bin exp_vectorized

echo "== E18: abstract interpretation (catch-rate delta, 0 false rejects, bounds only narrow, checked executions succeed)"
CDA_BENCH_FAST=1 cargo run --release -q -p cda-bench --bin exp_absint

echo "== E19: multiplexed server (0 transcript mismatches vs serial at 1 and N workers, admission)"
CDA_BENCH_FAST=1 cargo run --release -q -p cda-bench --bin exp_server

echo "== E20: durable storage (restart hit rate > 0, 0 stale hits, 0 torn recoveries)"
CDA_BENCH_FAST=1 cargo run --release -q -p cda-bench --bin exp_durability

echo "== E21: mutation gate (catch rate 1.0, 0 stale serves, retention 1.0, 0 sanitizer hits)"
CDA_BENCH_FAST=1 cargo run --release -q -p cda-bench --bin exp_dml

echo "CI OK"

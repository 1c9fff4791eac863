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
#
# The repo conventions of DESIGN.md §6 are compiler lints: rustc's
# `unsafe_code` / `missing_docs` from `[workspace.lints]`, clippy's
# no-panic / no-stdio lints from each product crate's root, and the
# `std::fs` / `Catalog::replace_table` bans in `clippy.toml`.
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
# certification, the server runtime suite and the storage fault sweep. It also
# compiles the examples (`[[example]]` targets of cda-core).
cargo test -q --workspace

echo "== tier-1, release: transcript pins and the execution-count law with the sanitizers off"
# The debug run above has absint_check / effect_check on (cfg!(debug_assertions));
# the benchmark runs release, where they are off. Same pins, same law, on that path.
cargo test --release -q -p cda-integration --test once

echo "== tier-1, release: engine differential and determinism suites as the benchmark compiles them"
# Gathers, lineage stores and morsel indexing compile differently in debug
# and release; the byte-identity laws must hold in the build that is measured.
cargo test --release -q -p cda-integration --test vectorized --test determinism

echo "== lint: rustc + clippy on every target, warnings are errors (DESIGN.md §6)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== lint coverage: every crate inherits [workspace.lints]"
missing=$(grep -L '^\[lints\]' crates/*/Cargo.toml || true)
if [ -n "$missing" ]; then echo "FAIL: no [lints] table in: $missing" >&2; exit 1; fi

echo "== docs (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "== perf/: the benchmark builds against the product's public API and smoke-runs all five workloads"
# perf/ is its own package (not a workspace member): a refactor that breaks
# the surface it compiles against must fail here, not in the benchmark run.
cargo build --release --offline --manifest-path perf/Cargo.toml
cargo test --offline --manifest-path perf/Cargo.toml

echo "== experiments: all 21 (DESIGN.md §4) at CI sizes; every gate holds and stdout equals the golden"
# `exp` exits non-zero iff a gate fails; `diff` fails iff any deterministic
# number moved. Wall-clock readings go to stderr and are never compared. A
# change that moves a number on purpose regenerates the golden:
#   cargo run --release -q -p cda-bench --bin exp -- --all --fast > crates/bench/golden_fast.txt
cargo run --release -q -p cda-bench --bin exp -- --all --fast | diff -u crates/bench/golden_fast.txt -

echo "CI OK"

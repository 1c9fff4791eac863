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

echo "== deps: the NL layer stays below the static analyzer (DESIGN.md §6)"
# cda-nlmodel generates candidates; the gate that judges them must not be a
# dependency of the generator.
if cargo tree --offline -e normal -p cda-nlmodel | grep -q 'cda-analyzer'; then
  echo "FAIL: cda-nlmodel depends on cda-analyzer" >&2
  exit 1
fi

echo "== tier-1: release build"
cargo build --release --workspace

echo "== tier-1: full test suite (unit + doc + integration), one run"
# Covers, among others: the integration suites (figure1, pipeline, compile,
# properties, session, edge_cases, determinism, server, storage), cda-bench's
# lab unit tests and its own `edge_cases` and `pipeline` suites (the baseline
# indexes, consistency UQ's calibration, the decoding ablation), the testkit
# self-tests, the static analyzer suite (sqlcheck codes, gate consistency,
# absint soundness laws), the gate's verdict laws and bind pins over the
# typed-expression corpus (`verdicts`), optimizer certification (a refuted rewrite fails
# here and prints its counterexample tables), the vectorized differential
# certification, the server runtime suite and the storage fault sweep. It also
# compiles the examples (`[[example]]` targets of cda-core).
cargo test -q --workspace

echo "== tier-1, release: transcript pins, the execution-count law and the gate's verdict laws with the sanitizers off"
# The debug run above has absint_check / effect_check on (cfg!(debug_assertions));
# the benchmark runs release, where they are off. Same pins, same laws, on that path.
cargo test --release -q -p cda-integration --test once --test verdicts

echo "== tier-1, release: engine differential, determinism, durable cache and server suites as the benchmark compiles them"
# Gathers, lineage stores and morsel indexing compile differently in debug
# and release; the byte-identity laws must hold in the build that is measured.
# The world-scoped semantic cache and server session hosting are measured in
# release too (the `durable_restart` and `server_*` workloads).
cargo test --release -q -p cda-integration --test vectorized --test determinism --test storage --test server

echo "== lint: rustc + clippy on every target, warnings are errors (DESIGN.md §6)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== lint coverage: every crate inherits [workspace.lints]"
missing=$(grep -L '^\[lints\]' crates/*/Cargo.toml || true)
if [ -n "$missing" ]; then echo "FAIL: no [lints] table in: $missing" >&2; exit 1; fi

echo "== docs (rustdoc warnings are errors, private items included)"
# Most product items are `pub(crate)` (DESIGN.md §6), so the broken-link
# check must cover private items too.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q --document-private-items

echo "== perf/: the benchmark builds against the product's public API and smoke-runs all five workloads"
# perf/ is its own package (not a workspace member): a refactor that breaks
# the surface it compiles against must fail here, not in the benchmark run.
cargo build --release --offline --manifest-path perf/Cargo.toml
cargo test --offline --manifest-path perf/Cargo.toml

echo "== perf/: every workload at full size, untraced, scored the way the benchmark scores it"
# The smoke run above is traced, and a traced chat pass skips the
# transcript-reproduction and row-engine oracles. This untraced pass runs
# them. An untraced run reports a wrong answer or a failed operation only in
# its result line (its exit status stays 0), so every workload's result line
# must read "correct":true with 0 failed operations.
perf_results=$(cargo run --release --offline --manifest-path perf/Cargo.toml -- --trace 0 --seconds 1 \
  | tee /dev/stderr | grep '^{"attempted"' || true)
if [ "$(grep -c '"correct":true,"failed":0,' <<<"$perf_results")" -ne 5 ]; then
  echo "FAIL: a perf/ workload answered wrongly, failed an operation or reported no result" >&2
  exit 1
fi

echo "== perf/: chat_scan for the benchmark's full 15 s, untraced, scored the same way"
# The row-engine oracle re-runs one answered turn in fifty, so a 1 s run
# samples a small fraction of what a 15 s benchmark run checks; this run
# samples as many answers as the benchmark does, on the workload where the
# semantic cache serves half the turns.
scan_result=$(cargo run --release --offline --manifest-path perf/Cargo.toml -- \
  --workload chat_scan --seconds 15 --trace 0 | tee /dev/stderr | grep '^{"attempted"' || true)
if [ "$(grep -c '"correct":true,"failed":0,' <<<"$scan_result")" -ne 1 ]; then
  echo "FAIL: chat_scan answered wrongly, failed an operation or reported no result" >&2
  exit 1
fi

echo "== perf/: server_rw at the seeds whose rounds once broke serial replay, scored the same way"
# A drain must equal a serial replay of its turns in submission order. At
# seed 25 (1 s) and seed 37 (15 s) a reader's repaired candidate reads the
# table a writer of the same round updates; the serial-replay oracle checks
# that the reader saw exactly the writes submitted before it.
for run in "25 1" "37 15"; do
  read -r seed seconds <<<"$run"
  rw_result=$(cargo run --release --offline --manifest-path perf/Cargo.toml -- \
    --workload server_rw --seed "$seed" --seconds "$seconds" --trace 0 \
    | tee /dev/stderr | grep '^{"attempted"' || true)
  if [ "$(grep -c '"correct":true,"failed":0,' <<<"$rw_result")" -ne 1 ]; then
    echo "FAIL: server_rw at seed $seed answered wrongly, failed an operation or reported no result" >&2
    exit 1
  fi
done

echo "== experiments: all 21 (DESIGN.md §4) at CI sizes; every gate holds and stdout equals the golden"
# `exp` exits non-zero iff a gate fails; `diff` fails iff any deterministic
# number moved. Wall-clock readings go to stderr and are never compared. A
# change that moves a number on purpose regenerates the golden:
#   cargo run --release -q -p cda-bench --bin exp -- --all --fast > crates/bench/golden_fast.txt
cargo run --release -q -p cda-bench --bin exp -- --all --fast | diff -u crates/bench/golden_fast.txt -

echo "CI OK"

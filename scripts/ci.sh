#!/usr/bin/env sh
# CI entry point: the checks of .github/workflows/ci.yml, each run once;
# the workflow runs the same orfpred lints and bench compile gate as
# steps of its lint and test jobs. Stages: release build, clippy (all
# targets), rustfmt, rustdoc, the lints, the bench compile gate, the
# repro smoke runs, then tier-1 — every member's tests, including the
# fault-injection suites with a pinned seed set, the same TESTKIT_SEEDS
# the workflow sets in its env (override with TESTKIT_SEEDS=1,2,3
# scripts/ci.sh — see README "Testing & fault injection" and DESIGN.md
# §9) — and last the orfbench benchmark's own tests. The repro smoke
# stage runs the same commands as the workflow's "Smoke-run the repro
# harness" step; keep the two files in step.
set -eu

cd "$(dirname "$0")/.."

# Pinned default so CI runs are reproducible; any failure prints an
# `orfpred faultsim --seed <n> --size <z>` repro line. Keep it equal to
# TESTKIT_SEEDS in .github/workflows/ci.yml.
TESTKIT_SEEDS="${TESTKIT_SEEDS:-11,12,13,14,15,16}"
export TESTKIT_SEEDS

echo "== build (release) =="
cargo build --release

echo "== lint: clippy, warnings are errors =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== lint: rustfmt =="
cargo fmt --all --check

echo "== docs: rustdoc, warnings are errors =="
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps

echo "== lint: orfpred invariants =="
# Workspace-wide static pass: determinism, unsafe-audit, panic-path and
# lock-discipline rules (DESIGN.md §12). Hard gate — on failure, each
# diagnostic names its rule id; dig deeper with
#   cargo run -p orfpred-analyze -- --explain <rule-id>
cargo run -q -p orfpred-analyze --release -- --deny

echo "== lint: graph invariants =="
# Cross-crate pass (DESIGN.md §17): lock-acquisition cycles across serve
# and fleet, checkpoint save/restore field coverage, and ORFB wire-tag
# exhaustiveness against the fleet_equiv corpus. Also a hard gate.
cargo run -q -p orfpred-analyze --release -- --deny \
    --only lock_order,checkpoint_coverage,wire_exhaustive

echo "== lint: machine-readable output smoke check =="
# The JSON renderer feeds external tooling; a clean run must emit an
# empty violations array and a non-zero scan count.
json_out="$(cargo run -q -p orfpred-analyze --release -- --format json)"
case "$json_out" in
    *'"violations": []'*) : ;;
    *) echo "lint --format json: expected an empty violations array:"; echo "$json_out"; exit 1 ;;
esac

echo "== bench compile gate (benches must not rot) =="
# default-members covers every member, so this compiles every bench target.
cargo bench --no-run

echo "== smoke: repro harness =="
# table1 trains nothing; table4, ablation and paper-scale train ORFs end
# to end through the eval trainer (a few seconds each in release).
cargo run --release -p orfpred-repro -- table1 --scale tiny
cargo run --release -p orfpred-repro -- table4 --scale tiny --repeats 1
cargo run --release -p orfpred-repro -- ablation --scale tiny
cargo run --release -p orfpred-repro -- paper-scale --scale tiny

echo "== tier-1: full test suite =="
# The root manifest's default-members is every workspace member, so this
# runs the unit and integration tests of every crate, not only the facade:
# the fault_* suites, serve_adapt, domain_equiv, store_roundtrip,
# batch_equiv, frozen_equiv and fleet_equiv included, all under the
# TESTKIT_SEEDS exported above.
cargo test -q

echo "== benchmark: orfbench builds and passes its tests =="
# orfbench is a workspace of its own, so tier-1 never builds it. Its tests
# include a Tiny run of all four workloads, so an API edit that breaks the
# benchmark fails here instead of in a benchmark run. Building it makes
# Cargo rewrite the committed orfbench/Cargo.lock, which changes only
# together with the benchmark itself, so the committed file is put back.
lock_copy="$(mktemp)"
cp orfbench/Cargo.lock "$lock_copy"
trap 'cp "$lock_copy" orfbench/Cargo.lock; rm -f "$lock_copy"' EXIT
cargo test --release --offline --manifest-path orfbench/Cargo.toml

echo "ci: all green"

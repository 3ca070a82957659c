#!/usr/bin/env sh
# CI entry point: release build, tier-1 tests, then the deterministic
# fault-injection suites with a pinned seed set (override with
# TESTKIT_SEEDS=1,2,3 scripts/ci.sh — see README "Testing & fault
# injection" and DESIGN.md §9).
set -eu

cd "$(dirname "$0")/.."

# Pinned default so CI runs are reproducible; any failure prints an
# `orfpred faultsim --seed <n> --size <z>` repro line.
TESTKIT_SEEDS="${TESTKIT_SEEDS:-11,12,13,14,15,16}"
export TESTKIT_SEEDS

echo "== build (release) =="
cargo build --release

echo "== lint: clippy, warnings are errors =="
cargo clippy --workspace -- -D warnings

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

echo "== bench compile gate (benches must not rot, store + prep + score + fleet included) =="
cargo bench --no-run
cargo bench -p orfpred-bench --bench store --no-run
cargo bench -p orfpred-bench --bench prep --no-run
cargo bench -p orfpred-bench --bench score --no-run
cargo bench -p orfpred-bench --bench fleet --no-run

echo "== tier-1: full test suite =="
# The root manifest's default-members is every workspace member, so this
# runs the unit and integration tests of every crate, not only the facade.
cargo test -q

echo "== fault suites (TESTKIT_SEEDS=$TESTKIT_SEEDS) =="
cargo test -q \
    --test fault_checkpoint \
    --test fault_shard \
    --test fault_reorder \
    --test fault_protocol \
    --test fault_labeller \
    --test fault_sim \
    --test fault_store \
    --test fault_prep

echo "== closed-loop adaptation suite =="
cargo test -q --test serve_adapt

echo "== pluggable-domain equivalence suite (schema + window stage) =="
cargo test -q --test domain_equiv

echo "== store golden-trace property suite =="
cargo test -q --test store_roundtrip

echo "== batch kernel equivalence suite =="
cargo test -q --test batch_equiv --test frozen_equiv

echo "== fleet: serving equivalence =="
# The fleet, serve and cli package tests already ran in the tier-1 stage.
cargo test -q --test fleet_equiv

echo "ci: all green"

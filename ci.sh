#!/usr/bin/env bash
# Repository CI gate: formatting, lints, docs, release build, full test
# suite, then the same checks on the bench ledger (a workspace of its own,
# so the workspace-wide commands skip it). Every behavioural check lives
# in a cargo test. Run from the repo root. Fails fast on the first broken
# stage.
set -euo pipefail
cd "$(dirname "$0")"

LEDGER=crates/bench/ledger/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps"
# Our packages only: the vendored registry stand-ins don't doc cleanly.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
  -p sgx-preloading -p sgx-preload-core -p sgx-fleet -p sgx-bench \
  -p sgx-kernel -p sgx-epc -p sgx-dfp -p sgx-sip -p sgx-workloads \
  -p sgx-observer -p sgx-sim

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> bench ledger: fmt, clippy, test"
cargo fmt --manifest-path "$LEDGER" --all --check
cargo clippy --offline --manifest-path "$LEDGER" --all-targets -- -D warnings
cargo test --offline --manifest-path "$LEDGER" -q

echo "CI OK"

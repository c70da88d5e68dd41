#!/usr/bin/env bash
# Repository CI gate: formatting, lints, docs, release build, the
# full-scale Chrome trace digest, full test suite, then the same checks on
# the bench ledger (a workspace of its own, so the workspace-wide commands
# skip it). Every other behavioural check lives in a cargo test. Run from
# the repo root. Fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")"

LEDGER=crates/bench/ledger/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -- -D warnings"
# format_push_string keeps hand-formatted JSON out: reports serialize
# through sgx_sim::json, text goes through write!. This is the first stage
# that resolves dependencies: without --locked it would silently rewrite a
# Cargo.lock that a manifest edit left stale.
cargo clippy --locked --workspace --all-targets -- -D warnings -D clippy::format_push_string

echo "==> cargo doc --no-deps"
# Our packages only: the vendored registry stand-ins don't doc cleanly.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
  -p sgx-preloading -p sgx-preload-core -p sgx-bench \
  -p sgx-kernel -p sgx-epc -p sgx-dfp -p sgx-sip -p sgx-workloads \
  -p sgx-observer -p sgx-sim

echo "==> cargo build --release --locked"
# --locked fails the build when a manifest edit left Cargo.lock stale.
cargo build --release --locked

echo "==> full-scale Chrome trace digest"
# The full-scale microbenchmark/DFP trace (1,005,243,974 bytes) must keep
# its bytes. `timeline --chrome-out` streams the run through
# ChromeTraceSink, the one render path `campaign --timeline-out` also uses.
TRACE_SHA256=5a49065972cea4954cdf1e9d68db20585c27bb5e579dfbe709f1a88b951bf1e0
trace_dir=$(mktemp -d)
trap 'rm -rf "$trace_dir"' EXIT
./target/release/sgx-preload timeline --bench microbenchmark --scheme dfp \
  --scale full -n 0 --chrome-out "$trace_dir/trace.chrome.json" > /dev/null
echo "$TRACE_SHA256  $trace_dir/trace.chrome.json" | sha256sum --check --quiet
rm -rf "$trace_dir"

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> bench ledger: fmt, clippy, test"
cargo fmt --manifest-path "$LEDGER" --all --check
cargo clippy --offline --manifest-path "$LEDGER" --all-targets -- -D warnings
cargo test --offline --manifest-path "$LEDGER" -q

echo "CI OK"

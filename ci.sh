#!/usr/bin/env bash
# Repository CI gate: formatting, lints, docs, release build, the
# full-scale figures against results/, the full-scale Chrome trace and
# gauge series digests, full test suite, then the same checks on the bench
# ledger (a workspace of its own, so the workspace-wide commands skip it).
# Every other behavioural check lives in a cargo test. Run from the repo
# root. Fails fast on the first broken stage.
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

echo "==> full-scale figures against results/"
# Every figure at full scale must write exactly the committed results/.
# The log shows each paper claim's full-scale verdict; a claim that FAILS
# here is reported, not gated (the gate is the dev-scale test in
# crates/bench/tests/figures.rs).
results_dir=$(mktemp -d)
trap 'rm -rf "$results_dir"' EXIT
SGX_BENCH_OUT="$results_dir" cargo bench --locked -q -p sgx-bench --bench figures
diff -r results "$results_dir"
rm -rf "$results_dir"

echo "==> full-scale Chrome trace and gauge series digests"
# The full-scale microbenchmark/DFP trace (1,005,243,974 bytes) and its
# gauge series (21,910,721 bytes, sampled every 100,000 cycles) must keep
# their bytes. `timeline --chrome-out` streams the run through
# ChromeTraceSink, the one render path `campaign --timeline-out` also uses.
# Each sink renders on a thread of its own, which owns the writer; the
# run's thread fills one of four batches of 4,096 events, and at most two
# wait for the render.
# The render writes each record once the events decide it and keeps a
# five-byte anchor per span, so the run, render thread included, must fit
# a 64 MiB address space (`ulimit -v`, this subshell only); a sink that
# held the stream until the end needed 128 MiB.
TRACE_SHA256=5a49065972cea4954cdf1e9d68db20585c27bb5e579dfbe709f1a88b951bf1e0
SERIES_SHA256=621a25db4350411608d881ab8e5cc8122db2fb3553ddcb36c459b9e0ef6bc819
trace_dir=$(mktemp -d)
trap 'rm -rf "$trace_dir"' EXIT
(
  ulimit -v 65536
  ./target/release/sgx-preload timeline --bench microbenchmark --scheme dfp \
    --scale full -n 0 --chrome-out "$trace_dir/trace.chrome.json" \
    --series-out "$trace_dir/series.csv" > /dev/null
)
echo "$TRACE_SHA256  $trace_dir/trace.chrome.json" | sha256sum --check --quiet
echo "$SERIES_SHA256  $trace_dir/series.csv" | sha256sum --check --quiet
rm -rf "$trace_dir"

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> bench ledger: fmt, clippy, test"
cargo fmt --manifest-path "$LEDGER" --all --check
cargo clippy --offline --manifest-path "$LEDGER" --all-targets -- -D warnings
cargo test --offline --manifest-path "$LEDGER" -q

echo "CI OK"

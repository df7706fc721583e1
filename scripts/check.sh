#!/bin/sh
# Repository quality gate: formatting, lints, and the tier-1 build+test.
# Run from anywhere; everything is relative to the repo root.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --all-targets -D warnings"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> every other crate's tests: cargo test --workspace --exclude tokq -q"
# Tier-1 tests only the root package; this runs the unit tests of
# tokq-core, tokq-simnet and the other workspace crates, and leaves out the
# root package tier-1 just ran, so every test runs once.
cargo test --workspace --exclude tokq -q

echo "==> rustdoc gate: cargo doc --no-deps -D warnings"
# Explicit -p list: the vendored stand-ins are workspace members and are
# not held to the documentation bar.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
    -p tokq -p tokq-core -p tokq-protocol -p tokq-obs \
    -p tokq-simnet -p tokq-workload -p tokq-analysis -p tokq-bench

echo "==> sharded smoke: 4 resources on 4 shards over one live cluster"
cargo run --release --quiet --example sharded_locks >/dev/null

echo "==> model-checker smoke: bounded exploration of arbiter + baselines"
cargo run --release --quiet --example explore_smoke

echo "==> chaos smoke: seeded fault schedule against a live 5-node cluster"
cargo run --release --quiet --example chaos_smoke

echo "==> tcp pipeline: head-of-line regression + wire-codec fuzz"
cargo test -q --test tcp_pipeline

echo "==> tcp bench smoke: grant latency, healthy vs one peer dead"
cargo run --release --quiet -p tokq-bench --bin tcp_pipeline -- --rounds 3

echo "==> benchmark: build and test perfbench against the changed crates"
# The benchmark is its own cargo workspace; it pins the public API it uses
# (Cluster::handle, MutexHandle, ChannelTransport::new, tokq_simnet::rng).
export CARGO_TARGET_DIR=.bench_build
cargo test --release --offline --quiet --manifest-path perfbench/Cargo.toml

echo "==> benchmark smoke: 2 s each of rt_chan and rt_tcp, no failed operation"
for workload in rt_chan rt_tcp; do
    last=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)
    case "$last" in
    *'"correct":true,'*'"failed":0,'*) ;;
    *)
        echo "benchmark smoke $workload failed: $last" >&2
        exit 1
        ;;
    esac
done
unset CARGO_TARGET_DIR

echo "==> all checks passed"

#!/usr/bin/env sh
# Repo-wide static checks: lints as errors, formatting, and the test suite
# gate used by CI. Run from anywhere inside the repository.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> minos-xtask lint"
cargo run -q -p minos-xtask -- lint

echo "==> minos-xtask spec --check"
cargo run -q -p minos-xtask -- spec --check

# Rustdoc warnings as errors: a doc link to a private or deleted item
# fails here instead of rendering as dead text.
echo "==> cargo doc --workspace --no-deps (rustdoc warnings as errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test --workspace"
cargo test --workspace --quiet

# The benchmark package has its own empty [workspace], so the workspace
# test run above never builds it; test it by manifest so an API change
# that breaks it fails here.
echo "==> minos-benchmark tests"
cargo test --offline --quiet --manifest-path crates/bench/src/bin/minos-benchmark/Cargo.toml

# Its unit tests use 1 KiB pages; one real round per workload runs 32 KiB
# pages: lossy_scan through encode, CRC and decode, page_scan and churn
# through the pool their members share with the connection, and browse
# through the session scheduler, whose every tick posts its audio and
# connection wakes at the tick instant and fires them, cancelling none.
# Each exit code gates the round's byte checks, counter reconciliation
# and premises.
for workload in lossy_scan page_scan churn browse; do
    echo "==> minos-benchmark $workload (full-size pages)"
    cargo run --release --offline --manifest-path crates/bench/src/bin/minos-benchmark/Cargo.toml \
        -- --workload "$workload" --seed 1 --seconds 0
done

echo "==> exp_pipeline --smoke"
cargo bench -p minos-bench --bench exp_pipeline -- --smoke

echo "==> exp_faults --smoke"
cargo bench -p minos-bench --bench exp_faults -- --smoke

echo "==> exp_overload --smoke"
cargo bench -p minos-bench --bench exp_overload -- --smoke

echo "==> exp_sched --smoke"
cargo bench -p minos-bench --bench exp_sched -- --smoke

echo "==> exp_fleet --smoke"
cargo bench -p minos-bench --bench exp_fleet -- --smoke

echo "==> exp_chaos --smoke"
cargo bench -p minos-bench --bench exp_chaos -- --smoke

# Every smoke above but exp_sched's rewrites its BENCH file from a
# deterministic run, so a row that changed without being committed shows up
# as a diff here. exp_sched --smoke checks BENCH_sched.json itself, all but
# the host-dependent wall_us, and leaves the file alone.
echo "==> BENCH drift"
git diff --exit-code -- BENCH_pipeline.json BENCH_transport.json BENCH_fleet.json \
    BENCH_overload.json BENCH_chaos.json

echo "All checks passed."

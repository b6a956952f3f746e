#!/usr/bin/env sh
# Repo-wide static checks: lints as errors, formatting, and the test suite
# gate used by CI. Run from anywhere inside the repository.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The benchmark package has its own empty [workspace], so the two steps
# above never see it; format-check and lint it by manifest.
echo "==> minos-benchmark fmt --check"
cargo fmt --manifest-path crates/bench/src/bin/minos-benchmark/Cargo.toml -- --check

echo "==> minos-benchmark clippy -D warnings"
cargo clippy --offline --manifest-path crates/bench/src/bin/minos-benchmark/Cargo.toml \
    --all-targets -- -D warnings

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

# Nor does the workspace test run above build it; test it by manifest so
# an API change that breaks it fails here.
echo "==> minos-benchmark tests"
cargo test --offline --quiet --manifest-path crates/bench/src/bin/minos-benchmark/Cargo.toml

# Its unit tests use 1 KiB pages; one real round per workload runs 32 KiB
# pages: lossy_scan through encode, CRC and decode, page_scan and churn
# through the pool their members share with the connection, and browse
# through the session scheduler, whose tick wakes only the connections
# the server completed work for and the voice sessions whose next page
# crossing, anchor entry or exit, or end has fallen due.
# Each exit code gates the round's byte checks, counter reconciliation
# and premises. Their simulated metrics are deterministic, so each
# round's sim_* and verified_ratio lines must also equal, byte for byte,
# the ones committed in scripts/sim_seed<seed>.txt, at seeds 1, 2 and 11.
sim=$(mktemp)
for seed in 1 2 11; do
    : >"$sim"
    for workload in lossy_scan page_scan churn browse; do
        echo "==> minos-benchmark $workload, seed $seed (full-size pages)"
        out=$(cargo run --release --offline \
            --manifest-path crates/bench/src/bin/minos-benchmark/Cargo.toml \
            -- --workload "$workload" --seed "$seed" --seconds 0)
        printf '%s\n' "$out"
        printf '%s\n' "$out" |
            awk -v w="$workload" '$1 ~ /^sim_/ || $1 == "verified_ratio" { print w, $0 }' >>"$sim"
    done
    echo "==> simulated metrics at seed $seed match scripts/sim_seed$seed.txt"
    if ! diff -u "scripts/sim_seed$seed.txt" "$sim"; then
        rm -f "$sim"
        echo "simulated metrics differ from scripts/sim_seed$seed.txt" >&2
        exit 1
    fi
done
rm -f "$sim"

# A traced seed-1 round of each workload reports per-layer counters, and
# those named pool.*, service.*, kernel.*, transport.*, link.* and
# device.*, but no *_ns* timing, are deterministic counts. Each round runs
# once; its exit code gates it, four bounds below hold one counter each,
# and every such counter must also equal, byte for byte, its line in
# scripts/trace_seed1.txt (lines are <workload> <metric> <value> <unit>),
# so a change that moves one says so in its diff. The client keeps one
# retransmit timer for all of its connections, armed for the earliest
# deadline, instead of arming and cancelling one per request: page_scan
# may arm at most one timer per window of 16 pages, and churn's kernel
# wakes may be at most a quarter spurious. Every page buffer the client
# leases for a lossy decode, duplicates included, goes back to the pool:
# lossy_scan may allocate at most one buffer per hundred pages. The
# scheduler plays voice sessions in event time, waking one only when its
# next observable change falls due instead of polling it every tick:
# browse may fire at most one kernel event per op. A cancelled timer
# leaves its kernel at once and never fires, so a moved voice wake costs
# nothing later: browse's kernel wakes may be at most 5% spurious.
traced=$(mktemp -d)
for workload in page_scan lossy_scan churn browse; do
    echo "==> minos-benchmark $workload, seed 1, traced"
    cargo run --release --offline --quiet \
        --manifest-path crates/bench/src/bin/minos-benchmark/Cargo.toml \
        -- --workload "$workload" --seed 1 --seconds 0 --trace 1 >"$traced/$workload"
done
trace_gate() {
    value=$(awk -v metric="$2" '$1 == metric { print $2 }' "$traced/$1")
    echo "    $1 $2 = $value (bound $3)"
    if ! awk -v v="$value" -v bound="$3" 'BEGIN { exit !(v != "" && v <= bound) }'; then
        rm -rf "$traced"
        echo "$1: $2 = $value exceeds $3" >&2
        exit 1
    fi
}
echo "==> minos-benchmark traced counter gates"
trace_gate page_scan kernel.timers_per_op 0.0625
trace_gate churn kernel.spurious_share 0.25
trace_gate lossy_scan pool.allocs_per_page 0.01
trace_gate browse kernel.events_per_op 1
trace_gate browse kernel.spurious_share 0.05
echo "==> traced counters at seed 1 match scripts/trace_seed1.txt"
for workload in page_scan lossy_scan churn browse; do
    awk -v w="$workload" '$1 ~ /^(pool|service|kernel|transport|link|device)\./ && $1 !~ /_ns/ {
        print w, $0
    }' "$traced/$workload"
done >"$traced/counters"
if ! diff -u scripts/trace_seed1.txt "$traced/counters"; then
    rm -rf "$traced"
    echo "traced counters differ from scripts/trace_seed1.txt" >&2
    exit 1
fi
rm -rf "$traced"

# Every example runs to completion, not only compiles: they drive the
# workstation client, fleet and scheduler paths end to end from the facade.
for example in quickstart medical_xray voice_dictation subway_map city_tour office_document \
    archive_browser; do
    echo "==> example $example"
    cargo run --release --offline --quiet --example "$example" > /dev/null
done

# Each E12-E17 smoke runs its experiment's pins, then holds a fresh series
# to its committed BENCH_*.json line for line, all but the host-dependent
# wall-clock lines, and fails on drift. No smoke writes its file.
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

echo "All checks passed."

//! Experiment E13 — goodput of the framed transport under injected frame
//! faults.
//!
//! One reader pulls 48 pages of 8 KB from the optical server over a
//! 10 Mbit/s Ethernet link whose frames are corrupted at a configurable
//! per-frame rate (a flipped bit anywhere in the frame, caught by the
//! CRC32 trailer). The recovery machinery — per-request deadlines,
//! retransmission with capped exponential backoff, duplicate suppression —
//! must deliver every page byte-identical; the series reports how much
//! goodput survives at each fault rate for the blocking discipline
//! (window 1, a full timeout per loss) and the pipelined transport
//! (window 8, deadlines expire behind earlier waits, so a loss costs
//! roughly one retry round trip).
//!
//! Pages are requested in a strided order so the clean baseline cannot
//! coalesce adjacent spans the faulty runs must serve frame-by-frame —
//! the comparison isolates recovery cost.
//!
//! The series is also emitted machine-readable as `BENCH_transport.json`
//! at the repository root. `--smoke` runs the acceptance pin — at 1 %
//! frame corruption the pipelined transport retries to completion with
//! ≥ 80 % of its fault-free throughput — and is hooked into
//! `scripts/check.sh`.

use criterion::{criterion_group, BenchmarkId, Criterion};
use minos_bench::{fast_criterion, row};
use minos_net::FaultPlan;
use minos_presentation::workload::{simulate_faulty_page_workload, FaultyWorkloadReport};

const PAGES: usize = 48;
const PAGE_LEN: u64 = 8192;
const PIPELINED_WINDOW: usize = 8;
const SEED: u64 = 1986;

/// The E13 fault axis: per-frame corruption probabilities.
const RATES: [f64; 4] = [0.0, 0.001, 0.01, 0.05];

fn plan(rate: f64) -> FaultPlan {
    if rate <= 0.0 {
        FaultPlan::none()
    } else {
        FaultPlan::corrupting(SEED, rate)
    }
}

fn run(window: usize, rate: f64) -> FaultyWorkloadReport {
    simulate_faulty_page_workload(PAGES, PAGE_LEN, window, plan(rate)).expect("workload runs")
}

/// One measured point of the series: both transports at one fault rate.
struct Point {
    rate: f64,
    blocking: FaultyWorkloadReport,
    pipelined: FaultyWorkloadReport,
}

fn measure_series() -> Vec<Point> {
    RATES
        .iter()
        .map(|&rate| Point { rate, blocking: run(1, rate), pipelined: run(PIPELINED_WINDOW, rate) })
        .collect()
}

/// Writes the series as `BENCH_transport.json` at the repository root —
/// the machine-readable perf-trajectory record for this experiment.
fn emit_json(points: &[Point]) {
    let clean_pipelined = points.first().map(|p| p.pipelined.pages_per_sec()).unwrap_or(0.0);
    let mut series = Vec::new();
    for p in points {
        let ratio =
            if clean_pipelined > 0.0 { p.pipelined.pages_per_sec() / clean_pipelined } else { 0.0 };
        series.push(format!(
            "    {{\n      \"fault_rate\": {},\n      \"blocking_pages_per_sec\": {:.4},\n      \
             \"pipelined_pages_per_sec\": {:.4},\n      \"pipelined_goodput_ratio\": {ratio:.4},\n      \
             \"pipelined_retries\": {},\n      \"pipelined_corrupt_frames\": {},\n      \
             \"pages_failed\": {}\n    }}",
            p.rate,
            p.blocking.pages_per_sec(),
            p.pipelined.pages_per_sec(),
            p.pipelined.transport.retries,
            p.pipelined.transport.corrupt_frames,
            p.blocking.failed + p.pipelined.failed,
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"E13\",\n  \"workload\": \"{PAGES} x {PAGE_LEN} B pages, strided, \
         10 Mbit/s Ethernet, optical server\",\n  \"pipelined_window\": {PIPELINED_WINDOW},\n  \
         \"seed\": {SEED},\n  \"series\": [\n{}\n  ]\n}}\n",
        series.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_transport.json");
    if let Err(e) = std::fs::write(path, json) {
        row("E13", &format!("could not write BENCH_transport.json: {e}"));
    } else {
        row("E13", "series written to BENCH_transport.json");
    }
}

fn print_series() {
    row("E13", &format!("workload = {PAGES} x 8 KB pages, strided; link = 10 Mbit/s Ethernet;"));
    row(
        "E13",
        &format!(
            "per-frame corruption, CRC32-detected; blocking window 1 vs pipelined window \
             {PIPELINED_WINDOW}"
        ),
    );
    row("E13", "fault_rate  blocking_pg/s  pipelined_pg/s  goodput_ratio  retries  failed");
    let points = measure_series();
    let clean = points.first().map(|p| p.pipelined.pages_per_sec()).unwrap_or(0.0);
    for p in &points {
        let ratio = if clean > 0.0 { p.pipelined.pages_per_sec() / clean } else { 0.0 };
        row(
            "E13",
            &format!(
                "{:>10}  {:>13.2}  {:>14.2}  {:>13.2}  {:>7}  {:>6}",
                format!("{:.3}%", p.rate * 100.0),
                p.blocking.pages_per_sec(),
                p.pipelined.pages_per_sec(),
                ratio,
                p.pipelined.transport.retries,
                p.blocking.failed + p.pipelined.failed,
            ),
        );
    }
    emit_json(&points);
}

fn smoke() {
    let clean = run(PIPELINED_WINDOW, 0.0);
    let faulty = run(PIPELINED_WINDOW, 0.01);
    let ratio = faulty.pages_per_sec() / clean.pages_per_sec();
    row(
        "E13",
        &format!(
            "smoke: clean {:.2} pg/s  1% corruption {:.2} pg/s  goodput ratio {ratio:.2}  \
             (retries {}, corrupt frames {})",
            clean.pages_per_sec(),
            faulty.pages_per_sec(),
            faulty.transport.retries,
            faulty.transport.corrupt_frames,
        ),
    );
    // The acceptance pin: every page byte-identical (the workload verifies
    // content internally and counts anything else as failed), no page lost
    // to exhausted retries, and at least 80 % of fault-free throughput.
    assert_eq!(faulty.pages, PAGES as u64, "every page recovered: {:?}", faulty.transport);
    assert_eq!(faulty.failed, 0, "no request exhausted its retries");
    assert!(ratio >= 0.8, "goodput ratio {ratio:.3} under 1% corruption fell below 0.8");
    // The full series is cheap (simulated time), so the machine-readable
    // artifact is always the complete four-rate sweep.
    emit_json(&measure_series());
}

fn bench(c: &mut Criterion) {
    print_series();
    let mut group = c.benchmark_group("e13_faults");
    for &(label, window) in &[("blocking", 1usize), ("pipelined", PIPELINED_WINDOW)] {
        group.bench_with_input(BenchmarkId::new(label, "1pct"), &window, |b, &w| {
            b.iter(|| run(w, 0.01))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = fast_criterion();
    targets = bench
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    benches();
}

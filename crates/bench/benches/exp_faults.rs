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
//! Both clocks are recorded: each row carries the wall-clock time the two
//! simulations of its rate took (`wall_us`), and the file carries what
//! `crc32` costs per KiB of one 8 KiB page frame (`crc32_ns_per_kib`),
//! the check every delivered frame pays at the receiver.
//!
//! The series is emitted machine-readable as `BENCH_transport.json` at the
//! repository root by the full bench run and by `--series`. `--smoke` runs
//! the acceptance pin — at 1 % frame corruption the pipelined transport
//! retries to completion with ≥ 80 % of its fault-free throughput — and
//! checks a fresh series against the committed file, every line but the
//! host-dependent timings; it is hooked into `scripts/check.sh`.

use criterion::{criterion_group, BenchmarkId, Criterion};
use minos_bench::{fast_criterion, record, row, timed};
use minos_net::{crc32, FaultPlan, Frame, ServerResponse};
use minos_presentation::workload::{simulate_faulty_page_workload, FaultyWorkloadReport};
use std::hint::black_box;
use std::time::{Duration, Instant};

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

/// One measured point of the series: both transports at one fault rate,
/// plus the wall-clock cost of simulating them.
struct Point {
    rate: f64,
    blocking: FaultyWorkloadReport,
    pipelined: FaultyWorkloadReport,
    wall: Duration,
}

fn measure_series() -> Vec<Point> {
    RATES
        .iter()
        .map(|&rate| {
            let ((blocking, pipelined), wall) =
                timed(|| (run(1, rate), run(PIPELINED_WINDOW, rate)));
            Point { rate, blocking, pipelined, wall }
        })
        .collect()
}

/// Batches the CRC probe times; the reported figure is their median.
const CRC_BATCHES: usize = 15;
/// `crc32` calls per batch.
const CRC_PER_BATCH: usize = 64;

/// What `crc32` costs per KiB of one encoded 8 KiB page frame, the check
/// the receiver runs on every delivered frame: the median of
/// [`CRC_BATCHES`] timed batches, after one warm-up batch.
fn crc32_ns_per_kib() -> f64 {
    let page: Vec<u8> = (0..PAGE_LEN).map(|i| (i % 251) as u8).collect();
    let frame = Frame::response(1, 1, ServerResponse::Span(page)).encode();
    let mut per_kib: Vec<f64> = (0..=CRC_BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..CRC_PER_BATCH {
                black_box(crc32(black_box(&frame)));
            }
            let ns = start.elapsed().as_nanos() as f64 / CRC_PER_BATCH as f64;
            ns / (frame.len() as f64 / 1024.0)
        })
        .skip(1)
        .collect();
    per_kib.sort_by(f64::total_cmp);
    per_kib[CRC_BATCHES / 2]
}

/// Records the series as `BENCH_transport.json` at the repository root —
/// the machine-readable perf-trajectory record for this experiment. The
/// wall-clock keys depend on the host, not on the simulation.
fn record_series(points: &[Point]) {
    let crc_ns_per_kib = crc32_ns_per_kib();
    let clean_pipelined = points.first().map(|p| p.pipelined.pages_per_sec()).unwrap_or(0.0);
    let mut series = Vec::new();
    for p in points {
        let ratio =
            if clean_pipelined > 0.0 { p.pipelined.pages_per_sec() / clean_pipelined } else { 0.0 };
        series.push(format!(
            "    {{\n      \"fault_rate\": {},\n      \"blocking_pages_per_sec\": {:.4},\n      \
             \"pipelined_pages_per_sec\": {:.4},\n      \"pipelined_goodput_ratio\": {ratio:.4},\n      \
             \"pipelined_retries\": {},\n      \"pipelined_corrupt_frames\": {},\n      \
             \"pages_failed\": {},\n      \"wall_us\": {}\n    }}",
            p.rate,
            p.blocking.pages_per_sec(),
            p.pipelined.pages_per_sec(),
            p.pipelined.transport.retries,
            p.pipelined.transport.corrupt_frames,
            p.blocking.failed + p.pipelined.failed,
            p.wall.as_micros(),
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"E13\",\n  \"workload\": \"{PAGES} x {PAGE_LEN} B pages, strided, \
         10 Mbit/s Ethernet, optical server\",\n  \"pipelined_window\": {PIPELINED_WINDOW},\n  \
         \"seed\": {SEED},\n  \"crc32_ns_per_kib\": {crc_ns_per_kib:.1},\n  \
         \"series\": [\n{}\n  ]\n}}\n",
        series.join(",\n")
    );
    record("E13", "BENCH_transport.json", &json, &["wall_us", "crc32_ns_per_kib"]);
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
    row(
        "E13",
        "fault_rate  blocking_pg/s  pipelined_pg/s  goodput_ratio  retries  failed  wall_ms",
    );
    let points = measure_series();
    let clean = points.first().map(|p| p.pipelined.pages_per_sec()).unwrap_or(0.0);
    for p in &points {
        let ratio = if clean > 0.0 { p.pipelined.pages_per_sec() / clean } else { 0.0 };
        row(
            "E13",
            &format!(
                "{:>10}  {:>13.2}  {:>14.2}  {:>13.2}  {:>7}  {:>6}  {:>7.2}",
                format!("{:.3}%", p.rate * 100.0),
                p.blocking.pages_per_sec(),
                p.pipelined.pages_per_sec(),
                ratio,
                p.pipelined.transport.retries,
                p.blocking.failed + p.pipelined.failed,
                p.wall.as_micros() as f64 / 1_000.0,
            ),
        );
    }
    record_series(&points);
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
    // The full series is cheap (simulated time), so the smoke holds it to
    // the committed file.
    record_series(&measure_series());
}

fn bench(c: &mut Criterion) {
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
    minos_bench::main(smoke, print_series, benches);
}

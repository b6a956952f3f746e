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
//! The bench prints the series document and writes it as
//! `BENCH_transport.json` at the repository root, in the full run and
//! under `--series`. `--smoke` runs the acceptance pin on the measured
//! window-8 points — at 1 % frame corruption the pipelined transport
//! retries to completion with ≥ 80 % of its fault-free throughput — and
//! checks the fresh series against the committed file, every line but the
//! host-dependent timings; it is hooked into `scripts/check.sh`.

use criterion::{criterion_group, BenchmarkId, Criterion};
use minos_bench::{fast_criterion, point, row, timed, Json};
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

/// The series and what `crc32` costs per KiB of a page frame.
fn measure() -> (Vec<Point>, f64) {
    let points = RATES
        .iter()
        .map(|&rate| {
            let ((blocking, pipelined), wall) =
                timed(|| (run(1, rate), run(PIPELINED_WINDOW, rate)));
            Point { rate, blocking, pipelined, wall }
        })
        .collect();
    (points, crc32_ns_per_kib())
}

fn doc((points, crc_ns_per_kib): &(Vec<Point>, f64)) -> Json {
    let clean = points.first().map(|p| p.pipelined.pages_per_sec()).unwrap_or(0.0);
    let entry = |p: &Point| {
        let ratio = if clean > 0.0 { p.pipelined.pages_per_sec() / clean } else { 0.0 };
        Json::Obj(vec![
            ("fault_rate", Json::Raw(p.rate.to_string())),
            ("blocking_pages_per_sec", Json::fixed(p.blocking.pages_per_sec(), 4)),
            ("pipelined_pages_per_sec", Json::fixed(p.pipelined.pages_per_sec(), 4)),
            ("pipelined_goodput_ratio", Json::fixed(ratio, 4)),
            ("pipelined_retries", p.pipelined.transport.retries.into()),
            ("pipelined_corrupt_frames", p.pipelined.transport.corrupt_frames.into()),
            ("pages_failed", (p.blocking.failed + p.pipelined.failed).into()),
            ("wall_us", p.wall.as_micros().into()),
        ])
    };
    let workload =
        format!("{PAGES} x {PAGE_LEN} B pages, strided, 10 Mbit/s Ethernet, optical server");
    Json::Obj(vec![
        ("experiment", "E13".into()),
        ("workload", workload.into()),
        ("pipelined_window", PIPELINED_WINDOW.into()),
        ("seed", SEED.into()),
        ("crc32_ns_per_kib", Json::fixed(*crc_ns_per_kib, 1)),
        ("series", Json::Arr(points.iter().map(entry).collect())),
    ])
}

fn pins((points, _): &(Vec<Point>, f64)) {
    let clean = &point(points, "fault-free", |p| p.rate == 0.0).pipelined;
    let faulty = &point(points, "1 % corruption", |p| p.rate == 0.01).pipelined;
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
    let host_keys = ["wall_us", "crc32_ns_per_kib"];
    minos_bench::main("E13", "BENCH_transport.json", &host_keys, measure, doc, pins, benches);
}

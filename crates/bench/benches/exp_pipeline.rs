//! Experiment E12 — pipelined transport vs the blocking request path.
//!
//! N concurrent sessions each pull 8 pages of 8 KB from the optical
//! server over one shared 10 Mbit/s Ethernet link. Both disciplines are
//! configurations of the one workload driver, `workload::run`: the
//! blocking transport keeps one request in flight per session (window 1);
//! the pipelined transport keeps a window of request frames in flight,
//! lets the server interleave connections, and coalesces adjacent spans
//! into one device read. The series reports aggregate pages/sec for both
//! windows and the speedup ratio per session count; the acceptance claim
//! (pipelined ≥ 2× blocking at N = 16) is also pinned as a unit test in
//! `minos-presentation`.
//!
//! Both clocks are recorded: each point carries the wall-clock time its
//! two runs took (`wall_us`).
//!
//! The bench prints the series document and writes it as
//! `BENCH_pipeline.json` at the repository root, in the full run and
//! under `--series`. `--smoke` asserts on a small 2-session run that the
//! pipelined transport is no slower, and on the measured steady state
//! that it allocates no payload buffer, then checks the fresh series
//! against the committed file, every line but `wall_us`; it is hooked
//! into `scripts/check.sh`.

use criterion::{criterion_group, BenchmarkId, Criterion};
use minos_bench::{fast_criterion, row, timed, Json};
use minos_presentation::workload::{self, RunReport, WorkloadConfig};
use std::time::Duration;

const PAGES_PER_SESSION: usize = 8;
const PAGE_LEN: u64 = 8192;
const WINDOW: usize = 8;

/// The E12 load axis: concurrent session counts.
const SESSIONS: [usize; 3] = [1, 4, 16];

fn run(sessions: usize, pages: usize, window: usize) -> RunReport {
    workload::run(WorkloadConfig { window, ..WorkloadConfig::new(sessions, pages, PAGE_LEN) })
        .expect("workload runs")
}

/// One measured point of the series: both windows at one session count,
/// plus the wall-clock cost of simulating them.
struct Point {
    sessions: usize,
    blocking: RunReport,
    pipelined: RunReport,
    wall: Duration,
}

/// The series and the zero-copy steady-state point: 8 sessions streaming
/// 64 pages each.
fn measure() -> (Vec<Point>, RunReport) {
    let points = SESSIONS
        .iter()
        .map(|&sessions| {
            let ((blocking, pipelined), wall) = timed(|| {
                (run(sessions, PAGES_PER_SESSION, 1), run(sessions, PAGES_PER_SESSION, WINDOW))
            });
            Point { sessions, blocking, pipelined, wall }
        })
        .collect();
    (points, run(8, 64, WINDOW))
}

fn doc((points, steady): &(Vec<Point>, RunReport)) -> Json {
    let entry = |p: &Point| {
        let (blocking, pipelined) =
            (p.blocking.goodput_pages_per_sec(), p.pipelined.goodput_pages_per_sec());
        Json::Obj(vec![
            ("sessions", p.sessions.into()),
            ("wall_us", p.wall.as_micros().into()),
            ("blocking_pages_per_sec", Json::fixed(blocking, 4)),
            ("pipelined_pages_per_sec", Json::fixed(pipelined, 4)),
            ("speedup", Json::fixed(pipelined / blocking, 4)),
            ("pipelined_allocs_per_page", Json::fixed(p.pipelined.allocations_per_page(), 4)),
        ])
    };
    let workload = format!(
        "N sessions x {PAGES_PER_SESSION} x {PAGE_LEN} B pages, one optical server, 10 Mbit/s \
         Ethernet, blocking = window 1, pipelined = window {WINDOW}"
    );
    Json::Obj(vec![
        ("experiment", "E12".into()),
        ("workload", workload.into()),
        ("series", Json::Arr(points.iter().map(entry).collect())),
        (
            "steady_state",
            Json::Obj(vec![
                ("sessions", 8u64.into()),
                ("pages", steady.pages.into()),
                ("payload_allocs", steady.payload_allocs.into()),
            ]),
        ),
    ])
}

fn pins((_, steady): &(Vec<Point>, RunReport)) {
    let blocking = run(2, PAGES_PER_SESSION, 1);
    let pipelined = run(2, PAGES_PER_SESSION, 4);
    row(
        "E12",
        &format!(
            "smoke: 2 sessions  blocking {:.2} pg/s  pipelined {:.2} pg/s",
            blocking.goodput_pages_per_sec(),
            pipelined.goodput_pages_per_sec()
        ),
    );
    assert!(
        pipelined.elapsed <= blocking.elapsed,
        "pipelined transport must not be slower: {} vs {}",
        pipelined.elapsed,
        blocking.elapsed
    );
    assert_eq!(pipelined.pages, blocking.pages, "both transports served every page");
    // The pooled-buffer acceptance pin: at the steady-state operating
    // point (window 8, 64 pages/session) every consumed page is recycled
    // into a pool stocked with the in-flight working set, so no page
    // needs a fresh payload allocation.
    row(
        "E12",
        &format!(
            "smoke: steady-state alloc/page {:.3} ({} allocs / {} pages)",
            steady.allocations_per_page(),
            steady.payload_allocs,
            steady.pages
        ),
    );
    assert_eq!(steady.payload_allocs, 0, "pooled buffers serve every page: {steady:?}");
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_pipeline");
    for sessions in [1usize, 16] {
        group.bench_with_input(BenchmarkId::new("blocking", sessions), &sessions, |b, &n| {
            b.iter(|| run(n, PAGES_PER_SESSION, 1))
        });
        group.bench_with_input(BenchmarkId::new("pipelined", sessions), &sessions, |b, &n| {
            b.iter(|| run(n, PAGES_PER_SESSION, WINDOW))
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
    minos_bench::main("E12", "BENCH_pipeline.json", &["wall_us"], measure, doc, pins, benches);
}

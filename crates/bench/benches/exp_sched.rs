//! Experiment E15 — discrete-event scheduling cost versus the paced
//! session population.
//!
//! N dwell-paced sessions each read 16 pages of 8 KB from one optical
//! server over one shared 10 Mbit/s Ethernet link, one page in flight at
//! a time: every 8th session is an audio session asking for its next page
//! one 250 ms playback period after the last landed, the rest are text
//! readers dwelling 1 s between page turns. Every run is a configuration
//! of the one workload driver, `workload::run`, with real optical reads;
//! it jumps from armed deadline to armed deadline, so a session costs
//! kernel work only when its dwell ends or its page moves.
//!
//! The claim under test: kernel work is a fixed number of events per
//! page — the dwell timer, the server wake, the device completion and the
//! landing — at every population, with no timer wasted and no wake
//! spurious, while the audio tail grows once the device saturates. (That
//! idle sessions cost nothing at all is pinned on the session scheduler,
//! `idle_sessions_cost_the_kernel_nothing`.)
//!
//! The series is emitted machine-readable as `BENCH_sched.json` at the
//! repository root by the full bench run and by `--series`. `--smoke` runs
//! the acceptance pin — four events and four timers per page, zero
//! spurious wakes, at every population — and checks a fresh series
//! against the committed file, every line but the host-dependent
//! `wall_us`; it is hooked into `scripts/check.sh`.

use criterion::{criterion_group, BenchmarkId, Criterion};
use minos_bench::{fast_criterion, record, row, timed};
use minos_presentation::workload::{self, Dwell, RunReport, WorkloadConfig};
use minos_types::SimDuration;

const PAGES: usize = 16;
const PAGE_LEN: u64 = 8192;

/// Every `AUDIO_STRIDE`th session is audio-paced.
const AUDIO_STRIDE: usize = 8;

/// The paced population's think times: the audio playback period and the
/// text reading dwell.
const DWELL: Dwell =
    Dwell { audio: SimDuration::from_millis(250), text: SimDuration::from_secs(1) };

/// Kernel events per page: dwell timer, server wake, device completion,
/// landing.
const EVENTS_PER_PAGE: u64 = 4;

/// The E15 load axis: dwell-paced session counts.
const SESSIONS: [usize; 5] = [8, 16, 32, 64, 128];

fn run(sessions: usize) -> RunReport {
    workload::run(WorkloadConfig {
        audio_sessions: sessions / AUDIO_STRIDE,
        window: 1,
        dwell: DWELL,
        ..WorkloadConfig::new(sessions, PAGES, PAGE_LEN)
    })
    .expect("workload runs")
}

/// One measured point of the series: the report plus the wall-clock cost
/// of producing it.
struct Point {
    sessions: usize,
    report: RunReport,
    wall: std::time::Duration,
}

fn measure_series() -> Vec<Point> {
    SESSIONS
        .iter()
        .map(|&sessions| {
            let (report, wall) = timed(|| run(sessions));
            Point { sessions, report, wall }
        })
        .collect()
}

/// Records the series as `BENCH_sched.json` at the repository root — the
/// machine-readable perf-trajectory record for this experiment.
fn record_series(points: &[Point]) {
    let mut series = Vec::new();
    for p in points {
        series.push(format!(
            "    {{\n      \"sessions\": {},\n      \"audio_sessions\": {},\n      \"pages\": {},\n      \
             \"events\": {},\n      \"timers_armed\": {},\n      \"spurious_wakes\": {},\n      \
             \"ready_high_water\": {},\n      \"audio_p99_us\": {},\n      \
             \"sim_elapsed_us\": {},\n      \"wall_us\": {}\n    }}",
            p.sessions,
            p.sessions / AUDIO_STRIDE,
            p.report.pages,
            p.report.kernel.events_fired,
            p.report.kernel.timers_armed,
            p.report.kernel.spurious_wakes,
            p.report.kernel.ready_high_water,
            p.report.audio_p99.as_micros(),
            p.report.elapsed.as_micros(),
            p.wall.as_micros(),
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"E15\",\n  \"workload\": \"N dwell-paced sessions x {PAGES} x \
         {PAGE_LEN} B pages, window 1, audio stride {AUDIO_STRIDE} @ 250ms, text dwell 1s, \
         one optical server, 10 Mbit/s Ethernet, workload driver\",\n  \"series\": [\n{}\n  ]\n}}\n",
        series.join(",\n")
    );
    record("E15", "BENCH_sched.json", &json, &["wall_us"]);
}

fn print_series() {
    row(
        "E15",
        &format!("workload = N dwell-paced sessions x {PAGES} x 8 KB pages; window 1; optical;"),
    );
    row("E15", "sessions    events  timers  spurious  ready_hw  p99_ms   sim_s    wall_ms");
    let points = measure_series();
    for p in &points {
        row(
            "E15",
            &format!(
                "{:>8}  {:>8}  {:>6}  {:>8}  {:>8}  {:>6.1}  {:>6.1}  {:>8.2}",
                p.sessions,
                p.report.kernel.events_fired,
                p.report.kernel.timers_armed,
                p.report.kernel.spurious_wakes,
                p.report.kernel.ready_high_water,
                p.report.audio_p99.as_micros() as f64 / 1_000.0,
                p.report.elapsed.as_micros() as f64 / 1_000_000.0,
                p.wall.as_micros() as f64 / 1_000.0,
            ),
        );
    }
    record_series(&points);
}

fn smoke() {
    let points = measure_series();
    // The acceptance pin: kernel work is a function of the pages the
    // paced sessions turn — four events per page at every population,
    // every armed timer fired, and no wake ever finds nothing to do.
    for p in &points {
        let r = &p.report;
        row(
            "E15",
            &format!(
                "smoke: {} sessions  events {}  timers {}  spurious {}  p99 {:.1} ms",
                p.sessions,
                r.kernel.events_fired,
                r.kernel.timers_armed,
                r.kernel.spurious_wakes,
                r.audio_p99.as_micros() as f64 / 1_000.0,
            ),
        );
        assert_eq!(r.pages, (p.sessions * PAGES) as u64, "every paced page landed: {r:?}");
        assert_eq!(r.kernel.events_fired, EVENTS_PER_PAGE * r.pages, "events per page: {r:?}");
        assert_eq!(r.kernel.timers_armed, r.kernel.events_fired, "no timer wasted: {r:?}");
        assert_eq!(r.kernel.spurious_wakes, 0, "no wake found nothing to do: {r:?}");
    }
    // The full series is cheap (simulated time), so the smoke holds it to
    // the committed file.
    record_series(&points);
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_sched");
    for sessions in [SESSIONS[0], SESSIONS[SESSIONS.len() - 1]] {
        group.bench_with_input(BenchmarkId::new("paced", sessions), &sessions, |b, &n| {
            b.iter(|| run(n))
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

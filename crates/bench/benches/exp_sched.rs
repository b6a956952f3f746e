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
//! The bench prints the series document and writes it as
//! `BENCH_sched.json` at the repository root, in the full run and under
//! `--series`. `--smoke` runs the acceptance pin on every measured row —
//! four events and four timers per page, zero spurious wakes — and checks
//! the fresh series against the committed file, every line but the
//! host-dependent `wall_us`; it is hooked into `scripts/check.sh`.

use criterion::{criterion_group, BenchmarkId, Criterion};
use minos_bench::{fast_criterion, row, timed, Json};
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

fn measure() -> Vec<Point> {
    SESSIONS
        .iter()
        .map(|&sessions| {
            let (report, wall) = timed(|| run(sessions));
            Point { sessions, report, wall }
        })
        .collect()
}

fn doc(points: &[Point]) -> Json {
    let entry = |p: &Point| {
        let r = &p.report;
        Json::Obj(vec![
            ("sessions", p.sessions.into()),
            ("audio_sessions", (p.sessions / AUDIO_STRIDE).into()),
            ("pages", r.pages.into()),
            ("events", r.kernel.events_fired.into()),
            ("timers_armed", r.kernel.timers_armed.into()),
            ("spurious_wakes", r.kernel.spurious_wakes.into()),
            ("ready_high_water", r.kernel.ready_high_water.into()),
            ("audio_p99_us", r.audio_p99.as_micros().into()),
            ("sim_elapsed_us", r.elapsed.as_micros().into()),
            ("wall_us", p.wall.as_micros().into()),
        ])
    };
    let workload = format!(
        "N dwell-paced sessions x {PAGES} x {PAGE_LEN} B pages, window 1, audio stride \
         {AUDIO_STRIDE} @ 250ms, text dwell 1s, one optical server, 10 Mbit/s Ethernet, workload \
         driver"
    );
    Json::Obj(vec![
        ("experiment", "E15".into()),
        ("workload", workload.into()),
        ("series", Json::Arr(points.iter().map(entry).collect())),
    ])
}

fn pins(points: &[Point]) {
    // The acceptance pin: kernel work is a function of the pages the
    // paced sessions turn — four events per page at every population,
    // every armed timer fired, and no wake ever finds nothing to do.
    for p in points {
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
    minos_bench::main("E15", "BENCH_sched.json", &["wall_us"], measure, doc, pins, benches);
}

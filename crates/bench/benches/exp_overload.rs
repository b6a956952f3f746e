//! Experiment E14 — goodput and audio tail latency under offered overload,
//! with and without admission control.
//!
//! N concurrent browsing sessions (session 0 audio-class) each pull 8
//! pages of 8 KB from the optical server over one shared 10 Mbit/s
//! Ethernet link, and every demand page tows three speculative
//! prefetches — a 4x offered load once the session count outruns the
//! device. The admitted run uses the default [`ServiceConfig`] caps
//! (per-connection and global bounds, prefetch-first shedding, `Busy`
//! rejections with a retry hint); the unbounded run queues everything.
//!
//! The claim under test: admission control sheds *speculation only* —
//! every demand page still completes, the queue high-water mark stays
//! under the configured cap, and the audio-class p99 stays bounded while
//! the unbounded baseline's tail grows with everything queued ahead of it.
//!
//! Each run is a config of the one workload driver, `workload::run`. Both
//! clocks are recorded: each point carries the wall-clock time its two
//! runs took (`wall_us`).
//!
//! The bench prints the series document and writes it as
//! `BENCH_overload.json` at the repository root, in the full run and
//! under `--series`. `--smoke` runs the acceptance pin on the measured
//! 48-session point — the admitted run sheds prefetch without a single
//! demand rejection and beats the unbounded audio p99, the unbounded
//! backlog outgrows the global cap, and no `Busy` retry fires before its
//! hint — and checks the fresh series against the committed file, every
//! line but `wall_us`; it is hooked into `scripts/check.sh`.

use criterion::{criterion_group, BenchmarkId, Criterion};
use minos_bench::{fast_criterion, point, row, timed, Json};
use minos_presentation::workload::{self, RunReport, WorkloadConfig};
use minos_server::ServiceConfig;
use std::time::Duration;

const PAGES: usize = 8;
const PAGE_LEN: u64 = 8192;

/// The E14 load axis: concurrent session counts.
const SESSIONS: [usize; 5] = [1, 4, 16, 48, 64];

/// The pinned operating point of the smoke's acceptance asserts.
const SMOKE_SESSIONS: usize = 48;

/// The E14 config of the one workload driver: one member, session 0
/// audio-class, window 2, three prefetches per demand page, under
/// `service`.
fn run(sessions: usize, service: ServiceConfig) -> RunReport {
    workload::run(WorkloadConfig {
        audio_sessions: 1,
        prefetch_per_page: 3,
        service,
        ..WorkloadConfig::new(sessions, PAGES, PAGE_LEN)
    })
    .expect("workload runs")
}

/// One measured point of the series: both disciplines at one session
/// count, plus the wall-clock cost of simulating them.
struct Point {
    sessions: usize,
    admitted: RunReport,
    unbounded: RunReport,
    wall: Duration,
}

fn measure() -> Vec<Point> {
    SESSIONS
        .iter()
        .map(|&sessions| {
            let ((admitted, unbounded), wall) = timed(|| {
                (run(sessions, ServiceConfig::default()), run(sessions, ServiceConfig::unbounded()))
            });
            Point { sessions, admitted, unbounded, wall }
        })
        .collect()
}

fn doc(points: &[Point]) -> Json {
    let entry = |p: &Point| {
        let (adm, unb) = (&p.admitted, &p.unbounded);
        Json::Obj(vec![
            ("sessions", p.sessions.into()),
            ("wall_us", p.wall.as_micros().into()),
            ("admitted_goodput_pages_per_sec", Json::fixed(adm.goodput_pages_per_sec(), 4)),
            ("unbounded_goodput_pages_per_sec", Json::fixed(unb.goodput_pages_per_sec(), 4)),
            ("admitted_audio_p99_us", adm.audio_p99.as_micros().into()),
            ("unbounded_audio_p99_us", unb.audio_p99.as_micros().into()),
            ("admitted_shed", adm.shed.into()),
            ("admitted_busy_rejections", adm.busy_rejections.into()),
            ("admitted_queue_high_water", adm.queue_high_water.into()),
            ("unbounded_queue_high_water", unb.queue_high_water.into()),
            ("admitted_allocs_per_page", Json::fixed(adm.allocations_per_page(), 4)),
            ("unbounded_allocs_per_page", Json::fixed(unb.allocations_per_page(), 4)),
        ])
    };
    let workload = format!(
        "N sessions x {PAGES} x {PAGE_LEN} B pages, 3 prefetches per demand page, session 0 \
         audio-class, 10 Mbit/s Ethernet, optical server"
    );
    Json::Obj(vec![
        ("experiment", "E14".into()),
        ("workload", workload.into()),
        ("per_conn_cap", ServiceConfig::DEFAULT_PER_CONN_CAP.into()),
        ("global_cap", ServiceConfig::DEFAULT_GLOBAL_CAP.into()),
        ("series", Json::Arr(points.iter().map(entry).collect())),
    ])
}

fn pins(points: &[Point]) {
    let p = point(points, "48-session", |p| p.sessions == SMOKE_SESSIONS);
    let (admitted, unbounded) = (&p.admitted, &p.unbounded);
    row(
        "E14",
        &format!(
            "smoke: {SMOKE_SESSIONS} sessions  admitted {:.1} pg/s p99 {:.2} ms (shed {})  \
             unbounded {:.1} pg/s p99 {:.2} ms (high water {})",
            admitted.goodput_pages_per_sec(),
            admitted.audio_p99.as_micros() as f64 / 1_000.0,
            admitted.shed,
            unbounded.goodput_pages_per_sec(),
            unbounded.audio_p99.as_micros() as f64 / 1_000.0,
            unbounded.queue_high_water,
        ),
    );
    // The acceptance pin: under the 4x offered load the shed policy turns
    // away speculation only — full demand goodput, zero demand/audio
    // rejections, the queue bounded by its cap — and the audio-class tail
    // beats the unbounded baseline's collapse.
    let want = (SMOKE_SESSIONS * PAGES) as u64;
    assert_eq!(admitted.pages, want, "every demand page completed: {admitted:?}");
    assert_eq!(unbounded.pages, want, "unbounded baseline also completes: {unbounded:?}");
    assert!(admitted.shed > 0, "overload actually shed prefetch: {admitted:?}");
    assert_eq!(admitted.busy_rejections, 0, "demand and audio never turned away: {admitted:?}");
    assert!(
        admitted.queue_high_water <= ServiceConfig::DEFAULT_GLOBAL_CAP as u64,
        "queue bounded by the global cap: {admitted:?}"
    );
    assert!(
        unbounded.queue_high_water > ServiceConfig::DEFAULT_GLOBAL_CAP as u64,
        "without the caps the backlog outgrows them: {unbounded:?}"
    );
    // Every `Busy` retry waited out the server's hint.
    assert_eq!(admitted.premature_busy_retries, 0, "{admitted:?}");
    assert_eq!(unbounded.premature_busy_retries, 0, "{unbounded:?}");
    assert!(
        admitted.audio_p99 < unbounded.audio_p99,
        "audio p99 {:?} (admitted) must beat {:?} (unbounded)",
        admitted.audio_p99,
        unbounded.audio_p99
    );
    // The pooled-buffer pin: demand pages and the surviving speculative
    // fan-out all ride recycled buffers, so fresh payload allocations stay
    // at or under one per demand page even at 4x offered load.
    row(
        "E14",
        &format!(
            "smoke: admitted alloc/page {:.3} ({} allocs / {} pages)",
            admitted.allocations_per_page(),
            admitted.payload_allocs,
            admitted.pages
        ),
    );
    assert!(
        admitted.allocations_per_page() <= 1.0,
        "pooled buffers hold allocations at or under one per demand page: {:.3}",
        admitted.allocations_per_page()
    );
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_overload");
    for (label, config) in
        [("admitted", ServiceConfig::default()), ("unbounded", ServiceConfig::unbounded())]
    {
        group.bench_with_input(BenchmarkId::new(label, SMOKE_SESSIONS), &config, |b, cfg| {
            b.iter(|| run(SMOKE_SESSIONS, *cfg))
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
    minos_bench::main("E14", "BENCH_overload.json", &["wall_us"], measure, doc, pins, benches);
}

//! Experiment E16 — aggregate goodput of a sharded object-server fleet,
//! and page survival across a mid-run member restart.
//!
//! M concurrent sessions each demand-page an object through one shared
//! 10 Mbit/s Ethernet link against a fleet of N object servers. Objects
//! are placed by rendezvous hashing (swept unreplicated and 2-way
//! replicated), and each object's pages spread across its replica set in
//! contiguous blocks — so every member's device works in parallel behind
//! the one wire without costing the optical head its seek locality.
//!
//! Every run is a configuration of the one workload driver,
//! `workload::run`: an empty failure schedule, no hedging, no scrub. The claims under test: aggregate goodput scales near-linearly
//! in N while the devices are the bottleneck (the N=1 -> N=4 ratio at
//! M=64 is pinned at >= 3x) and flattens once the shared link saturates
//! (N=8), and no run beats the wire (`pages x` one page response's
//! transfer time `<= elapsed`); and a 2-way-replicated fleet survives one
//! member restarting mid-run — every demand page delivered
//! byte-identical, the work the old incarnation lost replayed onto
//! sibling replicas, and no `Busy` resubmission leaving before its hint.
//!
//! Both clocks are recorded: each row carries the wall-clock time its
//! `workload::run` took (`wall_us`), which includes building the fleet
//! and publishing every object onto the members' optical archives.
//!
//! The bench prints the series document and writes it as
//! `BENCH_fleet.json` at the repository root, in the full run and under
//! `--series`. `--smoke` runs the acceptance pins on the measured rows and
//! checks the fresh series against the committed file, every line but the
//! host-dependent `wall_us`; it is hooked into `scripts/check.sh`.

use criterion::{criterion_group, BenchmarkId, Criterion};
use minos_bench::{fast_criterion, point, row, timed, Json};
use minos_net::{Frame, Link, ServerResponse};
use minos_presentation::chaos::ChaosSchedule;
use minos_presentation::workload::{self, RunReport, WorkloadConfig};
use minos_types::{SimDuration, SimInstant};
use std::time::Duration;

const PAGES: usize = 8;
const PAGE_LEN: u64 = 32768;

/// The E16 fleet-size axis.
const MEMBERS: [usize; 4] = [1, 2, 4, 8];

/// The E16 concurrency axis.
const SESSIONS: [usize; 3] = [16, 64, 256];

/// The concurrency of the pinned scaling ratio and of the restart row.
const SMOKE_SESSIONS: usize = 64;

/// Leading sessions per run that page at audio priority and are
/// latency-tracked for the audio p99 column.
const AUDIO_SESSIONS: usize = 8;

/// The member the restart row restarts.
const RESTARTED: usize = 1;

/// When the restart row restarts it: about a quarter of the way into the
/// 28 s healthy run, with requests queued on every device.
const RESTART_AT: SimDuration = SimDuration::from_secs(7);

fn run(members: usize, replication: usize, sessions: usize, schedule: ChaosSchedule) -> RunReport {
    workload::run(WorkloadConfig {
        members,
        replication,
        audio_sessions: AUDIO_SESSIONS,
        schedule,
        heartbeat: Some(SimDuration::from_millis(5)),
        ..WorkloadConfig::new(sessions, PAGES, PAGE_LEN)
    })
    .expect("workload runs")
}

/// A healthy run: no failure declared.
fn healthy(members: usize, replication: usize, sessions: usize) -> RunReport {
    run(members, replication, sessions, ChaosSchedule::new(0))
}

/// The wire time of one page response: no run can deliver its pages
/// faster than the shared downlink carries them.
fn page_wire_time() -> SimDuration {
    let page = Frame::response(1, 1, ServerResponse::Span(vec![0; PAGE_LEN as usize]));
    Link::ethernet().transfer_cost(page.wire_size())
}

/// One measured point of the series: the report plus the wall-clock cost
/// of producing it.
struct Point {
    members: usize,
    replication: usize,
    sessions: usize,
    report: RunReport,
    wall: Duration,
}

/// Runs one row and times it on the wall clock.
fn sample(members: usize, replication: usize, sessions: usize, schedule: ChaosSchedule) -> Point {
    let (report, wall) = timed(|| run(members, replication, sessions, schedule));
    Point { members, replication, sessions, report, wall }
}

/// The scaling sweep runs unreplicated (each member holds only its
/// rendezvous share, so its optical head stays in a compact span); the
/// multi-member fleets are then re-measured 2-way replicated at each
/// concurrency to price the redundancy — every member holds more objects,
/// so every access seeks farther. Then the restart row: one member of a
/// 4-member, 2-way-replicated fleet restarts bare (no crash first) at
/// [`RESTART_AT`], losing its queues and every response its device had
/// not finished.
fn measure() -> (Vec<Point>, Point) {
    let mut points = Vec::with_capacity(2 * MEMBERS.len() * SESSIONS.len());
    for &members in &MEMBERS {
        for replication in [1, 2] {
            if replication > members {
                continue;
            }
            for &sessions in &SESSIONS {
                points.push(sample(members, replication, sessions, ChaosSchedule::new(0)));
            }
        }
    }
    let schedule = ChaosSchedule::new(0).restart_at(RESTARTED, SimInstant::EPOCH + RESTART_AT);
    (points, sample(4, 2, SMOKE_SESSIONS, schedule))
}

fn doc((points, restart): &(Vec<Point>, Point)) -> Json {
    let entry = |p: &Point| {
        let r = &p.report;
        Json::Obj(vec![
            ("members", p.members.into()),
            ("replication", p.replication.into()),
            ("sessions", p.sessions.into()),
            ("goodput_pages_per_sec", Json::fixed(r.goodput_pages_per_sec(), 4)),
            ("elapsed_us", r.elapsed.as_micros().into()),
            ("audio_p99_us", r.audio_p99.as_micros().into()),
            ("busy_deferred", r.busy_deferred.into()),
            (
                "served_per_member",
                Json::Arr(r.served_per_member.iter().map(|&s| s.into()).collect()),
            ),
            ("wall_us", p.wall.as_micros().into()),
        ])
    };
    let r = &restart.report;
    let workload = format!(
        "M sessions x {PAGES} x {PAGE_LEN} B demand pages, rendezvous placement, k in (1, 2) \
         copies per object, one shared 10 Mbit/s Ethernet, optical devices"
    );
    Json::Obj(vec![
        ("experiment", "E16".into()),
        ("workload", workload.into()),
        ("series", Json::Arr(points.iter().map(entry).collect())),
        (
            "restart",
            Json::Obj(vec![
                ("members", restart.members.into()),
                ("replication", restart.replication.into()),
                ("sessions", restart.sessions.into()),
                ("restarted_member", RESTARTED.into()),
                ("pages", r.pages.into()),
                ("failovers", r.failovers.into()),
                ("epoch_resyncs", r.epoch_resyncs.into()),
                ("replays", r.replays.into()),
                ("busy_deferred", r.busy_deferred.into()),
                ("premature_busy_retries", r.premature_busy_retries.into()),
                ("wall_us", restart.wall.as_micros().into()),
            ]),
        ),
    ])
}

fn pins((points, restart): &(Vec<Point>, Point)) {
    let at_m = |shape: (usize, usize, usize)| {
        let what = format!("N={} k={} M={}", shape.0, shape.1, shape.2);
        &point(points, &what, |p| (p.members, p.replication, p.sessions) == shape).report
    };
    let (solo, quad) = (at_m((1, 1, SMOKE_SESSIONS)), at_m((4, 2, SMOKE_SESSIONS)));
    let ratio = quad.goodput_pages_per_sec() / solo.goodput_pages_per_sec();
    row(
        "E16",
        &format!(
            "smoke: {SMOKE_SESSIONS} sessions  N=1 {:.1} pg/s  N=4 k=2 {:.1} pg/s  ratio {:.2}",
            solo.goodput_pages_per_sec(),
            quad.goodput_pages_per_sec(),
            ratio
        ),
    );
    // The scaling pin: four members' devices behind one wire — objects
    // 2-way replicated, pages block-spread across each replica set —
    // deliver at least 3x the aggregate goodput of one member, at the
    // same concurrency.
    assert!(ratio >= 3.0, "N=1 -> N=4 goodput ratio {ratio:.2} fell below the 3x pin");
    // The wire pin: every page crossed the one shared downlink, so no
    // run can finish sooner than its pages' back-to-back transfer time.
    let wire = page_wire_time();
    for p in points {
        let floor = wire.as_micros() * p.report.pages;
        assert!(
            floor <= p.report.elapsed.as_micros(),
            "N={} k={} M={}: {} pages need {floor} us of wire, run took {:?}",
            p.members,
            p.replication,
            p.sessions,
            p.report.pages,
            p.report.elapsed
        );
        assert_eq!(p.report.pages, (p.sessions * PAGES) as u64, "every page delivered");
    }
    // The failover pin: one member of the replicated fleet restarts
    // mid-run and every demand page still lands byte-identical (the
    // driver verifies bytes inline), with the work its old incarnation
    // lost replayed onto sibling replicas and no hint-violating
    // resubmission.
    let r = &restart.report;
    row(
        "E16",
        &format!(
            "smoke: restart row pages {} failovers {} resyncs {} replays {} premature {}",
            r.pages, r.failovers, r.epoch_resyncs, r.replays, r.premature_busy_retries
        ),
    );
    assert_eq!(r.pages, (SMOKE_SESSIONS * PAGES) as u64, "no page lost to the restart: {r:?}");
    assert!(r.epoch_resyncs >= 1, "the restart was noticed: {r:?}");
    assert!(r.failovers > 0, "orphans re-aimed at siblings: {r:?}");
    assert!(r.replays > 0, "the lost work was replayed: {r:?}");
    assert_eq!(r.premature_busy_retries, 0, "no resubmission beat its retry hint: {r:?}");
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_fleet");
    for members in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("members", members), &members, |b, &members| {
            b.iter(|| healthy(members, members.min(2), SMOKE_SESSIONS))
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
    minos_bench::main("E16", "BENCH_fleet.json", &["wall_us"], measure, doc, pins, benches);
}

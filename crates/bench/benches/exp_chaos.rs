//! Experiment E17 — the self-healing fleet under a chaos schedule.
//!
//! The E16 demand-page workload — the same driver, `workload::run` —
//! runs against a 4-member, 2-way-replicated
//! fleet while a declarative, seeded failure schedule replays against it:
//! one member crashes mid-run and stays down, a second member turns gray
//! (every charge multiplied) for a long window, and a third member's
//! optical media decays at 2% latent bit rot per read. The self-healing
//! machinery — kernel-timer heartbeats feeding the health monitor,
//! proactive re-replication onto ring successors, scrub with read-repair
//! against publish-time CRCs, and hedged audio reads around the gray
//! member — has to absorb all of it.
//!
//! The pins (`--smoke`, hooked into `scripts/check.sh`): zero lost pages
//! (every page delivered byte-identical — the driver verifies bytes
//! inline), replication restored to k before run end, zero corrupt pages
//! after the final sweep, zero hint-violating Busy resubmissions, and
//! hedged audio p99 no worse than twice the healthy-fleet baseline. Every
//! declared fault must be seen to fire in both chaos rows: the crash is
//! detected, the gray member is flagged `Slow`, and the rot flips bits
//! that scrub or read-repair then find.
//!
//! Both clocks are recorded: each row carries the wall-clock time its run
//! took (`wall_us`).
//!
//! The bench prints the three measured rows (healthy, chaos hedged, chaos
//! unhedged) as one document and writes it as `BENCH_chaos.json` at the
//! repository root, in the full run and under `--series`; `--smoke` runs
//! the pins on those rows and checks them against the committed file,
//! every line but `wall_us`.

use criterion::{criterion_group, Criterion};
use minos_bench::{fast_criterion, row, timed, Json};
use minos_presentation::chaos::ChaosSchedule;
use minos_presentation::fleet::rendezvous_order;
use minos_presentation::workload::{self, RunReport, WorkloadConfig};
use minos_types::{ObjectId, SimDuration, SimInstant};
use std::time::Duration;

const MEMBERS: usize = 4;
const REPLICATION: usize = 2;
const SESSIONS: usize = 8;
const AUDIO_SESSIONS: usize = 4;
const PAGES: usize = 8;
const PAGE_LEN: u64 = 32768;
const SEED: u64 = 0xC8A0_5E17;

/// The latent decay rate on the rotting member: 2% per read. Rot is
/// drawn once per device read, and the rotting member serves a few
/// hundred reads a run, so this rate flips a handful of bits — enough
/// that scrub and read-repair must find them.
const ROT_PPM: u32 = 20_000;

/// The three afflicted members, derived from the same rendezvous
/// placement the fleet uses so every failure actually lands on a member
/// with work: the gray member holds the second replica of the first
/// audio session's object (it serves that session's later pages, so
/// hedges have something to race); the crash falls on a member that
/// shares no object with it, so no object loses both copies at once (k=2
/// masks one fault per object, and a gray sole survivor leaves a hedge
/// nothing to race); the rot falls on a third member.
fn afflicted() -> (usize, usize, usize) {
    let replicas =
        |s: usize| rendezvous_order(ObjectId::new(s as u64 + 1), MEMBERS)[..REPLICATION].to_vec();
    let slow = replicas(0)[1];
    let shares =
        |m: usize| (0..SESSIONS).any(|s| replicas(s).contains(&m) && replicas(s).contains(&slow));
    let crash = (0..MEMBERS)
        .find(|&m| m != slow && !shares(m))
        .expect("some member shares no object with the gray member");
    let rot =
        (0..MEMBERS).find(|&m| m != slow && m != crash).expect("fleet has more than two members");
    (slow, crash, rot)
}

/// The E17 schedule: one member crashes mid-run and never returns (the
/// repair queue owes its copies to the survivors), a second turns gray at
/// 8x from shortly after the health baseline warms until far past run
/// end, and a third member's media rots quietly the whole time.
fn chaos_schedule() -> ChaosSchedule {
    let ms = |t: u64| SimInstant::EPOCH + SimDuration::from_millis(t);
    let (slow, crash, rot) = afflicted();
    ChaosSchedule::new(SEED)
        .crash_at(crash, ms(40))
        .slow_between(slow, ms(25), ms(100_000), 8)
        .bit_rot(rot, ROT_PPM)
}

fn run(schedule: ChaosSchedule, hedge: Option<SimDuration>) -> RunReport {
    workload::run(WorkloadConfig {
        members: MEMBERS,
        replication: REPLICATION,
        audio_sessions: AUDIO_SESSIONS,
        schedule,
        hedge_delay: hedge,
        heartbeat: Some(SimDuration::from_millis(5)),
        scrub_interval: Some(SimDuration::from_millis(25)),
        ..WorkloadConfig::new(SESSIONS, PAGES, PAGE_LEN)
    })
    .expect("chaos workload runs")
}

/// The hedge delay: fire the speculative duplicate once the original has
/// been owed noticeably longer than a healthy wire round trip.
const HEDGE_DELAY: SimDuration = SimDuration::from_millis(20);

fn healthy() -> RunReport {
    run(ChaosSchedule::new(SEED), None)
}

fn chaos_hedged() -> RunReport {
    run(chaos_schedule(), Some(HEDGE_DELAY))
}

fn chaos_unhedged() -> RunReport {
    run(chaos_schedule(), None)
}

/// The names of the three measured rows, in [`measure`] order.
const ROWS: [&str; 3] = ["healthy", "chaos_hedged", "chaos_unhedged"];

/// The three measured rows, each with the wall-clock cost of producing it.
fn measure() -> [(RunReport, Duration); 3] {
    [timed(healthy), timed(chaos_hedged), timed(chaos_unhedged)]
}

fn doc(rows: &[(RunReport, Duration); 3]) -> Json {
    let entry = |(r, wall): &(RunReport, Duration)| {
        Json::Obj(vec![
            ("pages", r.pages.into()),
            ("lost_pages", r.lost_pages.into()),
            ("elapsed_us", r.elapsed.as_micros().into()),
            ("wall_us", wall.as_micros().into()),
            ("audio_p99_us", r.audio_p99.as_micros().into()),
            ("hedges_fired", r.hedges_fired.into()),
            ("hedge_wins", r.hedge_wins.into()),
            ("duplicates_suppressed", r.duplicates_suppressed.into()),
            ("down_transitions", r.down_transitions.into()),
            ("slow_transitions", r.slow_transitions.into()),
            ("replays", r.replays.into()),
            ("repairs_completed", r.repairs_completed.into()),
            ("repair_bytes", r.repair_bytes.into()),
            ("scrub_pages", r.scrub_pages.into()),
            ("scrub_detected", r.scrub_detected.into()),
            ("scrub_heals", r.scrub_heals.into()),
            ("read_repairs", r.read_repairs.into()),
            ("bit_rot_flips", r.bit_rot_flips.into()),
            ("final_corrupt_pages", r.final_corrupt_pages.into()),
            ("premature_busy_retries", r.premature_busy_retries.into()),
            ("replication_ok", r.replication_ok.into()),
        ])
    };
    let workload = format!(
        "{SESSIONS} sessions x {PAGES} x {PAGE_LEN} B demand pages, {MEMBERS} members \
         k={REPLICATION}, one mid-run crash, one 8x gray member, {ROT_PPM} ppm latent bit rot, \
         heartbeat health monitor, proactive re-replication, scrub + read-repair, hedged audio reads"
    );
    Json::Obj(vec![
        ("experiment", "E17".into()),
        ("workload", workload.into()),
        ("rows", Json::Obj(ROWS.into_iter().zip(rows.iter().map(entry)).collect())),
    ])
}

fn pins(rows: &[(RunReport, Duration); 3]) {
    let [(base, _), (hedged, _), (unhedged, _)] = rows;
    let want = (SESSIONS * PAGES) as u64;
    for (name, r) in [("healthy", base), ("hedged", hedged), ("unhedged", unhedged)] {
        // The byte-identity pin: the harness verifies every delivered page
        // against the published pattern and its stored CRC inline, so a
        // complete run IS a byte-identical run.
        assert_eq!(r.pages, want, "{name}: every page delivered: {r:?}");
        assert_eq!(r.lost_pages, 0, "{name}: zero lost pages: {r:?}");
        assert_eq!(
            r.final_corrupt_pages, 0,
            "{name}: the final sweep healed every rotten page: {r:?}"
        );
        assert_eq!(r.premature_busy_retries, 0, "{name}: no resubmission beat its hint: {r:?}");
        assert!(r.replication_ok, "{name}: replication restored to k on live members: {r:?}");
    }
    // The declared faults fired, in both chaos rows: the crash was
    // detected and every copy the dead member held was rebuilt onto a
    // ring successor, the gray member was flagged, and the rot flipped
    // bits that scrub or read-repair found.
    for (name, r) in [("hedged", hedged), ("unhedged", unhedged)] {
        assert!(r.down_transitions >= 1, "{name}: the crash was detected: {r:?}");
        assert!(r.repairs_completed >= 1, "{name}: lost copies were re-replicated: {r:?}");
        assert!(r.slow_transitions >= 1, "{name}: the gray member was flagged: {r:?}");
        assert!(r.bit_rot_flips >= 1, "{name}: the rot flipped a bit: {r:?}");
        assert!(
            r.scrub_detected + r.read_repairs >= 1,
            "{name}: scrub or read-repair found the rot: {r:?}"
        );
    }
    // The hedge path actually exercised: audio pages aimed at the gray
    // member raced a speculative duplicate.
    assert!(hedged.hedges_fired >= 1, "hedges fired against the gray member: {hedged:?}");
    assert_eq!(unhedged.hedges_fired, 0, "hedging off means no hedges: {unhedged:?}");
    // The hedge pin: with one member gray at 8x, hedged audio p99 stays
    // within 2x of the healthy fleet's.
    let ratio = hedged.audio_p99.as_micros() as f64 / base.audio_p99.as_micros().max(1) as f64;
    row(
        "E17",
        &format!(
            "smoke: audio_p99 healthy {:.1} ms  hedged {:.1} ms  unhedged {:.1} ms  ratio {ratio:.2}",
            base.audio_p99.as_micros() as f64 / 1_000.0,
            hedged.audio_p99.as_micros() as f64 / 1_000.0,
            unhedged.audio_p99.as_micros() as f64 / 1_000.0,
        ),
    );
    assert!(
        ratio <= 2.0,
        "hedged audio p99 {ratio:.2}x exceeded the 2x-of-healthy pin: {hedged:?} vs {base:?}"
    );
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e17_chaos");
    group.bench_function("chaos_hedged", |b| b.iter(chaos_hedged));
    group.finish();
}

criterion_group! {
    name = benches;
    config = fast_criterion();
    targets = bench
}

fn main() {
    minos_bench::main("E17", "BENCH_chaos.json", &["wall_us"], measure, doc, pins, benches);
}

//! Integration pins for experiment E17: the self-healing fleet.
//!
//! Four 10-seed sweeps over the fleet driver, each pinning one healing
//! loop end to end. Byte identity is implicit in every assertion on
//! `pages`: the driver verifies each delivered page against the
//! published pattern and its stored CRC inline and errors on the first
//! foreign byte, so a run that reports all pages delivered IS a run
//! where every page came back byte-identical. Test builds keep the
//! driver's `debug_assert!`s on, so every sweep also checks its three
//! invariants: a closed loop, one wire, and nothing landing from a dead
//! incarnation.

use minos::presentation::fleet::rendezvous_order;
use minos::presentation::workload::{self, RunReport, WorkloadConfig};
use minos::presentation::ChaosSchedule;
use minos::types::{ObjectId, SimDuration, SimInstant};

const MEMBERS: usize = 4;
const REPLICATION: usize = 2;
const SESSIONS: usize = 6;
const AUDIO_SESSIONS: usize = 2;
const PAGES: usize = 6;
const PAGE_LEN: u64 = 8192;

fn ms(t: u64) -> SimInstant {
    SimInstant::EPOCH + SimDuration::from_millis(t)
}

fn run(schedule: ChaosSchedule) -> RunReport {
    workload::run(WorkloadConfig {
        members: MEMBERS,
        replication: REPLICATION,
        audio_sessions: AUDIO_SESSIONS,
        schedule,
        heartbeat: Some(SimDuration::from_millis(5)),
        scrub_interval: Some(SimDuration::from_millis(25)),
        ..WorkloadConfig::new(SESSIONS, PAGES, PAGE_LEN)
    })
    .expect("chaos workload runs")
}

/// The copies the victim holds under the same rendezvous placement the
/// fleet publishes with: one object per session, primary-first order.
fn copies_held(victim: usize) -> u64 {
    (0..SESSIONS)
        .filter(|&s| {
            rendezvous_order(ObjectId::new(s as u64 + 1), MEMBERS)
                .into_iter()
                .take(REPLICATION)
                .any(|m| m == victim)
        })
        .count() as u64
}

#[test]
fn crash_repair_restores_replication_to_k_for_every_object() {
    for seed in 0..10u64 {
        let victim = (seed as usize) % MEMBERS;
        let report = run(ChaosSchedule::new(seed).crash_at(victim, ms(40)));
        let want = (SESSIONS * PAGES) as u64;
        assert_eq!(report.pages, want, "seed {seed}: every page delivered: {report:?}");
        assert_eq!(report.lost_pages, 0, "seed {seed}: zero lost pages: {report:?}");
        assert!(report.down_transitions >= 1, "seed {seed}: crash undetected: {report:?}");
        // The property check: the repair queue owes exactly one rebuild
        // per copy the dead member held, and afterwards every object is
        // back at k distinct live holders.
        assert_eq!(
            report.repairs_completed,
            copies_held(victim),
            "seed {seed}: one repair per lost copy: {report:?}"
        );
        assert!(report.replication_ok, "seed {seed}: replication restored to k: {report:?}");
        assert_eq!(report.premature_busy_retries, 0, "seed {seed}: hint violated: {report:?}");
    }
}

#[test]
fn bare_restart_replays_the_work_its_old_incarnation_lost() {
    for seed in 0..10u64 {
        let victim = (seed as usize) % MEMBERS;
        // No crash first: the member restarts in place, mid-run, with
        // requests queued and in service on its device.
        let report = run(ChaosSchedule::new(seed).restart_at(victim, ms(100)));
        let want = (SESSIONS * PAGES) as u64;
        assert_eq!(report.pages, want, "seed {seed}: every page delivered: {report:?}");
        assert_eq!(report.lost_pages, 0, "seed {seed}: zero lost pages: {report:?}");
        assert!(report.epoch_resyncs >= 1, "seed {seed}: the restart was noticed: {report:?}");
        // The restart dropped the responses its device had not finished;
        // each such page was sent again, not left owed forever.
        assert!(report.replays >= 1, "seed {seed}: the lost work was replayed: {report:?}");
        assert_eq!(report.down_transitions, 0, "seed {seed}: a restart is not a death: {report:?}");
        assert!(report.replication_ok, "seed {seed}: replication intact: {report:?}");
        assert_eq!(report.premature_busy_retries, 0, "seed {seed}: hint violated: {report:?}");
    }
}

#[test]
fn partition_heals_without_duplicate_side_effects() {
    for seed in 0..10u64 {
        let victim = (seed as usize) % MEMBERS;
        let report = run(ChaosSchedule::new(seed).partition_between(victim, ms(30), ms(90)));
        let want = (SESSIONS * PAGES) as u64;
        // Exactly `want` pages delivered — a partition that replayed or
        // hedged work across the cut must not double-deliver a page.
        assert_eq!(report.pages, want, "seed {seed}: pages delivered once each: {report:?}");
        assert_eq!(report.lost_pages, 0, "seed {seed}: zero lost pages: {report:?}");
        assert!(
            report.down_transitions >= 1,
            "seed {seed}: the partition was detected: {report:?}"
        );
        // The member rejoins when the window closes, so the end state
        // must hold k live copies of everything with no residue.
        assert!(report.replication_ok, "seed {seed}: replication intact after heal: {report:?}");
        assert_eq!(report.final_corrupt_pages, 0, "seed {seed}: no corrupt residue: {report:?}");
        assert_eq!(report.premature_busy_retries, 0, "seed {seed}: hint violated: {report:?}");
    }
}

#[test]
fn scrub_detects_and_heals_every_injected_bit_flip() {
    for seed in 0..10u64 {
        let rotten = (seed as usize) % MEMBERS;
        // Half of all reads on the rotten member flip a stored bit; the
        // scrub walk and demand-read CRC checks have to find all of it.
        let report = run(ChaosSchedule::new(seed).bit_rot(rotten, 500_000));
        let want = (SESSIONS * PAGES) as u64;
        assert_eq!(report.pages, want, "seed {seed}: every page delivered: {report:?}");
        assert_eq!(report.lost_pages, 0, "seed {seed}: zero lost pages: {report:?}");
        assert!(report.bit_rot_flips >= 1, "seed {seed}: the rot never bit: {report:?}");
        assert!(
            report.scrub_detected + report.read_repairs >= 1,
            "seed {seed}: corruption went unnoticed: {report:?}"
        );
        // 100% detection: the final sweep re-reads every page on every
        // member with rot frozen, so a single missed flip shows up here.
        assert_eq!(
            report.final_corrupt_pages, 0,
            "seed {seed}: a flip survived scrub + read-repair: {report:?}"
        );
        assert!(report.replication_ok, "seed {seed}: replication intact: {report:?}");
    }
}

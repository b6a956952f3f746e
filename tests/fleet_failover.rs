//! Integration pin for experiment E16: replica failover under chaos.
//!
//! The acceptance bar for the fleet work: a 3-member fleet with 2-way
//! replication, driven over a chaotic link (corruption, drops, and
//! duplicates at 3 %), must survive one member restarting mid-stream —
//! every demand page delivered byte-identical, the epoch resync and its
//! replays accounted, no deferred resubmission leaving before its `Busy`
//! hint, and no wedge — across a 10-seed sweep.

use minos::net::{FaultPlan, Link, ServerResponse};
use minos::presentation::{Fleet, FleetConnection};
use minos::types::{ByteSpan, ObjectId};

const MEMBERS: usize = 3;
const REPLICATION: usize = 2;
const PAGES: usize = 24;
const PAGE_LEN: u64 = 4096;
const WINDOW: usize = 8;
const CHAOS_RATE: f64 = 0.03;

/// The published byte pattern, distinct per object so a page sliced from
/// the wrong replica offset can never verify.
fn pattern(object: u64, offset: u64) -> u8 {
    ((offset * 7 + object * 31) % 251) as u8
}

/// Publishes one object per session, streams `PAGES` demand pages through
/// a window of `WINDOW` with a restart of `victim` halfway, and verifies
/// every byte. Returns the connection for accounting assertions.
fn run_seed(seed: u64, victim: usize) -> FleetConnection {
    let mut fleet = Fleet::new(MEMBERS, REPLICATION).expect("valid fleet shape");
    let object = ObjectId::new(seed + 1);
    let body: Vec<u8> = (0..PAGES as u64 * PAGE_LEN).map(|i| pattern(object.raw(), i)).collect();
    fleet.publish_bytes(object, &body).expect("publish");
    let mut conn = FleetConnection::with_faults(
        fleet,
        Link::ethernet(),
        WINDOW,
        FaultPlan::chaos(seed, CHAOS_RATE),
    );
    let mut tickets = Vec::with_capacity(PAGES);
    let mut restarted = false;
    for page in 0..PAGES {
        if page == PAGES / 2 && !restarted {
            // Mid-stream crash: half the stream is submitted (and partly
            // in flight); the victim's volatile queues are gone and its
            // epoch bumps. The next touch of the connection must
            // re-handshake and replay onto the sibling replicas.
            conn.fleet_mut().restart_member(victim).expect("victim exists");
            restarted = true;
        }
        let rel = ByteSpan::at(page as u64 * PAGE_LEN, PAGE_LEN);
        tickets.push((conn.fetch_page(object, rel).expect("submit"), page));
    }
    for (ticket, page) in tickets {
        let (response, _) = conn.wait(ticket).expect("collect");
        let ServerResponse::Span(bytes) = response else {
            panic!("seed {seed}: page {page} came back {response:?}");
        };
        let from = page as u64 * PAGE_LEN;
        assert_eq!(bytes.len() as u64, PAGE_LEN, "seed {seed}: page {page} truncated");
        for (i, &b) in bytes.iter().enumerate() {
            assert_eq!(
                b,
                pattern(object.raw(), from + i as u64),
                "seed {seed}: page {page} corrupt at offset {i}"
            );
        }
        conn.recycle_payload(bytes);
    }
    conn
}

#[test]
fn replicated_pages_survive_a_mid_stream_restart_under_chaos() {
    for seed in 0..10u64 {
        let victim = (seed as usize) % MEMBERS;
        let conn = run_seed(seed, victim);
        let transport = conn.transport_stats();
        assert!(
            transport.epoch_resyncs >= 1,
            "seed {seed}: the restart must be noticed: {transport:?}"
        );
        assert_eq!(
            transport.premature_busy_retries, 0,
            "seed {seed}: a deferred resubmission left before its hint"
        );
        // The fault plan really bit: chaos at 3% over ~24 round trips
        // leaves visible scars on at least some seeds, and replays only
        // happen when the restart actually orphaned in-flight frames.
        let scars =
            transport.corrupt_frames + transport.duplicates + transport.retries + transport.replays;
        assert!(scars > 0, "seed {seed}: chaos plan left no trace: {transport:?}");
    }
}

#[test]
fn failover_retargets_replays_onto_sibling_replicas() {
    // Sweep the victim over every member: whichever members hold the
    // object's replicas, some seed restarts one of them with frames in
    // flight, and those frames replay onto the sibling (a failover).
    let mut total_replays = 0u64;
    let mut total_failovers = 0u64;
    for seed in 0..10u64 {
        let conn = run_seed(seed, (seed as usize) % MEMBERS);
        let transport = conn.transport_stats();
        total_replays += transport.replays;
        total_failovers += transport.failovers;
    }
    assert!(total_replays >= 1, "no seed replayed an orphaned frame");
    assert!(total_failovers >= 1, "no replay ever changed target");
}

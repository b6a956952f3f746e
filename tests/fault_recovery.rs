//! Integration pin for experiment E13: recovery on a faulty link.
//!
//! The acceptance bar from the transport-hardening work: at 1 % frame
//! corruption the pipelined transport must retry its way to completion —
//! every page byte-identical, nothing abandoned — while keeping at least
//! 80 % of its fault-free throughput. The blocking discipline pays a full
//! timeout per loss, which is exactly the degradation the pipeline hides.

use minos::corpus;
use minos::corpus::objects::archived_form;
use minos::net::{FaultPlan, Link, ServerRequest, ServerResponse};
use minos::presentation::{
    simulate_faulty_page_workload, Backend, Client, Connection, Fleet, FleetConnection,
};
use minos::server::ObjectServer;
use minos::types::{ByteSpan, ObjectId, SimDuration, SimInstant};

const PAGES: usize = 48;
const PAGE_LEN: u64 = 8192;
const WINDOW: usize = 8;
const SEED: u64 = 1986;

#[test]
fn pipelined_goodput_survives_one_percent_corruption() {
    let clean = simulate_faulty_page_workload(PAGES, PAGE_LEN, WINDOW, FaultPlan::none()).unwrap();
    let faulty =
        simulate_faulty_page_workload(PAGES, PAGE_LEN, WINDOW, FaultPlan::corrupting(SEED, 0.01))
            .unwrap();
    // Byte-identity is verified inside the workload: a page that comes back
    // different is counted as failed, so pages == PAGES and failed == 0 is
    // the full correctness claim.
    assert_eq!(faulty.pages, PAGES as u64, "every page recovered");
    assert_eq!(faulty.failed, 0, "no request exhausted its retries");
    assert!(
        faulty.transport.corrupt_frames > 0 && faulty.transport.retries > 0,
        "the plan really exercised recovery: {:?}",
        faulty.transport
    );
    let ratio = faulty.pages_per_sec() / clean.pages_per_sec();
    assert!(ratio >= 0.8, "goodput ratio {ratio:.3} at 1% corruption fell below the 0.8 pin");
}

#[test]
fn blocking_transport_pays_the_timeouts_the_pipeline_hides() {
    let corrupt = FaultPlan::corrupting(SEED, 0.01);
    let blocking = simulate_faulty_page_workload(PAGES, PAGE_LEN, 1, corrupt).unwrap();
    let pipelined = simulate_faulty_page_workload(PAGES, PAGE_LEN, WINDOW, corrupt).unwrap();
    let blocking_clean =
        simulate_faulty_page_workload(PAGES, PAGE_LEN, 1, FaultPlan::none()).unwrap();
    // Both disciplines still recover everything…
    assert_eq!(blocking.pages, PAGES as u64);
    assert_eq!(blocking.failed, 0);
    // …but each blocking loss stalls the whole stream for a deadline,
    // while pipelined deadlines expire behind earlier waits.
    assert!(
        blocking.elapsed > blocking_clean.elapsed,
        "blocking under faults ({:?}) should be slower than clean ({:?})",
        blocking.elapsed,
        blocking_clean.elapsed
    );
    assert!(
        pipelined.elapsed < blocking.elapsed,
        "pipelined recovery ({:?}) should beat blocking recovery ({:?})",
        pipelined.elapsed,
        blocking.elapsed
    );
}

/// A server with one queryable object, for driving a raw [`Connection`].
fn query_server() -> ObjectServer {
    let mut server = ObjectServer::new();
    let report = corpus::medical_report(ObjectId::new(1), 42);
    let archived = archived_form(&report);
    server.publish(report, &archived).unwrap();
    server
}

#[test]
fn idle_connection_retransmits_at_its_deadline() {
    // A response lost on an otherwise-idle connection: nothing ever calls
    // wait(), so before the timer wheel the loss sat undiscovered until
    // the next collection. Driving the connection with advance_to() must
    // fire the retransmit deadline at the deadline — and only then. Both
    // clients run the one recovery core, so a single server and a
    // one-member, unreplicated fleet must expire identically.
    let timeout = SimDuration::from_millis(500);
    let plan = FaultPlan::dropping(7, 1.0);
    let mut conn = Connection::with_faults(query_server(), Link::ethernet(), 4, plan)
        .with_recovery(timeout, 2);
    let ticket = conn.submit(ServerRequest::Query { keywords: vec!["shadow".into()] });
    expires_at_its_deadlines(conn, ticket, timeout);

    let mut fleet = Fleet::new(1, 1).unwrap();
    let object = ObjectId::new(1);
    fleet.publish_bytes(object, &[7u8; 4096]).unwrap();
    let mut conn =
        FleetConnection::with_faults(fleet, Link::ethernet(), 4, plan).with_recovery(timeout, 2);
    let ticket = conn.fetch_page(object, ByteSpan::at(0, 4096)).unwrap();
    expires_at_its_deadlines(conn, ticket, timeout);
}

/// Drives a client whose every frame is dropped from its one submission
/// to the request's expiry, checking each deadline fires on time.
fn expires_at_its_deadlines<B: Backend>(
    mut conn: Client<B>,
    ticket: B::Ticket,
    timeout: SimDuration,
) {
    // Just short of the deadline: armed, but nothing fires.
    conn.advance_to(SimInstant::EPOCH + SimDuration::from_millis(499));
    assert_eq!(conn.transport_stats().timeouts, 0, "no deadline may fire early");
    assert!(conn.kernel_stats().timers_armed >= 1);

    // At the deadline the wheel wakes the slot: one timeout, one
    // retransmit, a fresh (backed-off) deadline armed.
    conn.advance_to(SimInstant::EPOCH + timeout);
    let after_first = conn.transport_stats();
    assert_eq!(after_first.timeouts, 1, "the deadline fired exactly at 500ms");
    assert_eq!(after_first.retries, 1, "the loss was retransmitted, not expired");

    // Every retransmit is dropped too; driving far enough exhausts the
    // retry budget and the request expires with a typed inline error.
    conn.advance_to(SimInstant::EPOCH + SimDuration::from_secs(30));
    let exhausted = conn.transport_stats();
    assert_eq!(exhausted.timeouts, 3, "initial send + 2 retries all timed out");
    assert_eq!(exhausted.retries, 2, "the retry budget was spent");
    let stats = conn.kernel_stats();
    assert!(stats.events_fired >= 3, "each deadline fired through the wheel: {stats:?}");
    let (response, _) = conn.wait(ticket).unwrap();
    assert!(
        matches!(response, ServerResponse::Error(_)),
        "the expired request surfaces as a typed error, not a hang: {response:?}"
    );
}

#[test]
fn queries_retry_through_a_corrupting_link() {
    let mut conn = Connection::with_faults(
        query_server(),
        Link::ethernet(),
        4,
        FaultPlan::corrupting(9, 0.15),
    );
    for _ in 0..12 {
        let ticket = conn.submit(ServerRequest::Query { keywords: vec!["shadow".into()] });
        let (response, _) = conn.wait(ticket).unwrap();
        assert_eq!(response, ServerResponse::Hits(vec![ObjectId::new(1)]));
    }
    let stats = conn.transport_stats();
    assert!(
        stats.corrupt_frames > 0 && stats.retries > 0,
        "the faulty link really forced recovery work: {stats:?}"
    );
}

#[test]
fn a_rotten_page_is_not_delivered_as_valid_over_a_lossy_link() {
    // Member 0's media flips bits on every read. Over a faulty link the
    // sender's trailer is composed from each page's publish-time CRC, so
    // a rotten page fails the client's check like wire damage and is
    // fetched again from the sibling copy, instead of arriving with a
    // trailer that vouches for whatever the device returned.
    const ROT_PAGES: usize = 16;
    const ROT_PAGE_LEN: usize = 4096;
    let object = ObjectId::new(1);
    let body: Vec<u8> = (0..ROT_PAGES * ROT_PAGE_LEN).map(|i| (i * 7 % 251) as u8).collect();
    let mut fleet = Fleet::new(2, 2).unwrap();
    fleet.publish_paged(object, &body, ROT_PAGE_LEN as u64).unwrap();
    fleet.member_mut(0).unwrap().archiver_mut().device_mut().set_bit_rot(7, 1.0);
    let plan = FaultPlan::dropping(SEED, 0.01);
    let mut conn = FleetConnection::with_faults(fleet, Link::ethernet(), WINDOW, plan);
    let tickets: Vec<_> = (0..ROT_PAGES)
        .map(|page| {
            let rel = ByteSpan::at((page * ROT_PAGE_LEN) as u64, ROT_PAGE_LEN as u64);
            (page, conn.fetch_page(object, rel).unwrap())
        })
        .collect();
    for (page, ticket) in tickets {
        let (response, _) = conn.wait(ticket).unwrap();
        let ServerResponse::Span(bytes) = response else {
            panic!("page {page}: unexpected {response:?}");
        };
        let want = &body[page * ROT_PAGE_LEN..][..ROT_PAGE_LEN];
        assert!(bytes == want, "page {page} came back with different bytes");
    }
    let transport = conn.transport_stats();
    assert!(transport.corrupt_frames > 0, "rotten pages must fail the check: {transport:?}");
    assert!(transport.failovers > 0, "and be fetched from the sibling: {transport:?}");
}

//! End-to-end check of anticipatory read-ahead (§5).
//!
//! A 1 MB record is read as sixteen 64 KB pages over the Ethernet link and
//! the optical-disk model, with a fixed per-page dwell, through
//! `prefetch::read_ahead` on one `Client`. The experiment's acceptance
//! claims are pinned here deterministically:
//!
//! * stall time strictly decreases from depth 0 to 1 to 2 (and depth 4
//!   stalls no more than depth 2), and the opening wait falls with depth;
//! * a window that never drains needs fewer round trips;
//! * the E11 table (opening, stall, round trips and coalesced device
//!   reads per depth) holds to the microsecond;
//! * every page's bytes are identical at every depth.

use minos::net::{Link, ServerRequest, ServerResponse};
use minos::presentation::prefetch::{page_spans, read_ahead, ReadAhead};
use minos::presentation::Client;
use minos::server::ObjectServer;
use minos::types::{ByteSpan, ObjectId, SimDuration};

const RECORD_LEN: usize = 1 << 20;
const PAGES: usize = 16;
const DWELL: SimDuration = SimDuration::from_millis(320);

fn client() -> (Client, ByteSpan) {
    let mut server = ObjectServer::new();
    let data: Vec<u8> = (0..RECORD_LEN).map(|i| (i % 251) as u8).collect();
    let (record, _) = server.archiver_mut().store(ObjectId::new(1), &data).unwrap();
    (Client::new(server, Link::ethernet()), record.span)
}

fn plan(span: ByteSpan, pages: usize) -> Vec<ServerRequest> {
    page_spans(span, pages).into_iter().map(|span| ServerRequest::FetchSpan { span }).collect()
}

/// Plays the whole presentation at `depth`, checking every page's bytes,
/// and returns the waits and the client.
fn play(depth: usize) -> (ReadAhead, Client) {
    let (mut client, span) = client();
    let plan = plan(span, PAGES);
    let mut presented = 0;
    let waits = read_ahead(&mut client, &plan, depth, DWELL, |_, i, response| {
        assert_page_bytes(i, &plan[i], &response);
        presented += 1;
    })
    .unwrap();
    assert_eq!(presented, PAGES, "depth {depth}");
    (waits, client)
}

fn assert_page_bytes(i: usize, need: &ServerRequest, response: &ServerResponse) {
    let ServerRequest::FetchSpan { span } = need else { panic!("page plan is spans") };
    let ServerResponse::Span(bytes) = response else {
        panic!("unexpected response at page {i}: {response:?}");
    };
    let expect: Vec<u8> = (span.start..span.end).map(|b| (b as usize % 251) as u8).collect();
    assert_eq!(bytes, &expect, "page {i} content");
}

#[test]
fn stall_strictly_decreases_with_depth() {
    let (s0, _) = play(0);
    let (s1, _) = play(1);
    let (s2, _) = play(2);
    let (s4, _) = play(4);
    assert!(s0.stall > s1.stall, "depth 0 {} vs depth 1 {}", s0.stall, s1.stall);
    assert!(s1.stall > s2.stall, "depth 1 {} vs depth 2 {}", s1.stall, s2.stall);
    assert!(s4.stall <= s2.stall, "depth 4 {} vs depth 2 {}", s4.stall, s2.stall);
    // The user waits for the first page only, never for the whole window,
    // and a deeper burst reads that page in a longer coalesced run.
    assert!(
        s0.opening > s1.opening && s1.opening > s2.opening && s2.opening > s4.opening,
        "openings {} / {} / {} / {}",
        s0.opening,
        s1.opening,
        s2.opening,
        s4.opening
    );
}

#[test]
fn batching_needs_fewer_round_trips() {
    let t = [0, 1, 2, 4].map(|depth| play(depth).1.round_trips());
    // Depth 0: one round trip per page.
    assert_eq!(t[0], PAGES as u64);
    // From depth 2 the window never drains, so the client never goes idle.
    assert!(t[1] < t[0] && t[2] < t[1] && t[3] <= t[2], "round trips {t:?}");
    assert_eq!(t[2], 1);
}

#[test]
fn sequential_prefetch_wastes_nothing() {
    for depth in [0, 1, 2, 4] {
        let (_, client) = play(depth);
        // Each page was fetched exactly once, and nothing is left on the
        // wire when the presentation ends.
        assert_eq!(client.endpoint().service_stats().served, PAGES as u64, "depth {depth}");
        assert_eq!(client.in_flight(), 0, "depth {depth}");
    }
}

#[test]
fn adjacent_pages_coalesce_into_one_device_read() {
    // Serial: four adjacent page fetches cost a request and a response
    // message each — eight messages on the wire.
    let (mut serial, span) = client();
    for need in plan(span, 4) {
        let response = serial.request(&need).unwrap();
        assert!(matches!(response, ServerResponse::Span(_)));
    }
    assert_eq!(serial.link_stats().messages, 8, "serial: one round trip per page");

    // Pipelined: the four requests queue at the server together, which
    // coalesces the adjacent spans into one device read; each page still
    // comes back in its own response message, with identical content.
    let (mut pipelined, span) = client();
    let plan = plan(span, 4);
    let responses = pipelined.request_batch(plan.clone()).unwrap();
    for (i, (need, response)) in plan.iter().zip(&responses).enumerate() {
        assert_page_bytes(i, need, response);
    }
    assert_eq!(pipelined.link_stats().messages, 8, "four requests up, four pages down");
    assert_eq!(pipelined.endpoint().service_stats().coalesced_runs, 1);
    assert!(
        pipelined.elapsed() < serial.elapsed(),
        "pipelined {} vs serial {}",
        pipelined.elapsed(),
        serial.elapsed()
    );
}

/// One E11 row: depth, opening and total stall in microseconds, round
/// trips, and the coalesced device reads the server made.
type E11Row = (usize, u64, u64, u64, u64);

/// E11 as EXPERIMENTS.md tabulates it, one row per depth.
const E11: [E11Row; 4] = [
    (0, 373_844, 5_604_030, 16, 0),
    (1, 346_222, 750_428, 15, 1),
    (2, 337_016, 0, 1, 1),
    (4, 329_652, 0, 1, 1),
];

#[test]
fn e11_table_is_pinned() {
    let table: Vec<E11Row> = E11
        .iter()
        .map(|&(depth, ..)| {
            let (waits, client) = play(depth);
            (
                depth,
                waits.opening.as_micros(),
                waits.stall.as_micros(),
                client.round_trips(),
                client.endpoint().service_stats().coalesced_runs,
            )
        })
        .collect();
    assert_eq!(table, E11);
}

//! End-to-end check of the anticipatory prefetch pipeline (§5).
//!
//! A 1 MB record is read as sixteen 64 KB pages over the Ethernet link and
//! the optical-disk model, with a fixed per-page dwell. The experiment's
//! acceptance claims are pinned here deterministically:
//!
//! * stall time strictly decreases from prefetch depth 0 to 1 to 2 (and
//!   depth 4 stalls no more than depth 2);
//! * batching strictly reduces round trips;
//! * the E11 table (opening, stall, round trips, hits, misses, prefetched
//!   resources and hidden fetch time per depth) holds to the microsecond;
//! * every page's bytes are identical at every depth — and identical even
//!   when the prediction plan is deliberately wrong.

use minos::net::{Link, ServerRequest, ServerResponse};
use minos::presentation::prefetch::{page_spans, PrefetchBuffer, PrefetchStats};
use minos::presentation::Client;
use minos::server::ObjectServer;
use minos::types::{ByteSpan, ObjectId, SimDuration};

const RECORD_LEN: usize = 1 << 20;
const PAGES: usize = 16;
const DWELL: SimDuration = SimDuration::from_millis(320);

fn pipeline(depth: usize) -> (PrefetchBuffer, ByteSpan) {
    let mut server = ObjectServer::new();
    let data: Vec<u8> = (0..RECORD_LEN).map(|i| (i % 251) as u8).collect();
    let (record, _) = server.archiver_mut().store(ObjectId::new(1), &data).unwrap();
    (PrefetchBuffer::new(Client::new(server, Link::ethernet()), depth), record.span)
}

/// Plays the whole presentation at `depth`, checking every page's bytes,
/// and returns (stats, round trips).
fn play(depth: usize) -> (PrefetchStats, u64) {
    let (mut pipe, span) = pipeline(depth);
    let plan: Vec<ServerRequest> =
        page_spans(span, PAGES).into_iter().map(|span| ServerRequest::FetchSpan { span }).collect();
    pipe.prime(&plan).unwrap();
    for (i, need) in plan.iter().enumerate() {
        let (response, _) = pipe.step(need, &plan[i + 1..], DWELL).unwrap();
        assert_page_bytes(i, need, &response);
    }
    (pipe.stats(), pipe.client().round_trips())
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
    // Anticipation trades a longer opening fetch for continuity.
    assert!(s4.opening > s0.opening);
}

#[test]
fn batching_needs_fewer_round_trips() {
    let (_, t0) = play(0);
    let (_, t1) = play(1);
    let (_, t2) = play(2);
    let (_, t4) = play(4);
    // Depth 0: one priming trip plus one demand trip per remaining page.
    assert_eq!(t0, PAGES as u64);
    assert!(t1 <= t0 && t2 < t1 && t4 < t2, "round trips {t0} / {t1} / {t2} / {t4}");
}

#[test]
fn sequential_prefetch_wastes_nothing() {
    for depth in [0, 1, 2, 4] {
        let (stats, _) = play(depth);
        assert_eq!(stats.hits + stats.misses, PAGES as u64, "depth {depth}");
        if depth == 0 {
            // No lookahead: only the primed first page hits.
            assert_eq!(stats.misses, PAGES as u64 - 1);
        } else {
            assert_eq!(stats.misses, 0, "depth {depth}: every page was anticipated");
        }
        assert_eq!(stats.wasted(), 0, "depth {depth}");
    }
}

#[test]
fn adjacent_pages_coalesce_into_one_device_read() {
    // Serial: four adjacent page fetches cost a request and a response
    // message each — eight messages on the wire.
    let (mut serial, span) = pipeline(0);
    let spans = page_spans(span, 4);
    for s in &spans {
        let response = serial.client_mut().request(&ServerRequest::FetchSpan { span: *s }).unwrap();
        assert!(matches!(response, ServerResponse::Span(_)));
    }
    let serial_stats = serial.client().link_stats();
    assert_eq!(serial_stats.messages, 8, "serial: one round trip per page");

    // Pipelined: the four requests queue at the server together, which
    // coalesces the adjacent spans into one device read; each page still
    // comes back in its own response message, with identical content.
    let (mut pipelined, span) = pipeline(0);
    let plan: Vec<ServerRequest> =
        page_spans(span, 4).into_iter().map(|span| ServerRequest::FetchSpan { span }).collect();
    let responses = pipelined.client_mut().request_batch(plan.clone()).unwrap();
    for (i, (need, response)) in plan.iter().zip(&responses).enumerate() {
        assert_page_bytes(i, need, response);
    }
    let client = pipelined.client();
    assert_eq!(client.link_stats().messages, 8, "four requests up, four pages down");
    assert_eq!(client.endpoint().service_stats().coalesced_runs, 1);
    let serial_elapsed = serial.client().elapsed();
    assert!(
        client.elapsed() < serial_elapsed,
        "pipelined {} vs serial {serial_elapsed}",
        client.elapsed()
    );
}

/// One E11 row: depth, opening and total stall in microseconds, round
/// trips, hits and misses, then the resources fetched ahead of need and
/// the fetch time hidden behind dwell (µs).
type E11Row = (usize, u64, u64, u64, u64, u64, u64, u64);

/// E11 as EXPERIMENTS.md tabulates it, one row per depth.
const E11: [E11Row; 4] = [
    (0, 373_844, 5_604_030, 16, 1, 15, 1, 0),
    (1, 635_988, 696_826, 15, 16, 0, 16, 4_533_602),
    (2, 898_132, 0, 8, 16, 0, 16, 4_188_078),
    (4, 1_422_420, 0, 4, 16, 0, 16, 3_217_958),
];

#[test]
fn e11_table_is_pinned() {
    let table: Vec<E11Row> = E11
        .iter()
        .map(|&(depth, ..)| {
            let (stats, trips) = play(depth);
            (
                depth,
                stats.opening.as_micros(),
                stats.stall.as_micros(),
                trips,
                stats.hits,
                stats.misses,
                stats.prefetched,
                stats.overlap.as_micros(),
            )
        })
        .collect();
    assert_eq!(table, E11);
}

#[test]
fn wrong_plan_is_waste_never_wrong_content() {
    let (mut pipe, span) = pipeline(2);
    let truth = page_spans(span, PAGES);
    // Predict spans that will never be requested.
    let wrong: Vec<ServerRequest> = truth
        .iter()
        .map(|s| ServerRequest::FetchSpan { span: ByteSpan::at(s.start + 13, 64) })
        .collect();
    pipe.prime(&wrong).unwrap();
    for (i, span) in truth.iter().enumerate() {
        let need = ServerRequest::FetchSpan { span: *span };
        let (response, _) = pipe.step(&need, &wrong, DWELL).unwrap();
        assert_page_bytes(i, &need, &response);
    }
    let stats = pipe.stats();
    assert_eq!(stats.misses, PAGES as u64);
    assert_eq!(stats.hits, 0);
    assert!(stats.wasted() > 0);
}

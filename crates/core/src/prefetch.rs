//! Anticipatory prefetching — the §5 continuity machinery.
//!
//! "The multimedia object presentation manager tries to anticipate the
//! user's requests and prefetch the appropriate pieces of information."
//! Presentation positions are strong predictors: a reader's next text page,
//! a playback's next audio pages, the relevant objects whose indicators are
//! on screen. The caller turns its position into a plan of upcoming
//! requests ([`page_spans`] for page-sequential presentation), and
//! [`read_ahead`] presents that plan through a [`Client`]'s window,
//! keeping `depth` pages on the wire ahead of the one on screen. The
//! client's one clock and its three timelines (uplink, device, downlink)
//! are the whole overlap model: [`Client::wait`] charges only the fetch
//! time the dwell did not hide, and that residue is the stall — the
//! continuity metric, which shrinks as the depth grows. (A browsing
//! session hints its on-screen relevant objects through
//! [`ObjectStore::note_upcoming`](crate::session::ObjectStore::note_upcoming)
//! instead, which the scheduler's store turns into prefetch requests.)

use crate::transport::Client;
use minos_net::{ServerRequest, ServerResponse};
use minos_types::{ByteSpan, Result, SimDuration};
use std::collections::VecDeque;

/// Divides an archived record into `pages` contiguous spans — the transfer
/// plan for page-sequential presentation (text pages in reading order,
/// audio pages in play order). Consecutive spans tile the record exactly,
/// so a batch of them coalesces into one device read server-side.
pub fn page_spans(record: ByteSpan, pages: usize) -> Vec<ByteSpan> {
    assert!(pages > 0, "a record has at least one page");
    let base = record.len() / pages as u64;
    let remainder = record.len() % pages as u64;
    let mut start = record.start;
    (0..pages as u64)
        .map(|i| {
            // The first `remainder` pages carry one extra byte so the
            // spans tile the record without gaps.
            let size = base + u64::from(i < remainder);
            let span = ByteSpan::at(start, size);
            start += size;
            span
        })
        .collect()
}

/// What a read-ahead presentation made its user wait.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadAhead {
    /// The wait for the first page, before presentation starts.
    pub opening: SimDuration,
    /// The waits for every later page: fetch time the dwell on the pages
    /// before it could not hide.
    pub stall: SimDuration,
}

/// Presents `plan` in order on `client`, reading `depth` pages ahead.
///
/// The first page goes on the wire with the next `depth` as one burst.
/// Each page is then waited for on its own ticket, the window is topped
/// back up to `depth` tickets, and the page is handed to `present` (with
/// its index) and shown for `dwell` of client time, during which the
/// pages ahead travel. Server-side errors reach `present` as inline
/// [`ServerResponse::Error`] pages.
pub fn read_ahead(
    client: &mut Client,
    plan: &[ServerRequest],
    depth: usize,
    dwell: SimDuration,
    mut present: impl FnMut(&mut Client, usize, ServerResponse),
) -> Result<ReadAhead> {
    let mut ahead = plan.iter();
    let mut window: VecDeque<_> =
        ahead.by_ref().take(depth + 1).map(|request| client.submit_ref(request)).collect();
    let mut waits = ReadAhead::default();
    let mut page = 0;
    // A page with no ticket yet (every page after the first, at depth 0)
    // is fetched on demand.
    while let Some(ticket) =
        window.pop_front().or_else(|| ahead.next().map(|request| client.submit_ref(request)))
    {
        let (response, waited) = client.wait(ticket)?;
        if page == 0 {
            waits.opening = waited;
        } else {
            waits.stall += waited;
        }
        let missing = depth - window.len();
        window.extend(ahead.by_ref().take(missing).map(|request| client.submit_ref(request)));
        present(client, page, response);
        client.advance_to(client.kernel.now() + dwell);
        page += 1;
    }
    Ok(waits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::DEFAULT_WINDOW;
    use minos_net::Link;
    use minos_server::ObjectServer;
    use minos_types::ObjectId;

    /// A server whose archive holds one raw record of `len` patterned
    /// bytes, plus the record's span.
    fn blob_server(len: usize) -> (ObjectServer, ByteSpan) {
        let mut server = ObjectServer::new();
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let (record, _) = server.archiver_mut().store(ObjectId::new(9), &data).unwrap();
        (server, record.span)
    }

    fn plan(span: ByteSpan, pages: usize) -> Vec<ServerRequest> {
        page_spans(span, pages).into_iter().map(|span| ServerRequest::FetchSpan { span }).collect()
    }

    /// Checks that `response` holds exactly the bytes `need` asked for.
    fn assert_page(i: usize, need: &ServerRequest, response: &ServerResponse) {
        let ServerRequest::FetchSpan { span } = need else { unreachable!() };
        let ServerResponse::Span(bytes) = response else {
            panic!("unexpected response at page {i}: {response:?}");
        };
        let expect: Vec<u8> = (span.start..span.end).map(|b| (b as usize % 251) as u8).collect();
        assert_eq!(bytes, &expect, "page {i} content");
    }

    /// Presents a whole record on `client`, checking every page's bytes,
    /// and returns the waits and the client.
    fn present_all(
        mut client: Client,
        span: ByteSpan,
        pages: usize,
        depth: usize,
        dwell: SimDuration,
    ) -> (ReadAhead, Client) {
        let plan = plan(span, pages);
        let mut presented = 0;
        let waits = read_ahead(&mut client, &plan, depth, dwell, |_, i, response| {
            assert_page(i, &plan[i], &response);
            presented += 1;
        })
        .unwrap();
        assert_eq!(presented, pages, "depth {depth}: every page presented once");
        (waits, client)
    }

    fn run_pages(
        depth: usize,
        record_len: usize,
        pages: usize,
        dwell: SimDuration,
    ) -> (ReadAhead, u64) {
        let (server, span) = blob_server(record_len);
        let (waits, client) =
            present_all(Client::new(server, Link::ethernet()), span, pages, depth, dwell);
        (waits, client.round_trips())
    }

    #[test]
    fn page_spans_tile_the_record() {
        let record = ByteSpan::at(1_000, 10_007);
        let pages = page_spans(record, 16);
        assert_eq!(pages.len(), 16);
        assert_eq!(pages[0].start, record.start);
        assert_eq!(pages.last().unwrap().end, record.end);
        for pair in pages.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "pages must be adjacent");
        }
        let total: u64 = pages.iter().map(|p| p.len()).sum();
        assert_eq!(total, record.len());
    }

    #[test]
    fn read_ahead_serves_identical_bytes_at_any_depth() {
        for depth in [0, 1, 3, 8] {
            run_pages(depth, 65_536, 8, SimDuration::from_millis(50));
        }
    }

    #[test]
    fn deeper_read_ahead_strictly_reduces_stall() {
        // 32 KB pages over Ethernet + optical disk, with a dwell close to
        // the per-page transfer time: the per-round-trip overhead (link
        // latency + optical seek and rotation) is what depth hides.
        let dwell = SimDuration::from_millis(160);
        let (s0, t0) = run_pages(0, 262_144, 8, dwell);
        let (s1, t1) = run_pages(1, 262_144, 8, dwell);
        let (s2, t2) = run_pages(2, 262_144, 8, dwell);
        assert!(s0.stall > s1.stall, "depth 0 {} vs depth 1 {}", s0.stall, s1.stall);
        assert!(s1.stall > s2.stall, "depth 1 {} vs depth 2 {}", s1.stall, s2.stall);
        // A window that never drains needs fewer round trips.
        assert!(t1 < t0 && t2 < t1, "round trips {t0} / {t1} / {t2}");
    }

    #[test]
    fn the_first_wait_is_the_opening_not_stall() {
        let dwell = SimDuration::from_millis(100);
        let (waits, _) = run_pages(2, 65_536, 8, dwell);
        assert!(waits.opening > SimDuration::ZERO);
        // Two 8 KB pages ahead always land within two dwells.
        assert_eq!(waits.stall, SimDuration::ZERO);
    }

    #[test]
    fn faulty_link_read_ahead_serves_byte_identical_pages() {
        // Read-ahead over a corrupting link: lost frames are retransmitted
        // underneath, and every page the user sees is still byte-identical
        // — degradation costs time, never content.
        let (server, span) = blob_server(65_536);
        let client = Client::with_faults(
            server,
            Link::ethernet(),
            DEFAULT_WINDOW,
            minos_net::FaultPlan::corrupting(77, 0.2),
        );
        let (_, client) = present_all(client, span, 8, 2, SimDuration::from_millis(50));
        let transport = client.transport_stats();
        assert!(
            transport.corrupt_frames > 0 && transport.retries > 0,
            "the faults were really exercised: {transport:?}"
        );
    }

    #[test]
    fn recycled_pages_keep_the_transport_pool_warm() {
        // The same presentation run twice: once dropping consumed pages on
        // the floor, once handing them back to the transport pool. The
        // recycling run must allocate strictly less and serve leases from
        // recycled buffers.
        let run = |recycle: bool| {
            let (server, span) = blob_server(65_536);
            let mut client = Client::new(server, Link::ethernet());
            let plan = plan(span, 16);
            let dwell = SimDuration::from_millis(50);
            read_ahead(&mut client, &plan, 3, dwell, |client, _, response| {
                if let (true, ServerResponse::Span(bytes)) = (recycle, response) {
                    client.recycle_payload(bytes);
                }
            })
            .unwrap();
            // The server leases span payloads from the pool it shares with
            // the connection; both sides' leases count.
            let mut leases = client.endpoint().service_stats().clone();
            let transport = client.transport_stats();
            leases.pool_hits += transport.pool_hits;
            leases.payload_allocs += transport.payload_allocs;
            leases
        };
        let dropped = run(false);
        let recycled = run(true);
        assert!(dropped.payload_allocs > 0, "read-ahead leases from the pool: {dropped:?}");
        assert!(
            recycled.payload_allocs < dropped.payload_allocs,
            "recycling must cut fresh allocations: {recycled:?} vs {dropped:?}"
        );
        assert!(
            recycled.pool_hits > dropped.pool_hits,
            "recycling must raise pool hits: {recycled:?} vs {dropped:?}"
        );
    }
}

//! Anticipatory prefetching — the §5 continuity machinery.
//!
//! "The multimedia object presentation manager tries to anticipate the
//! user's requests and prefetch the appropriate pieces of information."
//! Presentation positions are strong predictors: a reader's next text page,
//! a playback's next audio pages, the relevant objects whose indicators are
//! on screen. The caller turns its position into a plan of upcoming
//! requests ([`page_spans`] for page-sequential presentation), and
//! [`PrefetchBuffer`] turns that plan into *one* pipelined round trip per
//! lookahead window over a [`Client`]. It primes the buffer at open,
//! issues a batch whenever the link is free, hides its cost behind the
//! user's dwell on the current material via
//! [`SimClock::advance_overlapped`], and accounts hits, misses, wasted
//! prefetches, opening latency, and stall. The continuity metric — stall
//! time — shrinks as the prefetch depth grows. (A browsing session hints
//! its on-screen relevant objects through
//! [`ObjectStore::note_upcoming`](crate::session::ObjectStore::note_upcoming)
//! instead, which the scheduler's store turns into prefetch requests.)
//!
//! A wrong prediction is only ever wasted transfer: presented content is
//! read through the same request/response types, so the bytes a step
//! returns are identical to an unpredicted demand fetch.

use crate::transport::{Client, Ticket};
use minos_net::{ServerRequest, ServerResponse};
use minos_types::{ByteSpan, Encoder, Result, SimClock, SimDuration, SimInstant};
use std::collections::HashMap;

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

/// Accounting for one prefetch pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Steps served from the prefetch buffer.
    pub hits: u64,
    /// Steps that demand-fetched because the prediction missed.
    pub misses: u64,
    /// Resources fetched ahead of need (priming included).
    pub prefetched: u64,
    /// Time the user waited before the first resource was ready.
    pub opening: SimDuration,
    /// Fetch time presentation could not hide — the continuity metric.
    pub stall: SimDuration,
    /// Fetch time hidden behind presentation dwell — the overlap the
    /// pipeline won. Every microsecond here would have been stall (or
    /// serial waiting) on the blocking path.
    pub overlap: SimDuration,
}

impl PrefetchStats {
    /// Prefetched resources never served: wrong predictions, plus whatever
    /// is still buffered when the session ends.
    pub fn wasted(&self) -> u64 {
        self.prefetched.saturating_sub(self.hits)
    }
}

/// The client-side prefetch pipeline over a workstation's [`Client`].
///
/// The simulation computes a batch's response synchronously, but its
/// *time* is charged like an asynchronous transfer: an issued batch is
/// "in flight" and each presentation dwell hides part of its cost; only
/// the unhidden remainder stalls the user when the batch's contents are
/// needed early. The pipeline's own clock is therefore the presentation
/// timeline (dwell + stall + opening), while the client's clock keeps
/// counting serial link and device busy time.
pub struct PrefetchBuffer {
    client: Client,
    /// Lookahead depth: resources fetched ahead of need. Depth 0 disables
    /// anticipation (every fetch after priming is a demand fetch).
    depth: usize,
    /// Landed responses awaiting their step, keyed by encoded request.
    buffer: HashMap<Vec<u8>, ServerResponse>,
    /// The issued-but-not-landed batch (single request channel).
    inflight: HashMap<Vec<u8>, ServerResponse>,
    /// Fetch time of the in-flight batch not yet hidden behind dwell.
    inflight_remaining: SimDuration,
    clock: SimClock,
    stats: PrefetchStats,
}

impl PrefetchBuffer {
    /// Wraps `client` with a pipeline of the given lookahead depth.
    pub fn new(client: Client, depth: usize) -> Self {
        PrefetchBuffer {
            client,
            depth,
            buffer: HashMap::new(),
            inflight: HashMap::new(),
            inflight_remaining: SimDuration::ZERO,
            clock: SimClock::new(),
            stats: PrefetchStats::default(),
        }
    }

    /// The wrapped client (round trips, bytes).
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// Mutable client access (endpoint setup, blocking requests).
    pub fn client_mut(&mut self) -> &mut Client {
        &mut self.client
    }

    /// Accounting so far.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }

    /// Presentation time elapsed: opening + dwells + stalls.
    pub fn elapsed(&self) -> SimDuration {
        self.clock.now().since(SimInstant::EPOCH)
    }

    /// Fills the buffer before presentation starts: fetches the first
    /// `depth + 1` plan entries (the opening resource plus the lookahead
    /// window) in one round trip, blocking the user for its duration. The
    /// return value is that opening latency — deliberately kept out of
    /// [`PrefetchStats::stall`], which measures interruptions of an
    /// *ongoing* presentation.
    pub fn prime(&mut self, plan: &[ServerRequest]) -> Result<SimDuration> {
        let window = self.uncovered(plan, self.depth + 1, None);
        if window.is_empty() {
            return Ok(SimDuration::ZERO);
        }
        let took = self.issue(window)?;
        self.land();
        self.stats.opening += took;
        self.clock.advance(took);
        Ok(took)
    }

    /// One presentation step: serve `need`, keep the pipeline full against
    /// `plan` (the resources expected *after* this one), and present for
    /// `dwell` — which hides an equal amount of in-flight fetch time.
    /// Returns the response and the stall this step inflicted on the user.
    pub fn step(
        &mut self,
        need: &ServerRequest,
        plan: &[ServerRequest],
        dwell: SimDuration,
    ) -> Result<(ServerResponse, SimDuration)> {
        let key = need.encode();
        let mut stall = SimDuration::ZERO;

        // Needed data still on the wire: the user waits out the rest of
        // the transfer.
        if !self.buffer.contains_key(&key) && self.inflight.contains_key(&key) {
            stall += self.wait_for_link();
        }
        let response = match self.buffer.remove(&key) {
            Some(response) => {
                self.stats.hits += 1;
                response
            }
            None => {
                // Demand miss: an unrelated in-flight batch occupies the
                // link first, then the needed resource costs a full
                // (unbatched) round trip.
                if !self.inflight.is_empty() {
                    stall += self.wait_for_link();
                }
                self.stats.misses += 1;
                let before = self.client.elapsed();
                let response = self.client.request(need)?;
                stall += self
                    .clock
                    .advance_overlapped(self.client.elapsed() - before, SimDuration::ZERO);
                response
            }
        };
        self.refill(plan, Some(&key))?;
        self.hide(dwell);
        self.stats.stall += stall;
        Ok((response, stall))
    }

    /// Issues the next prediction batch when the link is free, the buffer
    /// is below the lookahead cap, and the plan has unfetched entries.
    fn refill(&mut self, plan: &[ServerRequest], exclude: Option<&[u8]>) -> Result<()> {
        if self.depth == 0 || !self.inflight.is_empty() || self.buffer.len() > self.depth {
            return Ok(());
        }
        let window = self.uncovered(plan, self.depth, exclude);
        if window.is_empty() {
            return Ok(());
        }
        let took = self.issue(window)?;
        self.inflight_remaining = took;
        Ok(())
    }

    /// The first `limit` plan entries not already buffered or in flight,
    /// deduplicated, skipping the entry `exclude` (the resource being
    /// served right now). Entries are borrowed from the plan — nothing is
    /// cloned here — and coverage checks encode into one reused scratch
    /// buffer instead of allocating a key per plan entry; an entry
    /// actually selected takes the scratch buffer as its owned key.
    fn uncovered<'p>(
        &self,
        plan: &'p [ServerRequest],
        limit: usize,
        exclude: Option<&[u8]>,
    ) -> Vec<(Vec<u8>, &'p ServerRequest)> {
        let mut window: Vec<(Vec<u8>, &ServerRequest)> = Vec::new();
        let mut scratch = Vec::new();
        for request in plan {
            if window.len() >= limit {
                break;
            }
            let mut e = Encoder::reuse(std::mem::take(&mut scratch));
            request.encode_to(&mut e);
            scratch = e.finish();
            let covered = exclude == Some(scratch.as_slice())
                || self.buffer.contains_key(scratch.as_slice())
                || self.inflight.contains_key(scratch.as_slice())
                || window.iter().any(|(k, _)| k.as_slice() == scratch.as_slice());
            if !covered {
                // The admitted entry takes the scratch buffer outright;
                // the next iteration's encode starts from an empty vec
                // and grows it back. Only admissions cost an allocation.
                window.push((std::mem::take(&mut scratch), request));
            }
        }
        window
    }

    /// Submits one pipelined burst — every request goes on the wire before
    /// the first response is collected, so uplink, device, and downlink
    /// overlap — and parks the responses in flight. Per-item server errors
    /// are dropped here: an erroneous prediction must never be served, so
    /// it stays a counted waste and the real need falls back to a demand
    /// fetch.
    fn issue(&mut self, window: Vec<(Vec<u8>, &ServerRequest)>) -> Result<SimDuration> {
        self.stats.prefetched += window.len() as u64;
        let before = self.client.elapsed();
        let tickets: Vec<(Vec<u8>, Ticket)> = window
            .into_iter()
            .map(|(key, request)| (key, self.client.submit_ref(request)))
            .collect();
        for (key, ticket) in tickets {
            let (response, _) = self.client.wait(ticket)?;
            if !matches!(response, ServerResponse::Error(_)) {
                self.inflight.insert(key, response);
            }
        }
        Ok(self.client.elapsed() - before)
    }

    /// Waits out the in-flight batch (charged entirely as stall) and lands
    /// it.
    fn wait_for_link(&mut self) -> SimDuration {
        let stall = self.clock.advance_overlapped(self.inflight_remaining, SimDuration::ZERO);
        self.land();
        stall
    }

    /// Moves the in-flight batch into the buffer.
    fn land(&mut self) {
        self.buffer.extend(self.inflight.drain());
        self.inflight_remaining = SimDuration::ZERO;
    }

    /// Hands a consumed response's payload buffer back to the transport
    /// pool, so the next prefetched page refills it instead of allocating.
    /// Responses without a bulk payload are simply dropped.
    pub fn recycle_response(&mut self, response: ServerResponse) {
        match response {
            ServerResponse::Span(bytes)
            | ServerResponse::Object(bytes)
            | ServerResponse::View(bytes)
            | ServerResponse::Miniature(bytes) => {
                self.client.recycle_payload(bytes);
            }
            _ => {}
        }
    }

    /// Evicts everything still buffered or in flight — what a closing
    /// presentation leaves behind — recycling the payload buffers back to
    /// the transport pool. The entries stay counted as waste.
    pub fn evict_buffered(&mut self) {
        self.land();
        for (_, response) in self.buffer.drain().collect::<Vec<_>>() {
            self.recycle_response(response);
        }
    }

    /// Presents for `dwell`, hiding an equal share of in-flight fetch time.
    fn hide(&mut self, dwell: SimDuration) {
        let hidden = self.inflight_remaining.min(dwell);
        self.inflight_remaining = self.inflight_remaining - hidden;
        self.stats.overlap += hidden;
        // Never stalls: hidden ≤ dwell, so the clock moves by the dwell.
        self.clock.advance_overlapped(hidden, dwell);
        if self.inflight_remaining == SimDuration::ZERO {
            self.land();
        }
    }
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

    fn pipeline(depth: usize, record_len: usize) -> (PrefetchBuffer, ByteSpan) {
        let (server, span) = blob_server(record_len);
        (PrefetchBuffer::new(Client::new(server, Link::ethernet()), depth), span)
    }

    /// Runs a whole page-sequential presentation and returns its stats.
    fn run_pages(
        depth: usize,
        record_len: usize,
        pages: usize,
        dwell: SimDuration,
    ) -> (PrefetchStats, u64) {
        let (mut pipe, span) = pipeline(depth, record_len);
        let plan: Vec<ServerRequest> = page_spans(span, pages)
            .into_iter()
            .map(|span| ServerRequest::FetchSpan { span })
            .collect();
        pipe.prime(&plan).unwrap();
        for (i, need) in plan.iter().enumerate() {
            let (response, _) = pipe.step(need, &plan[i + 1..], dwell).unwrap();
            let ServerResponse::Span(bytes) = response else {
                panic!("unexpected response at page {i}");
            };
            let ServerRequest::FetchSpan { span } = need else { unreachable!() };
            let expect: Vec<u8> =
                (span.start..span.end).map(|b| (b as usize % 251) as u8).collect();
            assert_eq!(bytes, expect, "page {i} content");
        }
        let trips = pipe.client().round_trips();
        (pipe.stats(), trips)
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
    fn pipeline_serves_correct_bytes_at_any_depth() {
        for depth in [0, 1, 3] {
            let (stats, _) = run_pages(depth, 65_536, 8, SimDuration::from_millis(50));
            assert_eq!(stats.hits + stats.misses, 8, "depth {depth}");
        }
    }

    #[test]
    fn deeper_prefetch_strictly_reduces_stall() {
        // 32 KB pages over Ethernet + optical disk, with a dwell close to
        // the per-page transfer time: the per-round-trip overhead (link
        // latency + optical seek and rotation) is what depth amortizes.
        let dwell = SimDuration::from_millis(160);
        let (s0, t0) = run_pages(0, 262_144, 8, dwell);
        let (s1, t1) = run_pages(1, 262_144, 8, dwell);
        let (s2, t2) = run_pages(2, 262_144, 8, dwell);
        assert!(s0.stall > s1.stall, "depth 0 {} vs depth 1 {}", s0.stall, s1.stall);
        assert!(s1.stall > s2.stall, "depth 1 {} vs depth 2 {}", s1.stall, s2.stall);
        // Batching also strictly reduces round trips.
        assert!(t1 < t0 && t2 < t1, "round trips {t0} / {t1} / {t2}");
        // No wrong predictions in sequential reading: nothing wasted.
        assert_eq!(s2.wasted(), 0);
        assert_eq!(s2.misses, 0);
        // The stall reduction is overlap won: demand fetching hides
        // nothing, anticipation hides fetch time behind dwell. (Deeper
        // depths can report *less* total overlap than shallow ones —
        // coalescing shrinks the fetch time there is to hide.)
        assert_eq!(s0.overlap, SimDuration::ZERO);
        assert!(s1.overlap > SimDuration::ZERO);
        assert!(s2.overlap > SimDuration::ZERO);
    }

    #[test]
    fn wrong_predictions_never_change_content() {
        let (mut pipe, span) = pipeline(2, 65_536);
        let truth = page_spans(span, 8);
        // A plan pointing at entirely wrong offsets (shifted half a page).
        let wrong: Vec<ServerRequest> = truth
            .iter()
            .map(|s| ServerRequest::FetchSpan { span: ByteSpan::at(s.start + 11, 100) })
            .collect();
        pipe.prime(&wrong).unwrap();
        for (i, span) in truth.iter().enumerate() {
            let need = ServerRequest::FetchSpan { span: *span };
            let (response, _) = pipe.step(&need, &wrong, SimDuration::from_millis(50)).unwrap();
            let ServerResponse::Span(bytes) = response else {
                panic!("unexpected response at page {i}");
            };
            let expect: Vec<u8> =
                (span.start..span.end).map(|b| (b as usize % 251) as u8).collect();
            assert_eq!(bytes, expect, "page {i} must read through correctly");
        }
        let stats = pipe.stats();
        assert_eq!(stats.misses, 8, "every real page was a demand fetch");
        assert_eq!(stats.hits, 0);
        assert!(stats.wasted() > 0, "the wrong predictions are counted as waste");
    }

    #[test]
    fn erroneous_predictions_are_waste_not_content() {
        let (mut pipe, span) = pipeline(2, 65_536);
        // Predictions past the archive frontier fail server-side; the
        // pipeline must drop them rather than ever serving an error.
        let bogus = vec![
            ServerRequest::FetchSpan { span: ByteSpan::at(span.end + 1_000_000, 100) },
            ServerRequest::FetchSpan { span: ByteSpan::at(span.end + 2_000_000, 100) },
        ];
        pipe.prime(&bogus).unwrap();
        let need = ServerRequest::FetchSpan { span: ByteSpan::new(span.start, span.start + 16) };
        let (response, _) = pipe.step(&need, &bogus, SimDuration::ZERO).unwrap();
        assert!(matches!(response, ServerResponse::Span(b) if b.len() == 16));
        assert!(pipe.stats().wasted() >= 2);
    }

    #[test]
    fn faulty_link_pipeline_serves_byte_identical_pages() {
        // The whole anticipation pipeline over a corrupting link: lost
        // prefetch frames are retransmitted underneath (or dropped as
        // waste and demand-fetched), and every page the user sees is still
        // byte-identical — degradation costs time, never content.
        let (server, span) = blob_server(65_536);
        let client = Client::with_faults(
            server,
            Link::ethernet(),
            DEFAULT_WINDOW,
            minos_net::FaultPlan::corrupting(77, 0.2),
        );
        let mut pipe = PrefetchBuffer::new(client, 2);
        let plan: Vec<ServerRequest> =
            page_spans(span, 8).into_iter().map(|span| ServerRequest::FetchSpan { span }).collect();
        pipe.prime(&plan).unwrap();
        for (i, need) in plan.iter().enumerate() {
            let (response, _) =
                pipe.step(need, &plan[i + 1..], SimDuration::from_millis(50)).unwrap();
            let ServerResponse::Span(bytes) = response else {
                panic!("unexpected response at page {i}");
            };
            let ServerRequest::FetchSpan { span } = need else { unreachable!() };
            let expect: Vec<u8> =
                (span.start..span.end).map(|b| (b as usize % 251) as u8).collect();
            assert_eq!(bytes, expect, "page {i} byte-identical over the faulty link");
        }
        let stats = pipe.stats();
        assert_eq!(stats.hits + stats.misses, 8, "no page was skipped or aborted");
        let transport = pipe.client().transport_stats();
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
            let (mut pipe, span) = pipeline(3, 65_536);
            let plan: Vec<ServerRequest> = page_spans(span, 16)
                .into_iter()
                .map(|span| ServerRequest::FetchSpan { span })
                .collect();
            pipe.prime(&plan).unwrap();
            for (i, need) in plan.iter().enumerate() {
                let (response, _) =
                    pipe.step(need, &plan[i + 1..], SimDuration::from_millis(50)).unwrap();
                if recycle {
                    pipe.recycle_response(response);
                }
            }
            pipe.evict_buffered();
            // The server leases span payloads from the pool it shares with
            // the connection; both sides' leases count.
            let client = pipe.client();
            let mut leases = client.endpoint().service_stats().clone();
            let transport = client.transport_stats();
            leases.pool_hits += transport.pool_hits;
            leases.payload_allocs += transport.payload_allocs;
            leases
        };
        let dropped = run(false);
        let recycled = run(true);
        assert!(dropped.payload_allocs > 0, "the pipeline leases from the pool: {dropped:?}");
        assert!(
            recycled.payload_allocs < dropped.payload_allocs,
            "recycling must cut fresh allocations: {recycled:?} vs {dropped:?}"
        );
        assert!(
            recycled.pool_hits > dropped.pool_hits,
            "recycling must raise pool hits: {recycled:?} vs {dropped:?}"
        );
    }

    #[test]
    fn prime_reports_opening_latency_not_stall() {
        let (mut pipe, span) = pipeline(2, 65_536);
        let plan: Vec<ServerRequest> =
            page_spans(span, 8).into_iter().map(|span| ServerRequest::FetchSpan { span }).collect();
        let opening = pipe.prime(&plan).unwrap();
        assert!(opening > SimDuration::ZERO);
        let stats = pipe.stats();
        assert_eq!(stats.opening, opening);
        assert_eq!(stats.stall, SimDuration::ZERO);
        // The first page is already resident.
        let (_, stall) = pipe.step(&plan[0], &plan[1..], SimDuration::from_millis(100)).unwrap();
        assert_eq!(stall, SimDuration::ZERO);
        assert_eq!(pipe.stats().hits, 1);
    }
}

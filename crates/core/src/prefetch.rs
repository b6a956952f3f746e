//! Anticipatory prefetching — the §5 continuity machinery.
//!
//! "The multimedia object presentation manager tries to anticipate the
//! user's requests and prefetch the appropriate pieces of information."
//! Presentation positions are strong predictors: a reader's next text page,
//! a playback's next audio pages, a tour's next stop, a roaming view's next
//! window, the relevant objects whose indicators are on screen. This module
//! turns those predictions into *one* pipelined round trip per lookahead
//! window and overlaps the transfer with the user's dwell on the current
//! material, so the continuity metric — stall time — shrinks as the
//! prefetch depth grows.
//!
//! Two pieces cooperate:
//!
//! * [`Prefetcher`] maps a presentation position to the next `depth`
//!   requests (the prediction policies).
//! * [`PrefetchBuffer`] is the client-side pipeline: it primes the buffer
//!   at open, issues prediction batches whenever the link is free, hides
//!   their cost behind presentation dwell via
//!   [`SimClock::advance_overlapped`], and accounts hits, misses, wasted
//!   prefetches, opening latency, and stall.
//!
//! A wrong prediction is only ever wasted transfer: presented content is
//! read through the same request/response types, so the bytes a step
//! returns are identical to an unpredicted demand fetch.

use crate::kernel::{Kernel, KernelEvent, KernelStats};
use crate::remote::Workstation;
use minos_image::view::MoveDirection;
use minos_image::View;
use minos_net::{ServerRequest, ServerResponse};
use minos_types::{ByteSpan, Encoder, ObjectId, Result, SimClock, SimDuration, SimInstant};
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

/// The prediction policies: given where the presentation is, what will the
/// user need next?
#[derive(Clone, Copy, Debug)]
pub struct Prefetcher {
    depth: usize,
}

impl Prefetcher {
    /// A prefetcher looking `depth` resources ahead. Depth 0 disables
    /// anticipation (every fetch is a demand fetch).
    pub fn new(depth: usize) -> Self {
        Prefetcher { depth }
    }

    /// The lookahead depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Sequential reading/playback: the next `depth` page spans after
    /// `current`.
    pub fn predict_pages(&self, pages: &[ByteSpan], current: usize) -> Vec<ServerRequest> {
        pages
            .iter()
            .skip(current + 1)
            .take(self.depth)
            .map(|&span| ServerRequest::FetchSpan { span })
            .collect()
    }

    /// Tour playing: the windows of the next `depth` stops.
    pub fn predict_tour(
        &self,
        object: ObjectId,
        image: usize,
        stop_views: &[minos_types::Rect],
        current: usize,
    ) -> Vec<ServerRequest> {
        stop_views
            .iter()
            .skip(current + 1)
            .take(self.depth)
            .map(|&rect| ServerRequest::FetchView { id: object, tag: image.to_string(), rect })
            .collect()
    }

    /// Roaming view: assume the user keeps moving in `direction` and
    /// predict the next `depth` windows, stopping early once the view pins
    /// at the image edge.
    pub fn predict_view(
        &self,
        object: ObjectId,
        image: usize,
        view: &View,
        direction: MoveDirection,
    ) -> Vec<ServerRequest> {
        let mut probe = *view;
        let mut out = Vec::new();
        for _ in 0..self.depth {
            if !probe.step(direction) {
                break;
            }
            out.push(ServerRequest::FetchView {
                id: object,
                tag: image.to_string(),
                rect: probe.rect(),
            });
        }
        out
    }

    /// Relevant-object anticipation: the visible indicator targets, in
    /// menu order.
    pub fn predict_relevant(&self, targets: &[ObjectId]) -> Vec<ServerRequest> {
        targets.iter().take(self.depth).map(|&id| ServerRequest::FetchObject { id }).collect()
    }
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

/// The client-side prefetch pipeline over a workstation.
///
/// The simulation computes a batch's response synchronously, but its
/// *time* is charged like an asynchronous transfer: an issued batch is
/// "in flight" and each presentation dwell hides part of its cost; only
/// the unhidden remainder stalls the user when the batch's contents are
/// needed early. The pipeline's own clock is therefore the presentation
/// timeline (dwell + stall + opening), while the wrapped workstation's
/// clock keeps counting serial link and device busy time.
pub struct PrefetchBuffer {
    ws: Workstation,
    prefetcher: Prefetcher,
    /// Landed responses awaiting their step, keyed by encoded request.
    buffer: HashMap<Vec<u8>, ServerResponse>,
    /// The issued-but-not-landed batch (single request channel).
    inflight: HashMap<Vec<u8>, ServerResponse>,
    /// Fetch time of the in-flight batch not yet hidden behind dwell.
    inflight_remaining: SimDuration,
    /// The event kernel anticipation rides on: every refill opportunity
    /// fires as a [`KernelEvent::PrefetchWindowOpen`] timer, so window
    /// openings (and the ones that found nothing to issue) are traced
    /// and counted like every other deadline in the system.
    kernel: Kernel,
    clock: SimClock,
    hits: u64,
    misses: u64,
    prefetched: u64,
    opening: SimDuration,
    stall: SimDuration,
    overlap: SimDuration,
}

impl PrefetchBuffer {
    /// Wraps `ws` with a pipeline of the given lookahead depth.
    pub fn new(ws: Workstation, depth: usize) -> Self {
        PrefetchBuffer {
            ws,
            prefetcher: Prefetcher::new(depth),
            buffer: HashMap::new(),
            inflight: HashMap::new(),
            inflight_remaining: SimDuration::ZERO,
            kernel: Kernel::new(),
            clock: SimClock::new(),
            hits: 0,
            misses: 0,
            prefetched: 0,
            opening: SimDuration::ZERO,
            stall: SimDuration::ZERO,
            overlap: SimDuration::ZERO,
        }
    }

    /// The wrapped workstation (round trips, bytes).
    pub fn workstation(&self) -> &Workstation {
        &self.ws
    }

    /// Mutable workstation access (endpoint setup).
    pub fn workstation_mut(&mut self) -> &mut Workstation {
        &mut self.ws
    }

    /// Accounting so far.
    pub fn stats(&self) -> PrefetchStats {
        PrefetchStats {
            hits: self.hits,
            misses: self.misses,
            prefetched: self.prefetched,
            opening: self.opening,
            stall: self.stall,
            overlap: self.overlap,
        }
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
        let window = self.uncovered(plan, self.prefetcher.depth() + 1, None);
        if window.is_empty() {
            return Ok(SimDuration::ZERO);
        }
        let took = self.issue(window)?;
        self.land();
        self.opening += took;
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
                self.hits += 1;
                response
            }
            None => {
                // Demand miss: an unrelated in-flight batch occupies the
                // link first, then the needed resource costs a full
                // (unbatched) round trip.
                if !self.inflight.is_empty() {
                    stall += self.wait_for_link();
                }
                self.misses += 1;
                let before = self.ws.elapsed();
                let response = self.ws.request(need)?;
                stall +=
                    self.clock.advance_overlapped(self.ws.elapsed() - before, SimDuration::ZERO);
                response
            }
        };
        self.arm_window(plan, Some(&key))?;
        self.hide(dwell);
        self.stall += stall;
        Ok((response, stall))
    }

    /// Routes one refill opportunity through the event kernel: the
    /// anticipation window's opening is armed as a
    /// [`KernelEvent::PrefetchWindowOpen`] deadline at the presentation
    /// clock's current instant and the refill runs as that event's
    /// handler. A window that opens with the link busy, the buffer full,
    /// or nothing left to predict issues no batch and is counted a
    /// spurious wake.
    fn arm_window(&mut self, plan: &[ServerRequest], exclude: Option<&[u8]>) -> Result<()> {
        let now = self.clock.now();
        self.kernel.post(now, KernelEvent::PrefetchWindowOpen { session: 0 });
        self.kernel.advance_to(now);
        while let Some(event) = self.kernel.take_ready() {
            if !matches!(event, KernelEvent::PrefetchWindowOpen { .. }) {
                self.kernel.note_spurious();
                continue;
            }
            let quiet = self.inflight.is_empty();
            self.refill(plan, exclude)?;
            if quiet && self.inflight.is_empty() {
                self.kernel.note_spurious();
            }
        }
        Ok(())
    }

    /// The kernel counters behind anticipation: windows fired,
    /// armed, and the ones that found nothing to issue.
    pub fn kernel_stats(&self) -> KernelStats {
        self.kernel.stats()
    }

    /// Drains the pipeline kernel's trace ring as a JSON array (see
    /// [`Kernel::drain_trace_json`]).
    pub fn drain_kernel_trace(&mut self) -> String {
        self.kernel.drain_trace_json()
    }

    /// Issues the next prediction batch when the link is free, the buffer
    /// is below the lookahead cap, and the plan has unfetched entries.
    fn refill(&mut self, plan: &[ServerRequest], exclude: Option<&[u8]>) -> Result<()> {
        let depth = self.prefetcher.depth();
        if depth == 0 || !self.inflight.is_empty() || self.buffer.len() > depth {
            return Ok(());
        }
        let window = self.uncovered(plan, depth, exclude);
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
        self.prefetched += window.len() as u64;
        let before = self.ws.elapsed();
        let conn = self.ws.connection_mut();
        let tickets: Vec<(Vec<u8>, crate::transport::Ticket)> =
            window.into_iter().map(|(key, request)| (key, conn.submit_ref(request))).collect();
        for (key, ticket) in tickets {
            let (response, _) = conn.wait(ticket)?;
            if !matches!(response, ServerResponse::Error(_)) {
                self.inflight.insert(key, response);
            }
        }
        Ok(self.ws.elapsed() - before)
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
                self.ws.connection_mut().recycle_payload(bytes);
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
        self.overlap += hidden;
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
    use minos_net::Link;
    use minos_server::ObjectServer;
    use minos_types::{Rect, Size};

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
        (PrefetchBuffer::new(Workstation::new(server, Link::ethernet()), depth), span)
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
        let trips = pipe.workstation().round_trips();
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
    fn predictors_look_ahead_by_depth() {
        let record = ByteSpan::at(0, 8_000);
        let pages = page_spans(record, 8);
        let p = Prefetcher::new(3);
        let predicted = p.predict_pages(&pages, 2);
        assert_eq!(
            predicted,
            vec![
                ServerRequest::FetchSpan { span: pages[3] },
                ServerRequest::FetchSpan { span: pages[4] },
                ServerRequest::FetchSpan { span: pages[5] },
            ]
        );
        // Near the end the prediction shrinks instead of inventing pages.
        assert_eq!(p.predict_pages(&pages, 6).len(), 1);
        assert!(p.predict_pages(&pages, 7).is_empty());

        let stops = [Rect::new(0, 0, 10, 10), Rect::new(5, 5, 10, 10), Rect::new(9, 9, 10, 10)];
        let toured = p.predict_tour(ObjectId::new(1), 0, &stops, 0);
        assert_eq!(toured.len(), 2);
        assert!(matches!(
            &toured[0],
            ServerRequest::FetchView { rect, .. } if *rect == stops[1]
        ));

        assert_eq!(p.predict_relevant(&[ObjectId::new(4), ObjectId::new(5)]).len(), 2);
    }

    #[test]
    fn view_prediction_stops_at_the_image_edge() {
        let view = View::new(Size::new(100, 300), Size::new(100, 100), 90).unwrap();
        let p = Prefetcher::new(5);
        // Steps down land at y = 90, 180, then clamp to 200; after that the
        // view is pinned and prediction stops.
        let predicted = p.predict_view(ObjectId::new(1), 0, &view, MoveDirection::Down);
        assert_eq!(predicted.len(), 3);
        assert!(matches!(
            &predicted[2],
            ServerRequest::FetchView { rect, .. } if rect.origin.y == 200
        ));
        // Already pinned left: nothing to predict.
        assert!(p.predict_view(ObjectId::new(1), 0, &view, MoveDirection::Left).is_empty());
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
        let ws = Workstation::with_faults(
            server,
            Link::ethernet(),
            minos_net::FaultPlan::corrupting(77, 0.2),
        );
        let mut pipe = PrefetchBuffer::new(ws, 2);
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
        let transport = pipe.workstation().transport_stats();
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
            let ws = pipe.workstation();
            let mut leases = ws.connection().endpoint().service_stats().clone();
            let transport = ws.transport_stats();
            leases.pool_hits += transport.pool_hits;
            leases.pool_misses += transport.pool_misses;
            leases.payload_allocs += transport.payload_allocs;
            leases
        };
        let dropped = run(false);
        let recycled = run(true);
        assert!(dropped.pool_misses > 0, "the pipeline leases from the pool: {dropped:?}");
        assert!(
            recycled.pool_misses < dropped.pool_misses,
            "recycling must cut fresh allocations: {recycled:?} vs {dropped:?}"
        );
        assert!(
            recycled.pool_hits > dropped.pool_hits,
            "recycling must raise pool hits: {recycled:?} vs {dropped:?}"
        );
        assert_eq!(recycled.payload_allocs, recycled.pool_misses);
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

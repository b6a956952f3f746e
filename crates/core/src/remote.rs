//! The workstation side of the architecture.
//!
//! "The multimedia object presentation manager resides in the user's
//! workstation and requests the appropriate pieces of information from the
//! multimedia object server subsystems." (§5)
//!
//! The workstation is a [`Client`] of one [`ObjectServer`] over a link: a
//! fleet of one, served and recovered exactly as each member of a fleet
//! is. It accounts for every simulated microsecond and byte: request
//! transfer, server device time, response transfer. Experiments E5 (views
//! vs whole images) and E6 (miniature-first browsing) read their numbers
//! from here.
//!
//! [`Client::submit`] puts a request on the wire and returns a [`Ticket`]
//! at once, so several requests overlap link transfer with device time;
//! [`Client::wait`] collects the response and charges only the time the
//! caller actually had to wait. A request keeps its retransmission state
//! under a deadline, and a `Busy` reply parks it on the server's hint; on
//! a clean link it still travels as a typed frame, never encoded. A run of
//! adjacent span fetches (the §5 anticipatory shape) is coalesced by the
//! server into one device read, and each page crosses the downlink as its
//! own response frame once its share of the read is done. The blocking
//! [`Client::request`]/[`Client::request_batch`] calls, and the typed
//! fetches and queries built on them, are thin submit-then-wait shims over
//! this pipeline.

use crate::transport::{Client, Ticket, CONN_ID};
use minos_image::{Bitmap, View};
use minos_net::{Priority, ServerRequest, ServerResponse};
use minos_object::{ArchivedObject, DataKind, DataPayload, MultimediaObject};
use minos_server::ObjectServer;
use minos_types::{MinosError, ObjectId, Rect, Result, Size};
use std::rc::Rc;

impl Client {
    /// The wrapped server: member 0, the only one of a single-server
    /// client.
    pub fn endpoint(&self) -> &ObjectServer {
        &self.fleet.servers()[0]
    }

    /// Mutable server access.
    pub fn endpoint_mut(&mut self) -> &mut ObjectServer {
        &mut self.fleet.servers_mut()[0]
    }

    /// Submits one request to member 0, charging its uplink transfer, and
    /// returns a ticket for collecting the response later. If the in-flight
    /// window is exhausted the call first waits out the oldest response
    /// (the pipelined analogue of blocking); on a faulty link a slot whose
    /// response was lost is forced through the timeout machinery instead
    /// of being overrun.
    pub fn submit(&mut self, request: ServerRequest) -> Ticket {
        self.submit_on((CONN_ID, Priority::Demand), request)
    }

    /// [`Client::submit`] from `sender`: the connection the request
    /// travels on and its service class.
    pub(crate) fn submit_on(&mut self, sender: (u64, Priority), request: ServerRequest) -> Ticket {
        let request_id = self.admit_slot(sender.0);
        self.submit_tracked(request_id, sender, 0, None, request);
        Ticket(request_id)
    }

    /// [`Client::submit`] from a borrowed request, never cloning:
    /// plain-value requests are copied field-for-field, and anything that
    /// owns heap data encodes straight from the borrow into a pooled
    /// buffer.
    pub fn submit_ref(&mut self, request: &ServerRequest) -> Ticket {
        if let Some(copy) = request.plain_copy() {
            return self.submit(copy);
        }
        let request_id = self.admit_slot(CONN_ID);
        self.submit_encoded(request_id, (CONN_ID, Priority::Demand), 0, None, request);
        Ticket(request_id)
    }

    /// Issues one request, charging request transfer + server device time
    /// + response transfer, and surfacing server-side errors.
    pub fn request(&mut self, request: &ServerRequest) -> Result<ServerResponse> {
        let ticket = self.submit_ref(request);
        let (response, _) = self.wait(ticket)?;
        if let ServerResponse::Error(message) = response {
            return Err(MinosError::Protocol(message));
        }
        Ok(response)
    }

    /// Issues several requests as one pipelined burst, returning one
    /// response per request in order. The burst counts as a single round
    /// trip; the server coalesces adjacent span fetches into one device
    /// read, and each page still comes back in its own response frame;
    /// per-request failures come back as inline [`ServerResponse::Error`]
    /// entries rather than failing the call.
    pub fn request_batch(&mut self, requests: Vec<ServerRequest>) -> Result<Vec<ServerResponse>> {
        let tickets: Vec<Ticket> = requests.into_iter().map(|r| self.submit(r)).collect();
        tickets.into_iter().map(|t| self.wait(t).map(|(response, _)| response)).collect()
    }

    /// Fetches the whole archived object (descriptor + composition),
    /// decoding it against its archive base.
    pub fn fetch_object(&mut self, id: ObjectId, archive_base: u64) -> Result<ArchivedObject> {
        match self.request(&ServerRequest::FetchObject { id })? {
            ServerResponse::Object(bytes) => {
                ArchivedObject::decode_from_archive(&bytes, archive_base)
            }
            other => Err(MinosError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// Fetches the window of an image through a view — only the window's
    /// bytes cross the link.
    pub fn fetch_view(&mut self, id: ObjectId, image: usize, rect: Rect) -> Result<Bitmap> {
        match self.request(&ServerRequest::FetchView { id, tag: image.to_string(), rect })? {
            ServerResponse::View(bytes) => DataPayload { kind: DataKind::Image, bytes }.as_image(),
            other => Err(MinosError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// Fetches an object's miniature.
    pub fn fetch_miniature(&mut self, id: ObjectId) -> Result<Bitmap> {
        decode_miniature(self.request(&ServerRequest::FetchMiniature { id })?)
    }

    /// Evaluates a content query on the server.
    pub fn query(&mut self, keywords: &[&str]) -> Result<Vec<ObjectId>> {
        let request =
            ServerRequest::Query { keywords: keywords.iter().map(|s| s.to_string()).collect() };
        match self.request(&request)? {
            ServerResponse::Hits(ids) => Ok(ids),
            other => Err(MinosError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// Evaluates an exact attribute query on the server.
    pub fn query_attribute(&mut self, name: &str, value: &str) -> Result<Vec<ObjectId>> {
        let request =
            ServerRequest::QueryAttribute { name: name.to_string(), value: value.to_string() };
        match self.request(&request)? {
            ServerResponse::Hits(ids) => Ok(ids),
            other => Err(MinosError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// The sequential browsing interface of §5: fetches miniatures of the
    /// qualifying objects as one pipelined burst, returning `(id,
    /// miniature)` pairs in order.
    pub fn miniature_stream(&mut self, hits: &[ObjectId]) -> Result<Vec<(ObjectId, Bitmap)>> {
        let requests = hits.iter().map(|&id| ServerRequest::FetchMiniature { id }).collect();
        let responses = self.request_batch(requests)?;
        hits.iter().zip(responses).map(|(&id, r)| Ok((id, decode_miniature(r)?))).collect()
    }
}

/// Decodes a `FetchMiniature` reply, surfacing a server-side error.
fn decode_miniature(response: ServerResponse) -> Result<Bitmap> {
    match response {
        ServerResponse::Miniature(bytes) => DataPayload { kind: DataKind::Image, bytes }.as_image(),
        ServerResponse::Error(message) => Err(MinosError::Protocol(message)),
        other => Err(MinosError::Protocol(format!("unexpected response {other:?}"))),
    }
}

/// A remote-view browsing session: view geometry on the workstation, pixels
/// fetched window-by-window from the server as the user moves.
#[derive(Clone, Debug)]
pub struct RemoteView {
    object: ObjectId,
    image: usize,
    view: View,
}

impl RemoteView {
    /// Opens a view of `view_size` over image `image` of `object`, whose
    /// full size is `image_size`.
    pub fn open(
        object: ObjectId,
        image: usize,
        image_size: Size,
        view_size: Size,
        step: u32,
    ) -> Result<Self> {
        Ok(RemoteView { object, image, view: View::new(image_size, view_size, step)? })
    }

    /// The current window rectangle.
    pub fn rect(&self) -> Rect {
        self.view.rect()
    }

    /// Mutable view geometry (move/jump/resize, then `fetch`).
    pub fn view_mut(&mut self) -> &mut View {
        &mut self.view
    }

    /// Fetches the current window's pixels from the server.
    pub fn fetch(&self, ws: &mut Client) -> Result<Bitmap> {
        ws.fetch_view(self.object, self.image, self.view.rect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::DEFAULT_WINDOW;
    use minos_corpus::objects::archived_form;
    use minos_corpus::{medical_report, subway_map_object};
    use minos_image::view::MoveDirection;
    use minos_net::Link;
    use minos_types::{ByteSpan, SimDuration};

    fn server() -> (ObjectServer, u64) {
        let mut server = ObjectServer::new();
        let report = medical_report(ObjectId::new(1), 42);
        let archived = archived_form(&report);
        let receipt = server.publish(report, &archived).unwrap();
        let (map, overlays) =
            subway_map_object(ObjectId::new(2), ObjectId::new(3), ObjectId::new(4), 5);
        server.publish(map.clone(), &archived_form(&map)).unwrap();
        for o in overlays {
            let a = archived_form(&o);
            server.publish(o, &a).unwrap();
        }
        (server, receipt.span.start)
    }

    fn workstation() -> (Client, u64) {
        let (server, base) = server();
        (Client::new(server, Link::ethernet()), base)
    }

    #[test]
    fn fetch_object_round_trips_over_the_link() {
        let (mut ws, base) = workstation();
        let obj = ws.fetch_object(ObjectId::new(1), base).unwrap();
        assert_eq!(obj.descriptor.object_id, ObjectId::new(1));
        assert!(ws.elapsed() > SimDuration::ZERO);
        assert!(ws.bytes_transferred() > 1_000);
    }

    #[test]
    fn queries_travel_cheaply() {
        let (mut ws, _) = workstation();
        let hits = ws.query(&["shadow"]).unwrap();
        assert_eq!(hits, vec![ObjectId::new(1)]);
        assert!(ws.bytes_transferred() < 200, "query moved {} bytes", ws.bytes_transferred());
    }

    #[test]
    fn attribute_queries_over_the_link() {
        let (mut ws, _) = workstation();
        let hits = ws.query_attribute("author", "doctor jones").unwrap();
        assert_eq!(hits, vec![ObjectId::new(1)]);
        assert!(ws.query_attribute("author", "nobody").unwrap().is_empty());
    }

    #[test]
    fn view_browsing_costs_window_bytes_per_move() {
        let (mut ws, _) = workstation();
        let mut rv =
            RemoteView::open(ObjectId::new(2), 0, Size::new(900, 700), Size::new(200, 150), 40)
                .unwrap();
        let w1 = rv.fetch(&mut ws).unwrap();
        assert_eq!(w1.size(), Size::new(200, 150));
        let after_first = ws.bytes_transferred();
        rv.view_mut().step(MoveDirection::Down);
        rv.fetch(&mut ws).unwrap();
        let per_move = ws.bytes_transferred() - after_first;
        let full_image = Bitmap::new(900, 700).byte_size();
        assert!(
            per_move * 10 < full_image,
            "per-move cost {per_move} not ≪ full image {full_image}"
        );
    }

    #[test]
    fn miniature_stream_serves_all_hits() {
        let (mut ws, _) = workstation();
        let hits = ws.query(&["the"]).unwrap_or_default();
        let stream = ws.miniature_stream(&[ObjectId::new(1), ObjectId::new(2)]).unwrap();
        assert_eq!(stream.len(), 2);
        for (_, mini) in &stream {
            assert!(mini.width() <= 160);
        }
        let _ = hits;
    }

    #[test]
    fn server_errors_surface_as_protocol_errors() {
        let (mut ws, _) = workstation();
        assert!(matches!(ws.fetch_miniature(ObjectId::new(404)), Err(MinosError::Protocol(_))));
        let stream = ws.miniature_stream(&[ObjectId::new(1), ObjectId::new(404)]);
        assert!(matches!(stream, Err(MinosError::Protocol(_))));
    }

    #[test]
    fn batch_is_one_round_trip_with_inline_errors() {
        let (mut ws, _) = workstation();
        let responses = ws
            .request_batch(vec![
                ServerRequest::FetchMiniature { id: ObjectId::new(1) },
                ServerRequest::FetchMiniature { id: ObjectId::new(404) },
                ServerRequest::Query { keywords: vec!["shadow".into()] },
            ])
            .unwrap();
        assert_eq!(ws.round_trips(), 1);
        assert_eq!(responses.len(), 3);
        assert!(matches!(responses[0], ServerResponse::Miniature(_)));
        assert!(matches!(responses[1], ServerResponse::Error(_)));
        assert_eq!(responses[2], ServerResponse::Hits(vec![ObjectId::new(1)]));
    }

    #[test]
    fn batching_beats_serial_round_trips() {
        let (mut serial, _) = workstation();
        let (mut batched, _) = workstation();
        let ids = [ObjectId::new(1), ObjectId::new(2), ObjectId::new(3)];
        let one_by_one: Vec<Bitmap> =
            ids.iter().map(|&id| serial.fetch_miniature(id).unwrap()).collect();
        let stream = batched.miniature_stream(&ids).unwrap();
        assert_eq!(stream.into_iter().map(|(_, m)| m).collect::<Vec<_>>(), one_by_one);
        assert_eq!(serial.round_trips(), 3);
        assert_eq!(batched.round_trips(), 1);
        // Two link latencies saved per avoided round trip.
        assert!(batched.elapsed() < serial.elapsed());
    }

    #[test]
    fn pipelined_submission_overlaps_device_and_link() {
        let (mut serial, _) = workstation();
        let (mut pipelined, _) = workstation();
        let ids = [ObjectId::new(1), ObjectId::new(2), ObjectId::new(3)];
        for &id in &ids {
            serial.fetch_miniature(id).unwrap();
        }
        let tickets: Vec<Ticket> =
            ids.iter().map(|&id| pipelined.submit(ServerRequest::FetchMiniature { id })).collect();
        assert_eq!(pipelined.in_flight(), 3, "nothing collected yet");
        for ticket in tickets {
            let (response, _) = pipelined.wait(ticket).unwrap();
            assert!(matches!(response, ServerResponse::Miniature(_)));
        }
        assert_eq!(pipelined.in_flight(), 0);
        assert_eq!(pipelined.round_trips(), 1, "one burst, one round trip");
        assert!(
            pipelined.elapsed() < serial.elapsed(),
            "pipelined {} vs serial {}",
            pipelined.elapsed(),
            serial.elapsed()
        );
    }

    #[test]
    fn responses_complete_out_of_submission_order() {
        let (mut conn, _) = workstation();
        let slow = conn.submit(ServerRequest::FetchMiniature { id: ObjectId::new(1) });
        let fast = conn.submit(ServerRequest::Query { keywords: vec!["shadow".into()] });
        // Collecting the later submission first works: frames carry ids.
        let (hits, _) = conn.wait(fast).unwrap();
        assert_eq!(hits, ServerResponse::Hits(vec![ObjectId::new(1)]));
        let (mini, waited) = conn.wait(slow).unwrap();
        assert!(matches!(mini, ServerResponse::Miniature(_)));
        // The miniature landed before the query was collected (the device
        // served it first), so no further waiting was needed.
        assert_eq!(waited, SimDuration::ZERO);
    }

    #[test]
    fn adjacent_span_submissions_coalesce_into_one_device_read() {
        let mut server = ObjectServer::new();
        let data: Vec<u8> = (0..32_768u32).map(|i| (i % 251) as u8).collect();
        let (record, _) = server.archiver_mut().store(ObjectId::new(9), &data).unwrap();
        let chunk = record.span.len() / 4;

        let mut serial = Client::new(server, Link::ethernet());
        let spans: Vec<ByteSpan> =
            (0..4).map(|i| ByteSpan::at(record.span.start + i * chunk, chunk)).collect();
        for &span in &spans {
            serial.request(&ServerRequest::FetchSpan { span }).unwrap();
        }
        let serial_stats = serial.link_stats();
        assert_eq!(serial_stats.messages, 8, "4 requests + 4 responses");

        let mut server = ObjectServer::new();
        server.archiver_mut().store(ObjectId::new(9), &data).unwrap();
        let mut pipelined = Client::new(server, Link::ethernet());
        let tickets: Vec<Ticket> =
            spans.iter().map(|&span| pipelined.submit(ServerRequest::FetchSpan { span })).collect();
        for (ticket, span) in tickets.into_iter().zip(&spans) {
            let (response, _) = pipelined.wait(ticket).unwrap();
            let ServerResponse::Span(bytes) = response else {
                panic!("unexpected response for {span}");
            };
            let expect: Vec<u8> =
                (span.start..span.end).map(|b| (b as usize % 251) as u8).collect();
            assert_eq!(bytes, expect, "coalesced slice for {span}");
        }
        // The server read the four pages in one pass; each still came back
        // in its own response frame.
        assert_eq!(pipelined.link_stats().messages, 8, "4 requests + 4 responses");
        assert_eq!(pipelined.endpoint().service_stats().coalesced_runs, 1);
        assert!(
            pipelined.elapsed() < serial.elapsed(),
            "pipelined {} vs serial {}",
            pipelined.elapsed(),
            serial.elapsed()
        );
    }

    #[test]
    fn a_window_wider_than_the_queue_cap_parks_busy_requests() {
        // A window of 64 against the default per-connection cap of 32: the
        // server turns half the burst away `Busy`, and each turned-away
        // request waits out the server's hint and is served, never handed
        // to the caller as its answer.
        const PAGES: u64 = 64;
        let mut server = ObjectServer::new();
        let data: Vec<u8> = (0..2 * PAGES * 1024).map(|i| (i % 251) as u8).collect();
        let (record, _) = server.archiver_mut().store(ObjectId::new(9), &data).unwrap();
        let mut conn = Client::with_window(server, Link::ethernet(), PAGES as usize);
        // Every other KiB, so no two fetches coalesce into one read.
        let spans: Vec<ByteSpan> =
            (0..PAGES).map(|i| ByteSpan::at(record.span.start + 2 * i * 1024, 1024)).collect();
        let tickets: Vec<Ticket> =
            spans.iter().map(|&span| conn.submit(ServerRequest::FetchSpan { span })).collect();
        for (ticket, span) in tickets.into_iter().zip(&spans) {
            let (response, _) = conn.wait(ticket).unwrap();
            let ServerResponse::Span(bytes) = response else {
                panic!("{span} answered {response:?}");
            };
            let from = span.start - record.span.start;
            let expect: Vec<u8> = (from..from + 1024).map(|b| (b % 251) as u8).collect();
            assert_eq!(bytes, expect, "{span}");
        }
        let stats = conn.transport_stats();
        assert_eq!(stats.busy_deferred, 32, "{stats:?}");
        assert_eq!(stats.premature_busy_retries, 0, "{stats:?}");
    }

    #[test]
    fn waiting_on_an_unknown_ticket_is_a_protocol_error() {
        let (mut conn, _) = workstation();
        let ticket = conn.submit(ServerRequest::Query { keywords: vec!["shadow".into()] });
        assert!(conn.wait(ticket).is_ok());
        assert!(matches!(conn.wait(ticket), Err(MinosError::Protocol(_))), "double collection");
    }

    #[test]
    fn corrupted_frames_are_retransmitted_to_completion() {
        let (faulty_server, base) = server();
        let mut ws = Client::with_faults(
            faulty_server,
            Link::ethernet(),
            DEFAULT_WINDOW,
            minos_net::FaultPlan::corrupting(1234, 0.2),
        );
        let (clean_server, _) = server();
        let mut clean = Client::new(clean_server, Link::ethernet());
        // Twenty round trips at a 20% per-frame corruption rate: losses are
        // certain, yet every response must come back byte-identical to the
        // clean link's.
        for i in 0..20u64 {
            let id = ObjectId::new(1 + (i % 2));
            let faulty_obj = ws.fetch_object(id, base).unwrap();
            let clean_obj = clean.fetch_object(id, base).unwrap();
            assert_eq!(faulty_obj.descriptor, clean_obj.descriptor, "round trip {i}");
        }
        let stats = ws.transport_stats();
        assert!(stats.corrupt_frames > 0, "the plan did corrupt frames: {stats:?}");
        assert!(stats.retries > 0, "losses were recovered by retransmission: {stats:?}");
        assert_eq!(ws.in_flight(), 0);
    }

    #[test]
    fn exhausted_retries_surface_as_inline_errors() {
        let (server, _) = server();
        let link = Link::ethernet();
        let mut conn = Client::with_faults(
            server,
            link,
            DEFAULT_WINDOW,
            minos_net::FaultPlan::dropping(7, 1.0),
        )
        .with_recovery(SimDuration::from_millis(100), 2);
        let ticket = conn.submit(ServerRequest::FetchMiniature { id: ObjectId::new(1) });
        let (response, waited) = conn.wait(ticket).unwrap();
        assert!(matches!(response, ServerResponse::Error(_)), "got {response:?}");
        assert!(waited > SimDuration::ZERO, "deadlines were actually waited out");
        let stats = conn.transport_stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.timeouts, 3, "initial deadline plus one per retry");
        assert_eq!(conn.in_flight(), 0, "the expired slot settled");
    }

    #[test]
    fn duplicate_responses_are_suppressed() {
        let (server, _) = server();
        let plan = minos_net::FaultPlan { seed: 3, duplicate: 1.0, ..minos_net::FaultPlan::none() };
        let mut conn = Client::with_faults(server, Link::ethernet(), DEFAULT_WINDOW, plan);
        for i in 0..4u64 {
            let ticket =
                conn.submit(ServerRequest::FetchMiniature { id: ObjectId::new(1 + (i % 2)) });
            let (response, _) = conn.wait(ticket).unwrap();
            assert!(matches!(response, ServerResponse::Miniature(_)), "got {response:?}");
        }
        // Every frame is duplicated in both directions; each duplicate
        // request yields an extra response whose id has already landed or
        // been collected.
        assert!(conn.transport_stats().duplicates >= 4, "{:?}", conn.transport_stats());
        assert_eq!(conn.in_flight(), 0);
    }

    #[test]
    fn full_window_with_lost_responses_is_never_overrun() {
        // Regression for the window-full loop: with every response lost,
        // the old code broke out of the wait loop and opened another slot
        // anyway, overrunning the flow-control bound. The fix forces the
        // oldest slot through the timeout machinery instead.
        let (server, _) = server();
        let mut conn = Client::with_faults(
            server,
            Link::ethernet(),
            1,
            minos_net::FaultPlan::dropping(9, 1.0),
        )
        .with_recovery(SimDuration::from_millis(50), 1);
        let t1 = conn.submit(ServerRequest::FetchMiniature { id: ObjectId::new(1) });
        assert_eq!(conn.in_flight(), 1);
        // The second submit must first settle the first slot (here: by
        // expiring it after its retry budget), never exceed capacity 1.
        let t2 = conn.submit(ServerRequest::FetchMiniature { id: ObjectId::new(2) });
        assert!(conn.in_flight() <= 1, "window overrun: {} in flight", conn.in_flight());
        let (r1, _) = conn.wait(t1).unwrap();
        assert!(matches!(r1, ServerResponse::Error(_)), "first slot expired: {r1:?}");
        let (r2, _) = conn.wait(t2).unwrap();
        assert!(matches!(r2, ServerResponse::Error(_)));
        assert_eq!(conn.in_flight(), 0);
    }

    #[test]
    fn server_restart_mid_flight_replays_the_window_byte_identically() {
        let (baseline_server, base) = server();
        let mut baseline = Client::new(baseline_server, Link::ethernet());
        let spans: Vec<ByteSpan> = (0..3).map(|i| ByteSpan::at(base + i * 512, 512)).collect();
        let expect: Vec<ServerResponse> = spans
            .iter()
            .map(|&span| {
                let t = baseline.submit(ServerRequest::FetchSpan { span });
                baseline.wait(t).unwrap().0
            })
            .collect();

        let (restart_server, _) = server();
        let mut conn = Client::new(restart_server, Link::ethernet());
        let tickets: Vec<Ticket> =
            spans.iter().map(|&span| conn.submit(ServerRequest::FetchSpan { span })).collect();
        // The window is in flight when the server dies and comes back.
        conn.endpoint_mut().restart();
        let got: Vec<ServerResponse> =
            tickets.into_iter().map(|t| conn.wait(t).unwrap().0).collect();
        assert_eq!(got, expect, "the replayed window must be byte-identical");
        let stats = conn.transport_stats();
        assert_eq!(stats.epoch_resyncs, 1);
        assert_eq!(stats.replays, 3);
        // A restart with nothing in flight costs a handshake and replays
        // nothing — and the pipeline keeps serving.
        conn.endpoint_mut().restart();
        let t = conn.submit(ServerRequest::FetchSpan { span: spans[0] });
        assert_eq!(conn.wait(t).unwrap().0, expect[0]);
        assert_eq!(conn.transport_stats().epoch_resyncs, 2);
        assert_eq!(conn.transport_stats().replays, 3);
    }

    #[test]
    fn restarts_under_chaos_never_wedge_the_pipeline() {
        let (server, _) = server();
        let mut conn =
            Client::with_faults(server, Link::ethernet(), 4, minos_net::FaultPlan::chaos(23, 0.3))
                .with_recovery(SimDuration::from_millis(50), 3);
        for round in 0..6u64 {
            let tickets: Vec<Ticket> = (0..3u64)
                .map(|i| {
                    conn.submit(ServerRequest::FetchMiniature {
                        id: ObjectId::new(1 + ((round + i) % 2)),
                    })
                })
                .collect();
            if round % 2 == 0 {
                conn.endpoint_mut().restart();
            }
            for t in tickets {
                let (resp, _) = conn.wait(t).unwrap();
                assert!(
                    matches!(resp, ServerResponse::Miniature(_) | ServerResponse::Error(_)),
                    "every slot settles with data or a typed error: {resp:?}"
                );
            }
        }
        assert!(conn.transport_stats().epoch_resyncs >= 3);
        assert_eq!(conn.in_flight(), 0);
    }

    #[test]
    fn clean_plan_is_byte_identical_to_a_bare_link() {
        let (bare_server, _) = server();
        let mut bare = Client::new(bare_server, Link::ethernet());
        let (planned_server, _) = server();
        let mut clean_plan = Client::with_faults(
            planned_server,
            Link::ethernet(),
            DEFAULT_WINDOW,
            minos_net::FaultPlan::none(),
        );
        for ws in [&mut bare, &mut clean_plan] {
            ws.query(&["shadow"]).unwrap();
            ws.fetch_miniature(ObjectId::new(2)).unwrap();
        }
        assert_eq!(bare.link_stats(), clean_plan.link_stats());
        assert_eq!(bare.elapsed(), clean_plan.elapsed());
        assert_eq!(bare.transport_stats(), clean_plan.transport_stats());
        // No fault machinery engaged: the heap-carrying query rides the
        // pooled encode path (one warmup miss), but nothing times out,
        // retries, or replays on a clean plan.
        let stats = clean_plan.transport_stats();
        assert_eq!(stats.timeouts, 0);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.corrupt_frames, 0);
        assert_eq!(stats.duplicates, 0);
        assert_eq!(stats.replays, 0);
    }

    #[test]
    fn blocking_window_degenerates_to_serial_timing() {
        let (server, _) = server();
        let mut one = Client::with_window(server, Link::ethernet(), 1);
        let t1 = one.submit(ServerRequest::FetchMiniature { id: ObjectId::new(1) });
        let t2 = one.submit(ServerRequest::FetchMiniature { id: ObjectId::new(2) });
        // The second submit had to wait out the first response.
        assert!(one.elapsed() > SimDuration::ZERO);
        let (_, waited) = one.wait(t1).unwrap();
        assert_eq!(waited, SimDuration::ZERO, "already waited out by the window");
        assert!(one.wait(t2).is_ok());
    }

    #[test]
    fn retransmit_buffers_come_from_the_pool_after_warmup() {
        // Regression for the per-message allocation bug: on a faulty link
        // every submit used to build a fresh frame payload (and every
        // retransmit re-encoded it). Now the frame is encoded once into a
        // pooled buffer and the buffer is recycled when the slot retires,
        // so steady-state traffic is served from pool hits.
        let (server, _) = server();
        let mut conn = Client::with_faults(
            server,
            Link::ethernet(),
            DEFAULT_WINDOW,
            minos_net::FaultPlan::chaos(31, 0.3),
        )
        .with_recovery(SimDuration::from_millis(50), 3);
        for i in 0..16u64 {
            let ticket =
                conn.submit(ServerRequest::FetchMiniature { id: ObjectId::new(1 + (i % 2)) });
            let _ = conn.wait(ticket);
        }
        let stats = conn.transport_stats();
        assert!(stats.payload_allocs > 0, "the first lease has nothing to reuse: {stats:?}");
        assert!(
            stats.pool_hits > stats.payload_allocs,
            "steady state must re-serve recycled buffers: {stats:?}"
        );
    }

    #[test]
    fn coalesced_span_payloads_recycle_through_the_pool() {
        // The server slices a coalesced run into per-request payloads
        // leased from the pool it shares with the connection; a caller that
        // hands consumed payloads back via recycle_payload keeps the
        // allocation count flat across rounds, on both sides of the wire.
        let (server, base) = server();
        let mut conn = Client::new(server, Link::ethernet());
        let spans: Vec<ByteSpan> = (0..3).map(|i| ByteSpan::at(base + i * 512, 512)).collect();
        let leases = |conn: &Client| {
            let (transport, service) = (conn.transport_stats(), conn.endpoint().service_stats());
            (
                transport.pool_hits + service.pool_hits,
                transport.payload_allocs + service.payload_allocs,
            )
        };
        let mut allocs_after_first_round = 0;
        for round in 0..3 {
            let tickets: Vec<Ticket> =
                spans.iter().map(|&span| conn.submit(ServerRequest::FetchSpan { span })).collect();
            for t in tickets {
                let (response, _) = conn.wait(t).unwrap();
                match response {
                    ServerResponse::Span(bytes) => conn.recycle_payload(bytes),
                    other => panic!("expected span bytes, got {other:?}"),
                }
            }
            let (hits, allocs) = leases(&conn);
            if round == 0 {
                allocs_after_first_round = allocs;
                assert!(allocs_after_first_round > 0);
            } else {
                assert_eq!(allocs, allocs_after_first_round, "round {round} allocated");
                assert!(hits >= 4 * round, "round {round} leased recycled buffers: {hits}");
            }
        }
    }
}

/// The §5 sequential browsing interface over query hits: the user walks a
/// strip of miniatures, then selects one for full presentation. ("When the
/// user selects the miniature of an object the multimedia object
/// presentation manager undertakes the responsibility to present the
/// information of the selected object.")
#[derive(Clone, Debug)]
pub struct MiniatureBrowser {
    hits: Vec<ObjectId>,
    miniatures: Vec<Bitmap>,
    current: usize,
}

impl MiniatureBrowser {
    /// Runs a content query and streams the qualifying miniatures.
    pub fn query(ws: &mut Client, keywords: &[&str]) -> Result<MiniatureBrowser> {
        let hits = ws.query(keywords)?;
        let stream = ws.miniature_stream(&hits)?;
        Ok(MiniatureBrowser {
            hits,
            miniatures: stream.into_iter().map(|(_, m)| m).collect(),
            current: 0,
        })
    }

    /// Number of qualifying objects.
    pub fn len(&self) -> usize {
        self.hits.len()
    }

    /// Whether the query matched nothing.
    pub fn is_empty(&self) -> bool {
        self.hits.is_empty()
    }

    /// The miniature currently in front of the user, with its object id.
    pub fn current(&self) -> Option<(ObjectId, &Bitmap)> {
        self.hits.get(self.current).map(|&id| (id, &self.miniatures[self.current]))
    }

    /// Moves to the next miniature (clamped at the end).
    pub fn advance(&mut self) -> Option<(ObjectId, &Bitmap)> {
        if self.current + 1 < self.hits.len() {
            self.current += 1;
        }
        self.current()
    }

    /// Moves back one miniature (clamped at the start).
    pub fn previous(&mut self) -> Option<(ObjectId, &Bitmap)> {
        self.current = self.current.saturating_sub(1);
        self.current()
    }

    /// Selects the current miniature for full presentation.
    pub fn select(&self) -> Option<ObjectId> {
        self.hits.get(self.current).copied()
    }
}

/// A server-backed object store: browsing sessions resolve relevant-object
/// targets through the workstation's client, charging the link for each
/// object's archived size — the architecture of §5 end to end.
impl crate::session::ObjectStore for Client {
    fn fetch(&mut self, id: ObjectId) -> Result<MultimediaObject> {
        self.fetch_shared(id).map(|object| MultimediaObject::clone(&object))
    }

    /// Charges the transfer of the object's archived form over the link,
    /// then hands out the server's resident object, shared, not copied.
    fn fetch_shared(&mut self, id: ObjectId) -> Result<Rc<MultimediaObject>> {
        let request = ServerRequest::FetchObject { id };
        let response = self.request(&request)?;
        let ServerResponse::Object(_) = response else {
            return Err(MinosError::Protocol(format!("unexpected response to {request:?}")));
        };
        // The typed form is reconstructed workstation-side; the server's
        // resident object stands in for that decode step.
        self.endpoint_mut()
            .resident_shared(id)
            .ok_or_else(|| MinosError::UnknownObject(id.to_string()))
    }
}

#[cfg(test)]
mod store_tests {
    use super::*;
    use crate::session::BrowsingSession;
    use minos_corpus::objects::archived_form;
    use minos_net::Link;
    use minos_text::PaginateConfig;
    use minos_types::SimDuration;

    #[test]
    fn miniature_browser_query_to_selection() {
        let mut server = ObjectServer::new();
        for i in 0..4u64 {
            let obj = minos_corpus::office_document(ObjectId::new(i + 1), i, 2);
            server.publish(obj.clone(), &archived_form(&obj)).unwrap();
        }
        let mut ws = Client::new(server, Link::ethernet());
        let mut browser = MiniatureBrowser::query(&mut ws, &["chapter"]).unwrap();
        assert_eq!(browser.len(), 4);
        let (first, mini) = browser.current().unwrap();
        assert_eq!(first, ObjectId::new(1));
        assert!(!mini.is_blank());
        browser.advance();
        browser.advance();
        assert_eq!(browser.select(), Some(ObjectId::new(3)));
        browser.previous();
        assert_eq!(browser.select(), Some(ObjectId::new(2)));
        // Clamping at both ends.
        browser.previous();
        browser.previous();
        assert_eq!(browser.select(), Some(ObjectId::new(1)));
        for _ in 0..10 {
            browser.advance();
        }
        assert_eq!(browser.select(), Some(ObjectId::new(4)));
    }

    #[test]
    fn empty_query_result_is_empty_browser() {
        let server = ObjectServer::new();
        let mut ws = Client::new(server, Link::ethernet());
        let browser = MiniatureBrowser::query(&mut ws, &["nothing"]).unwrap();
        assert!(browser.is_empty());
        assert_eq!(browser.current(), None);
        assert_eq!(browser.select(), None);
    }

    #[test]
    fn session_over_the_server_store_follows_relevant_links() {
        let (parent, overlays) = minos_corpus::subway_map_object(
            ObjectId::new(1),
            ObjectId::new(2),
            ObjectId::new(3),
            7,
        );
        let mut server = ObjectServer::new();
        server.publish(parent.clone(), &archived_form(&parent)).unwrap();
        for o in overlays {
            let a = archived_form(&o);
            server.publish(o, &a).unwrap();
        }
        let ws = Client::new(server, Link::ethernet());
        let (mut session, _) = BrowsingSession::open(
            ws,
            ObjectId::new(1),
            PaginateConfig::default(),
            SimDuration::from_secs(5),
        )
        .unwrap();
        session.apply(crate::command::BrowseCommand::SelectRelevant(0)).unwrap();
        assert_eq!(session.object().id, ObjectId::new(2));
        session.apply(crate::command::BrowseCommand::ReturnFromRelevant).unwrap();
        assert_eq!(session.object().id, ObjectId::new(1));
    }

    #[test]
    fn a_session_over_the_server_store_holds_the_resident_object() {
        let (parent, overlays) = minos_corpus::subway_map_object(
            ObjectId::new(1),
            ObjectId::new(2),
            ObjectId::new(3),
            7,
        );
        let mut server = ObjectServer::new();
        for object in [parent].into_iter().chain(overlays) {
            let archived = archived_form(&object);
            server.publish(object, &archived).unwrap();
        }
        let ws = Client::new(server, Link::ethernet());
        let config = PaginateConfig::default();
        let (mut session, _) =
            BrowsingSession::open(ws, ObjectId::new(1), config, SimDuration::from_secs(5)).unwrap();
        session.apply(crate::command::BrowseCommand::SelectRelevant(0)).unwrap();
        let resident = session.store().endpoint().resident_shared(ObjectId::new(2));
        let resident = resident.expect("the overlay is resident");
        // The entered object is the server's own `Rc`, not a copy of it.
        assert!(std::ptr::eq(session.object(), Rc::as_ptr(&resident)));
    }
}

//! The workstation side of the architecture.
//!
//! "The multimedia object presentation manager resides in the user's
//! workstation and requests the appropriate pieces of information from the
//! multimedia object server subsystems." (§5)
//!
//! A [`Workstation`] talks to one [`ObjectServer`] over a link and accounts
//! for every simulated microsecond and byte: request transfer, server
//! device time, response transfer. Experiments E5 (views vs whole images)
//! and E6 (miniature-first browsing) read their numbers from here.
//!
//! Underneath, every request travels on a [`Connection`]: the pipelined
//! [`Client`] of [`crate::transport`] over a single server.
//! [`Connection::submit`] puts a request on the wire and returns a
//! [`Ticket`] at once, so several requests overlap link transfer with
//! device time; [`Client::wait`] collects the response and charges only
//! the time the caller actually had to wait. What is particular to one server lives here: on a clean link
//! requests travel as typed frames — never encoded, no deadline armed —
//! and a leading run of adjacent span fetches is served as one device read
//! and one merged response transfer (the §5 anticipatory shape). The
//! blocking [`Workstation::request`]/[`Workstation::request_batch`] calls
//! are thin submit-then-wait shims over this pipeline.

use crate::transport::{
    Backend, Client, Landed, PendingFrame, TransportStats, CONN_ID, DEFAULT_WINDOW,
};
use minos_image::{Bitmap, View};
use minos_net::{FaultPlan, Frame, FramePayload, Link, ServerRequest, ServerResponse};
use minos_object::{ArchivedObject, DataKind, DataPayload};
use minos_server::ObjectServer;
use minos_types::{ByteSpan, MinosError, ObjectId, Rect, Result, SimDuration, Size};
use std::collections::VecDeque;

/// A handle to a submitted, not-yet-collected request on a [`Connection`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

/// A pipelined connection to one [`ObjectServer`] over a link.
pub type Connection = Client<ObjectServer>;

/// One server: requests are handled directly (there is no service queue
/// between the wire and the device), so it never answers `Busy` and has
/// nowhere to fail over to.
impl Backend for ObjectServer {
    type Ticket = Ticket;
    type Route = ();
    const KEEPS_STATE: bool = false;
    /// A single server runs no heartbeats: every dispatch sees the
    /// current epoch first.
    const RESYNC_AFTER_TIMERS: bool = false;

    fn ticket_id(ticket: Ticket) -> u64 {
        ticket.0
    }

    fn members(&self) -> usize {
        1
    }

    fn member_epoch(&self, _member: usize) -> u64 {
        self.epoch()
    }

    fn serve(&mut self, _member: usize, request: &ServerRequest) -> (ServerResponse, SimDuration) {
        self.handle(request)
    }

    /// Moves every pending frame through the server device and the
    /// downlink. Coalescing applies only on clean links: a mangled merged
    /// frame would lose the whole run to one bit flip, so faulty links keep
    /// per-request frames (integrity and retransmission are per frame).
    fn dispatch(conn: &mut Connection) {
        loop {
            let run_len = if conn.link.is_clean() { leading_span_run(&conn.pending[0]) } else { 1 };
            if run_len > 1 {
                let run: Vec<PendingFrame> = conn.pending[0].drain(..run_len).collect();
                conn.dispatch_coalesced(&run);
                continue;
            }
            let Some(p) = conn.pending[0].pop_front() else { break };
            let (response, took) = match p.frame.as_request() {
                Some(request) => conn.server.handle(request),
                None => (
                    ServerResponse::Error("pending frame carried no request".into()),
                    SimDuration::ZERO,
                ),
            };
            let done = p.arrival.max(conn.dev_free[0]) + took;
            conn.dev_free[0] = done;
            conn.land(p.frame.request_id, response, done);
        }
    }
}

/// Length of the leading run of adjacent span fetches in `pending`.
fn leading_span_run(pending: &VecDeque<PendingFrame>) -> usize {
    let mut len = 0;
    let mut prev_end: Option<u64> = None;
    for p in pending {
        let Some(span) = p.frame.as_request().and_then(|r| r.as_span()) else {
            break;
        };
        if prev_end.is_some_and(|end| end != span.start) {
            break;
        }
        prev_end = Some(span.end);
        len += 1;
    }
    len
}

impl Connection {
    /// Opens a connection to `server` over `link` with the default
    /// in-flight window.
    pub fn new(server: ObjectServer, link: Link) -> Self {
        Connection::with_window(server, link, DEFAULT_WINDOW)
    }

    /// Opens a connection with an explicit in-flight window capacity
    /// (capacity 1 degenerates to the old blocking discipline).
    pub fn with_window(server: ObjectServer, link: Link, window: usize) -> Self {
        Connection::with_faults(server, link, window, FaultPlan::none())
    }

    /// Opens a connection whose link misbehaves according to `plan`. With
    /// a clean plan this is byte-for-byte identical to [`Connection::new`];
    /// otherwise every frame crosses the fault layer and the recovery
    /// machinery (deadlines, retransmission, duplicate suppression)
    /// engages.
    pub fn with_faults(server: ObjectServer, link: Link, window: usize, plan: FaultPlan) -> Self {
        Client::open(server, link, window, plan)
    }

    /// The wrapped server.
    pub fn endpoint(&self) -> &ObjectServer {
        &self.server
    }

    /// Mutable server access.
    pub fn endpoint_mut(&mut self) -> &mut ObjectServer {
        &mut self.server
    }

    /// Submits one request, charging its uplink transfer, and returns a
    /// ticket for collecting the response later. If the in-flight window
    /// is exhausted the call first waits out the oldest response (the
    /// pipelined analogue of blocking); on a faulty link a slot whose
    /// response was lost is forced through the timeout machinery instead
    /// of being overrun.
    pub fn submit(&mut self, request: ServerRequest) -> Ticket {
        if !self.link.is_clean() {
            return self.submit_ref(&request);
        }
        Ticket(self.submit_typed(request))
    }

    /// [`Connection::submit`] from a borrowed request, never cloning:
    /// plain-value requests are copied field-for-field onto the clean
    /// path's typed frame, and anything that owns heap data (or any
    /// request on a faulty link) encodes straight from the borrow into a
    /// pooled buffer.
    pub fn submit_ref(&mut self, request: &ServerRequest) -> Ticket {
        match request.plain_copy() {
            Some(copy) if self.link.is_clean() => self.submit(copy),
            _ => {
                let request_id = self.admit_slot();
                self.submit_encoded(request_id, 0, (), request);
                Ticket(request_id)
            }
        }
    }

    /// Serves a run of adjacent span fetches as one device read and one
    /// merged downlink transfer, slicing the bytes back per request.
    fn dispatch_coalesced(&mut self, run: &[PendingFrame]) {
        let spans: Vec<ByteSpan> =
            run.iter().filter_map(|p| p.frame.as_request().and_then(|r| r.as_span())).collect();
        let (Some(first), Some(last), Some(tail)) = (spans.first(), spans.last(), run.last())
        else {
            return;
        };
        let whole = ByteSpan::new(first.start, last.end);
        let (response, took) = self.server.handle(&ServerRequest::FetchSpan { span: whole });
        let done = tail.arrival.max(self.dev_free[0]) + took;
        self.dev_free[0] = done;
        match response {
            ServerResponse::Span(bytes) => {
                // One merged response frame carries the whole run's bytes;
                // the probe computes its wire size without copying them.
                let probe =
                    Frame::response(CONN_ID, tail.frame.request_id, ServerResponse::Span(bytes));
                let down = self.link.charge(probe.wire_size());
                let delivered = done.max(self.down_free) + down;
                self.down_free = delivered;
                let bytes = match probe.payload {
                    FramePayload::Response(ServerResponse::Span(bytes)) => bytes,
                    _ => Vec::new(),
                };
                for (p, span) in run.iter().zip(&spans) {
                    let from = (span.start - whole.start) as usize;
                    let sliced = match bytes.get(from..from + span.len() as usize) {
                        Some(slice) => {
                            // Per-request payloads come out of the pool, so a
                            // steady-state pipeline re-serves the same buffers
                            // instead of allocating per page.
                            let mut payload = self.lease();
                            payload.extend_from_slice(slice);
                            ServerResponse::Span(payload)
                        }
                        None => ServerResponse::Error(format!(
                            "coalesced read lost {span} inside {whole}"
                        )),
                    };
                    self.landed.insert(
                        p.frame.request_id,
                        Landed { response: sliced, ready_at: delivered },
                    );
                }
                // The merged carrier buffer has been sliced apart; hand it
                // back so the next merged read reuses it.
                self.pool.recycle(bytes);
            }
            other => {
                let message = match other {
                    ServerResponse::Error(message) => message,
                    other => format!("unexpected response {other:?}"),
                };
                for (i, p) in run.iter().enumerate() {
                    // Each request owns an error naming its slice of the
                    // merged read — built once per request, not cloned
                    // from a shared buffer.
                    let detail = match spans.get(i) {
                        Some(span) => {
                            format!("coalesced read {whole} failed for {span}: {message}")
                        }
                        None => format!("coalesced read {whole} failed: {message}"),
                    };
                    self.land(p.frame.request_id, ServerResponse::Error(detail), done);
                }
            }
        }
    }
}

/// The workstation: a server endpoint reached over a link, with full time
/// and transfer accounting. All blocking entry points are submit-then-wait
/// shims over the pipelined [`Connection`].
pub struct Workstation {
    conn: Connection,
}

impl Workstation {
    /// Connects a workstation to `endpoint` over `link`.
    pub fn new(server: ObjectServer, link: Link) -> Self {
        Workstation { conn: Connection::new(server, link) }
    }

    /// Connects a workstation whose link misbehaves according to `plan`;
    /// the connection's recovery machinery keeps the blocking entry points
    /// working (lost frames retransmit transparently, exhausted requests
    /// surface as protocol errors).
    pub fn with_faults(server: ObjectServer, link: Link, plan: FaultPlan) -> Self {
        Workstation { conn: Connection::with_faults(server, link, DEFAULT_WINDOW, plan) }
    }

    /// Recovery accounting (timeouts, retries, corrupt frames, duplicates).
    pub fn transport_stats(&self) -> TransportStats {
        self.conn.transport_stats()
    }

    /// Total simulated time spent so far.
    pub fn elapsed(&self) -> SimDuration {
        self.conn.elapsed()
    }

    /// Payload bytes moved over the link so far.
    pub fn bytes_transferred(&self) -> u64 {
        self.conn.bytes_transferred()
    }

    /// Request/response round trips so far (a batch or pipelined burst
    /// counts as one — that is its point).
    pub fn round_trips(&self) -> u64 {
        self.conn.round_trips()
    }

    /// Hands a consumed payload buffer back to the connection's pool (see
    /// [`Connection::recycle_payload`]).
    pub fn recycle_payload(&mut self, buf: Vec<u8>) {
        self.conn.recycle_payload(buf);
    }

    /// The wrapped endpoint.
    pub fn endpoint_mut(&mut self) -> &mut ObjectServer {
        self.conn.endpoint_mut()
    }

    /// The underlying pipelined connection.
    pub fn connection(&self) -> &Connection {
        &self.conn
    }

    /// Mutable access to the pipelined connection, for callers that want
    /// to overlap submissions instead of blocking per request.
    pub fn connection_mut(&mut self) -> &mut Connection {
        &mut self.conn
    }

    /// Issues one request, charging request transfer + server device time
    /// + response transfer, and surfacing server-side errors.
    pub fn request(&mut self, request: &ServerRequest) -> Result<ServerResponse> {
        let ticket = self.conn.submit_ref(request);
        let (response, _) = self.conn.wait(ticket)?;
        if let ServerResponse::Error(message) = response {
            return Err(MinosError::Protocol(message));
        }
        Ok(response)
    }

    /// Issues several requests as one pipelined burst, returning one
    /// response per request in order. The burst counts as a single round
    /// trip; adjacent span fetches coalesce into one device read and one
    /// merged response transfer; per-request failures come back as inline
    /// [`ServerResponse::Error`] entries rather than failing the call.
    pub fn request_batch(&mut self, requests: Vec<ServerRequest>) -> Result<Vec<ServerResponse>> {
        let tickets: Vec<Ticket> = requests.into_iter().map(|r| self.conn.submit(r)).collect();
        tickets.into_iter().map(|t| self.conn.wait(t).map(|(response, _)| response)).collect()
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
        match self.request(&ServerRequest::FetchMiniature { id })? {
            ServerResponse::Miniature(bytes) => {
                DataPayload { kind: DataKind::Image, bytes }.as_image()
            }
            other => Err(MinosError::Protocol(format!("unexpected response {other:?}"))),
        }
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
    /// qualifying objects in order, returning `(id, miniature)` pairs.
    pub fn miniature_stream(&mut self, hits: &[ObjectId]) -> Result<Vec<(ObjectId, Bitmap)>> {
        hits.iter().map(|&id| Ok((id, self.fetch_miniature(id)?))).collect()
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
    pub fn fetch(&self, ws: &mut Workstation) -> Result<Bitmap> {
        ws.fetch_view(self.object, self.image, self.view.rect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_corpus::objects::archived_form;
    use minos_corpus::{medical_report, subway_map_object};
    use minos_image::view::MoveDirection;
    use minos_server::ObjectServer;

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

    fn workstation() -> (Workstation, u64) {
        let (server, base) = server();
        (Workstation::new(server, Link::ethernet()), base)
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
        for &id in &ids {
            serial.fetch_miniature(id).unwrap();
        }
        batched
            .request_batch(ids.iter().map(|&id| ServerRequest::FetchMiniature { id }).collect())
            .unwrap();
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
        let conn = pipelined.connection_mut();
        let tickets: Vec<Ticket> =
            ids.iter().map(|&id| conn.submit(ServerRequest::FetchMiniature { id })).collect();
        assert_eq!(conn.in_flight(), 3, "nothing collected yet");
        for ticket in tickets {
            let (response, _) = conn.wait(ticket).unwrap();
            assert!(matches!(response, ServerResponse::Miniature(_)));
        }
        assert_eq!(conn.in_flight(), 0);
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
        let (mut ws, _) = workstation();
        let conn = ws.connection_mut();
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
    fn adjacent_span_submissions_coalesce_on_the_wire() {
        let mut server = ObjectServer::new();
        let data: Vec<u8> = (0..32_768u32).map(|i| (i % 251) as u8).collect();
        let (record, _) = server.archiver_mut().store(ObjectId::new(9), &data).unwrap();
        let chunk = record.span.len() / 4;

        let mut serial = Workstation::new(server, Link::ethernet());
        let spans: Vec<minos_types::ByteSpan> = (0..4)
            .map(|i| minos_types::ByteSpan::at(record.span.start + i * chunk, chunk))
            .collect();
        for &span in &spans {
            serial.request(&ServerRequest::FetchSpan { span }).unwrap();
        }
        let serial_stats = serial.connection().link_stats();
        assert_eq!(serial_stats.messages, 8, "4 requests + 4 responses");

        let mut server = ObjectServer::new();
        server.archiver_mut().store(ObjectId::new(9), &data).unwrap();
        let mut pipelined = Workstation::new(server, Link::ethernet());
        let conn = pipelined.connection_mut();
        let tickets: Vec<Ticket> =
            spans.iter().map(|&span| conn.submit(ServerRequest::FetchSpan { span })).collect();
        for (ticket, span) in tickets.into_iter().zip(&spans) {
            let (response, _) = conn.wait(ticket).unwrap();
            let ServerResponse::Span(bytes) = response else {
                panic!("unexpected response for {span}");
            };
            let expect: Vec<u8> =
                (span.start..span.end).map(|b| (b as usize % 251) as u8).collect();
            assert_eq!(bytes, expect, "coalesced slice for {span}");
        }
        let stats = pipelined.connection().link_stats();
        assert_eq!(stats.messages, 5, "4 requests + 1 merged response");
        assert!(
            stats.bytes < serial_stats.bytes,
            "merged {} vs serial {} bytes",
            stats.bytes,
            serial_stats.bytes
        );
        assert!(pipelined.elapsed() < serial.elapsed());
    }

    #[test]
    fn waiting_on_an_unknown_ticket_is_a_protocol_error() {
        let (mut ws, _) = workstation();
        let conn = ws.connection_mut();
        let ticket = conn.submit(ServerRequest::Query { keywords: vec!["shadow".into()] });
        assert!(conn.wait(ticket).is_ok());
        assert!(matches!(conn.wait(ticket), Err(MinosError::Protocol(_))), "double collection");
    }

    #[test]
    fn corrupted_frames_are_retransmitted_to_completion() {
        let (faulty_server, base) = server();
        let mut ws = Workstation::with_faults(
            faulty_server,
            Link::ethernet(),
            minos_net::FaultPlan::corrupting(1234, 0.2),
        );
        let (clean_server, _) = server();
        let mut clean = Workstation::new(clean_server, Link::ethernet());
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
        assert_eq!(ws.connection().in_flight(), 0);
    }

    #[test]
    fn exhausted_retries_surface_as_inline_errors() {
        let (server, _) = server();
        let link = Link::ethernet();
        let mut conn = Connection::with_faults(
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
        let mut conn = Connection::with_faults(server, Link::ethernet(), DEFAULT_WINDOW, plan);
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
        let mut conn = Connection::with_faults(
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
        let mut baseline = Connection::new(baseline_server, Link::ethernet());
        let spans: Vec<ByteSpan> = (0..3).map(|i| ByteSpan::at(base + i * 512, 512)).collect();
        let expect: Vec<ServerResponse> = spans
            .iter()
            .map(|&span| {
                let t = baseline.submit(ServerRequest::FetchSpan { span });
                baseline.wait(t).unwrap().0
            })
            .collect();

        let (restart_server, _) = server();
        let mut conn = Connection::new(restart_server, Link::ethernet());
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
        let mut conn = Connection::with_faults(
            server,
            Link::ethernet(),
            4,
            minos_net::FaultPlan::chaos(23, 0.3),
        )
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
        let mut bare = Workstation::new(bare_server, Link::ethernet());
        let (planned_server, _) = server();
        let mut clean_plan = Workstation::with_faults(
            planned_server,
            Link::ethernet(),
            minos_net::FaultPlan::none(),
        );
        for ws in [&mut bare, &mut clean_plan] {
            ws.query(&["shadow"]).unwrap();
            ws.fetch_miniature(ObjectId::new(2)).unwrap();
        }
        assert_eq!(bare.connection().link_stats(), clean_plan.connection().link_stats());
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
        let mut one = Connection::with_window(server, Link::ethernet(), 1);
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
        let mut conn = Connection::with_faults(
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
        assert!(stats.pool_misses > 0, "the first lease has nothing to reuse: {stats:?}");
        assert!(
            stats.pool_hits > stats.pool_misses,
            "steady state must re-serve recycled buffers: {stats:?}"
        );
        assert_eq!(
            stats.payload_allocs, stats.pool_misses,
            "every fresh allocation on this path is a pool miss: {stats:?}"
        );
    }

    #[test]
    fn coalesced_span_payloads_recycle_through_the_pool() {
        // A coalesced run slices per-request payloads out of one merged
        // response. Those slices lease from the pool; a caller that hands
        // consumed payloads back via recycle_payload keeps the allocation
        // count flat across rounds.
        let (server, base) = server();
        let mut conn = Connection::new(server, Link::ethernet());
        let spans: Vec<ByteSpan> = (0..3).map(|i| ByteSpan::at(base + i * 512, 512)).collect();
        let mut misses_after_first_round = 0;
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
            if round == 0 {
                misses_after_first_round = conn.transport_stats().pool_misses;
                assert!(misses_after_first_round > 0);
            }
        }
        let stats = conn.transport_stats();
        assert_eq!(
            stats.pool_misses, misses_after_first_round,
            "later rounds must not allocate: {stats:?}"
        );
        assert!(stats.pool_hits >= 6, "rounds two and three are all pool hits: {stats:?}");
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
    pub fn query(ws: &mut Workstation, keywords: &[&str]) -> Result<MiniatureBrowser> {
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
/// targets through the workstation, charging the link for each object's
/// archived size — the architecture of §5 end to end.
impl crate::session::ObjectStore for Workstation {
    fn fetch(&mut self, id: ObjectId) -> Result<minos_object::MultimediaObject> {
        // Charge the transfer of the archived form over the link.
        let request = ServerRequest::FetchObject { id };
        let response = self.request(&request)?;
        let ServerResponse::Object(_) = response else {
            return Err(MinosError::Protocol(format!("unexpected response to {request:?}")));
        };
        // The typed form is reconstructed workstation-side; the server's
        // resident copy stands in for that decode step.
        self.endpoint_mut()
            .resident_object(id)
            .cloned()
            .ok_or_else(|| MinosError::UnknownObject(id.to_string()))
    }
}

#[cfg(test)]
mod store_tests {
    use super::*;
    use crate::session::BrowsingSession;
    use minos_corpus::objects::archived_form;
    use minos_text::PaginateConfig;
    use minos_types::SimDuration;

    #[test]
    fn miniature_browser_query_to_selection() {
        let mut server = ObjectServer::new();
        for i in 0..4u64 {
            let obj = minos_corpus::office_document(ObjectId::new(i + 1), i, 2);
            server.publish(obj.clone(), &archived_form(&obj)).unwrap();
        }
        let mut ws = Workstation::new(server, Link::ethernet());
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
        let mut ws = Workstation::new(server, Link::ethernet());
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
        let ws = Workstation::new(server, Link::ethernet());
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
}

//! The object server.
//!
//! Serves the protocol of [`minos_net::protocol`] against an optical-disk
//! archiver with an optional magnetic-backed block cache. Every reply
//! reports the simulated device time it cost; the caller adds link time.
//! The server keeps the typed form of each published object so it can
//! render view windows and miniatures server-side — shipping a window or a
//! miniature instead of the whole image is the point of experiments E5/E6.

use crate::index::InvertedIndex;
use crate::service::{ServiceConfig, ServiceQueue, ServiceStats};
use minos_image::{Bitmap, Miniature};
use minos_net::{BufferPool, Frame, ServerRequest, ServerResponse};
use minos_object::{ArchivedObject, DataPayload, MultimediaObject};
use minos_storage::{Archiver, OpticalDisk};
use minos_types::{ByteSpan, MinosError, ObjectId, Result, SimDuration};
use std::collections::HashMap;

/// What `publish` returns: where the archived bytes went and what storing
/// them cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PublishReceipt {
    /// The stored region on the optical disk.
    pub span: ByteSpan,
    /// Device time charged for the store.
    pub store_time: SimDuration,
}

/// Rendered rasters of an object's images, cached server-side so repeated
/// view requests do not re-rasterize graphics.
struct RenderedObject {
    object: MultimediaObject,
    rasters: Vec<Bitmap>,
    miniature: Miniature,
}

/// The multimedia object server.
pub struct ObjectServer {
    archiver: Archiver<OpticalDisk>,
    index: InvertedIndex,
    resident: HashMap<ObjectId, RenderedObject>,
    miniature_factor: u32,
    service: ServiceQueue,
    /// Recycled payload buffers for span reads: steady-state serving
    /// re-fills returned buffers instead of allocating one per page.
    pool: BufferPool,
    epoch: u64,
}

impl ObjectServer {
    /// A server over a fresh optical disk. (Block caching is a storage-
    /// layer concern; experiment E7 wraps the optical device in a
    /// [`minos_storage::BlockCache`] directly.)
    pub fn new() -> Self {
        Self::with_disk(OpticalDisk::new())
    }

    /// A server over an explicitly configured disk — the fault experiments
    /// hand in an aging [`OpticalDisk`] whose reads transiently fail, and
    /// every such failure must come back as an inline
    /// [`ServerResponse::Error`], never a panic or a lost request.
    pub fn with_disk(disk: OpticalDisk) -> Self {
        ObjectServer {
            archiver: Archiver::new(disk),
            index: InvertedIndex::new(),
            resident: HashMap::new(),
            miniature_factor: 8,
            service: ServiceQueue::default(),
            pool: BufferPool::new(),
            epoch: 0,
        }
    }

    /// Leases a payload buffer from the server's pool, recording the
    /// hit/miss in the service accounting.
    fn lease_payload(&mut self) -> Vec<u8> {
        let hit = self.pool.free_buffers() > 0;
        self.service.note_pool(hit);
        self.pool.lease_vec()
    }

    /// Hands a consumed payload buffer back to the server's pool. Harness
    /// code that drains served span frames returns the buffers here so the
    /// steady-state serving loop stops allocating per page.
    pub fn recycle_payload(&mut self, buf: Vec<u8>) {
        self.pool.recycle(buf);
    }

    /// Leases span payloads from `pool` from now on, dropping the server's
    /// own. A client that shares its pool with the servers it reads from
    /// recycles each collected page into the pool that leased it, so the
    /// next read reuses the buffer instead of allocating one.
    pub fn adopt_pool(&mut self, pool: BufferPool) {
        self.pool = pool;
    }

    /// Replaces the service queue's admission configuration (queued work
    /// is kept; only the caps and retry hint change).
    pub fn set_service_config(&mut self, config: ServiceConfig) {
        self.service.set_config(config);
    }

    /// The admission configuration in force.
    pub fn service_config(&self) -> ServiceConfig {
        self.service.config()
    }

    /// The server's current epoch. Bumped by every [`ObjectServer::restart`];
    /// a client that last saw an older epoch knows its in-flight window
    /// was lost and must be replayed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Simulates a server restart: everything in volatile memory — queued
    /// request frames and staged responses — is lost, the epoch is bumped,
    /// and the durable state (archived objects, the index, rendered
    /// residents) survives. Service accounting is the harness's view, not
    /// the server's, so it survives too.
    ///
    /// The wake list is rebuilt rather than carried over: stale entries
    /// would name connections whose frames evaporated with the queues,
    /// while the connections that actually lost work are re-marked woken
    /// so an event-driven scheduler revisits exactly those and notices
    /// (via the epoch handshake) that a replay is due.
    pub fn restart(&mut self) {
        self.epoch += 1;
        let orphans = self.service.clear_queues();
        for conn in orphans {
            self.service.wake(conn);
        }
    }

    /// The archiver (for experiment setup: request spans, device stats).
    pub fn archiver(&self) -> &Archiver<OpticalDisk> {
        &self.archiver
    }

    /// Mutable archiver access.
    pub fn archiver_mut(&mut self) -> &mut Archiver<OpticalDisk> {
        &mut self.archiver
    }

    /// The content index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Publishes an object: stores its archived bytes at the current
    /// frontier, indexes its content, renders its images, and builds its
    /// miniature.
    pub fn publish(
        &mut self,
        object: MultimediaObject,
        archived: &ArchivedObject,
    ) -> Result<PublishReceipt> {
        if !object.is_archived() {
            return Err(MinosError::WrongState(format!(
                "{} must be archived before publishing",
                object.id
            )));
        }
        let base = self.archiver.next_offset();
        let bytes = archived.encode_for_archive(base);
        let (record, store_time) = self.archiver.store(object.id, &bytes)?;
        self.index.index_object(&object);
        let rasters: Vec<Bitmap> = object.images.iter().map(|i| i.render()).collect();
        let miniature_source = rasters.first().cloned().unwrap_or_else(|| {
            // Text/voice-only objects get a schematic first-page miniature:
            // one stripe per text paragraph, or a blank card for pure voice.
            let mut bm = Bitmap::new(160, 120);
            if let Some(doc) = object.text_segments.first() {
                for (i, _) in doc.tree().paragraphs.iter().enumerate().take(14) {
                    let y = 8 + i as i32 * 8;
                    for x in 8..152 {
                        bm.set(x, y, true);
                    }
                }
            }
            bm
        });
        let miniature = Miniature::build(&miniature_source, self.miniature_factor);
        self.resident.insert(object.id, RenderedObject { object, rasters, miniature });
        Ok(PublishReceipt { span: record.span, store_time })
    }

    /// The archived region of `id` (latest version), for queueing
    /// workloads.
    pub fn record_span(&self, id: ObjectId) -> Result<ByteSpan> {
        Ok(self.archiver.latest(id)?.span)
    }

    /// Handles one protocol request, returning the response and the device
    /// time it cost the server.
    pub fn handle(&mut self, request: &ServerRequest) -> (ServerResponse, SimDuration) {
        match self.try_handle(request) {
            Ok(ok) => ok,
            Err(e) => (ServerResponse::Error(e.to_string()), SimDuration::ZERO),
        }
    }

    fn try_handle(&mut self, request: &ServerRequest) -> Result<(ServerResponse, SimDuration)> {
        match request {
            ServerRequest::FetchObject { id } => {
                let (bytes, took) = self.archiver.fetch_latest(*id)?;
                Ok((ServerResponse::Object(bytes), took))
            }
            ServerRequest::FetchSpan { span } => {
                let mut bytes = self.lease_payload();
                let took = self.archiver.read_at_into(*span, &mut bytes)?;
                Ok((ServerResponse::Span(bytes), took))
            }
            ServerRequest::FetchView { id, tag, rect } => {
                let resident = self
                    .resident
                    .get(id)
                    .ok_or_else(|| MinosError::UnknownObject(id.to_string()))?;
                let image_index: usize = tag.parse().map_err(|_| {
                    MinosError::UnknownComponent(format!("image tag {tag:?} (expected index)"))
                })?;
                let raster = resident.rasters.get(image_index).ok_or_else(|| {
                    MinosError::UnknownComponent(format!("{id} image {image_index}"))
                })?;
                let clamped = rect.clamp_within(raster.bounds());
                let window = raster.extract(clamped)?;
                // The device is charged for the *window's* bytes read from
                // the image region — the E5 claim made concrete.
                let record = self.archiver.latest(*id)?;
                let window_bytes = window.byte_size().min(record.span.len());
                let span = ByteSpan::at(record.span.start, window_bytes);
                let (_, took) = self.archiver.read_at(span)?;
                Ok((ServerResponse::View(DataPayload::image(&window).bytes), took))
            }
            ServerRequest::FetchMiniature { id } => {
                let resident = self
                    .resident
                    .get(id)
                    .ok_or_else(|| MinosError::UnknownObject(id.to_string()))?;
                let mini = resident.miniature.raster().clone();
                let record = self.archiver.latest(*id)?;
                let bytes = mini.byte_size().min(record.span.len());
                let span = ByteSpan::at(record.span.start, bytes);
                let (_, took) = self.archiver.read_at(span)?;
                Ok((ServerResponse::Miniature(DataPayload::image(&mini).bytes), took))
            }
            ServerRequest::Query { keywords } => {
                // Index is memory-resident; queries cost no device time.
                Ok((ServerResponse::Hits(self.index.query(keywords)), SimDuration::ZERO))
            }
            ServerRequest::QueryAttribute { name, value } => Ok((
                ServerResponse::Hits(self.index.query_attribute(name, value)),
                SimDuration::ZERO,
            )),
            ServerRequest::Batch { requests } => self.handle_batch(requests),
            // The epoch handshake: answered from memory, no device time.
            ServerRequest::Hello { .. } => {
                Ok((ServerResponse::Welcome { epoch: self.epoch }, SimDuration::ZERO))
            }
            // A load probe reports the current retry hint without queueing
            // anything; an idle server answers with a zero wait.
            ServerRequest::Probe => Ok((
                ServerResponse::Busy { retry_after: self.service.retry_hint() },
                SimDuration::ZERO,
            )),
            // The heartbeat echo: answered from memory like the handshake,
            // carrying the current epoch so an idle client's health monitor
            // notices a restart without submitting any work.
            ServerRequest::Ping { nonce } => {
                Ok((ServerResponse::Pong { nonce: *nonce, epoch: self.epoch }, SimDuration::ZERO))
            }
        }
    }

    /// Answers a prefetch batch in one round trip.
    ///
    /// Individual failures become inline [`ServerResponse::Error`] entries
    /// so one bad prediction cannot sink the rest of the batch. Runs of
    /// *adjacent* span fetches — the common case, since anticipated pages
    /// are contiguous on the write-once disk — are coalesced into a single
    /// device read: the actuator pays one seek and one rotational delay for
    /// the merged span instead of one per page, and the bytes are sliced
    /// back into exact per-request responses.
    fn handle_batch(
        &mut self,
        requests: &[ServerRequest],
    ) -> Result<(ServerResponse, SimDuration)> {
        if requests.iter().any(|r| matches!(r, ServerRequest::Batch { .. })) {
            return Err(MinosError::Protocol("nested request batch".into()));
        }
        let mut responses = Vec::with_capacity(requests.len());
        let mut total = SimDuration::ZERO;
        let mut rest = requests;
        while let Some(request) = rest.first() {
            let run = Self::adjacent_span_run(rest);
            if let (Some(first), Some(last)) = (run.first(), run.last()) {
                if run.len() > 1 {
                    let whole = ByteSpan::new(first.start, last.end);
                    let mut merged = self.lease_payload();
                    match self.archiver.read_at_into(whole, &mut merged) {
                        Ok(took) => {
                            total += took;
                            for span in &run {
                                let from = (span.start - whole.start) as usize;
                                let to = from + span.len() as usize;
                                let Some(slice) = merged.get(from..to) else {
                                    return Err(MinosError::Internal(format!(
                                        "coalesced read lost {span}: {from}..{to} outside \
                                         {} bytes",
                                        merged.len()
                                    )));
                                };
                                let mut payload = self.lease_payload();
                                payload.extend_from_slice(slice);
                                responses.push(ServerResponse::Span(payload));
                            }
                        }
                        Err(e) => {
                            let msg = e.to_string();
                            responses
                                .extend(run.iter().map(|_| ServerResponse::Error(msg.clone())));
                        }
                    }
                    self.pool.recycle(merged);
                    rest = rest.get(run.len()..).unwrap_or_default();
                    continue;
                }
            }
            let (resp, took) = self.handle(request);
            total += took;
            responses.push(resp);
            rest = rest.get(1..).unwrap_or_default();
        }
        Ok((ServerResponse::Batch(responses), total))
    }

    /// The leading run of span fetches where each span starts exactly where
    /// the previous one ends (empty if the first request is not a span
    /// fetch).
    fn adjacent_span_run(requests: &[ServerRequest]) -> Vec<ByteSpan> {
        let mut run: Vec<ByteSpan> = Vec::new();
        for request in requests {
            match request {
                ServerRequest::FetchSpan { span }
                    if run.last().is_none_or(|prev| prev.end == span.start) =>
                {
                    run.push(*span);
                }
                _ => break,
            }
        }
        run
    }

    /// Accepts one framed request into the queued service loop. Only
    /// request frames may be enqueued; a response frame is a protocol
    /// violation and is rejected without queueing.
    pub fn enqueue(&mut self, frame: Frame) -> Result<()> {
        if frame.as_request().is_none() {
            return Err(MinosError::Protocol(format!(
                "connection {} enqueued a response frame as a request",
                frame.conn_id
            )));
        }
        self.service.admit(frame);
        Ok(())
    }

    /// Accepts one request frame from raw wire bytes. The frame is decoded
    /// — and its checksum trailer verified — before it may enter the
    /// service loop, so a frame mangled in transit is rejected as
    /// [`MinosError::Corrupt`] instead of being served with altered
    /// contents.
    pub fn enqueue_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        self.enqueue(Frame::decode(bytes)?)
    }

    /// Serves queued work and returns the next completed response frame,
    /// or `None` when the queue is idle. Connections are served in
    /// round-robin order, so one deep queue cannot starve the others;
    /// responses therefore complete out of request-arrival order.
    pub fn poll(&mut self) -> Option<Frame> {
        self.poll_timed().map(|(frame, _)| frame)
    }

    /// Like [`ObjectServer::poll`], but also reports the device time the
    /// response cost (a coalesced run's read time is split across its
    /// frames).
    pub fn poll_timed(&mut self) -> Option<(Frame, SimDuration)> {
        if let Some(out) = self.service.pop_ready() {
            return Some(out);
        }
        let conn = self.service.next_conn()?;
        self.serve_conn(conn);
        self.service.pop_ready()
    }

    /// Serves the head of one specific connection's queue, bypassing the
    /// round-robin rotation — the mechanism a deadline-aware scheduler
    /// (audio before text) uses to impose its own fairness policy.
    pub fn poll_conn(&mut self, conn_id: u64) -> Option<(Frame, SimDuration)> {
        if let Some(out) = self.service.pop_ready_for(conn_id) {
            return Some(out);
        }
        if !self.service.claim_conn(conn_id) {
            return None;
        }
        self.serve_conn(conn_id);
        self.service.pop_ready_for(conn_id)
    }

    /// Request frames queued and not yet served.
    pub fn pending_frames(&self) -> usize {
        self.service.pending()
    }

    /// Drains the connections with a response landed (served or rejected)
    /// since the last drain — the completion wake list. Event-driven
    /// callers collect their deliveries with per-connection polls of
    /// exactly these connections instead of polling all N.
    pub fn take_woken(&mut self) -> Vec<u64> {
        self.service.take_woken()
    }

    /// Empties the completion wake list without building it — for a
    /// caller with a single connection that polls it after every batch.
    pub fn clear_woken(&mut self) {
        self.service.clear_woken();
    }

    /// Accounting for the queued service loop.
    pub fn service_stats(&self) -> &ServiceStats {
        self.service.stats()
    }

    /// Serves one run from `conn`'s queue: a leading run of adjacent span
    /// fetches becomes a single coalesced device read sliced back into
    /// per-frame responses; anything else is served one frame at a time.
    fn serve_conn(&mut self, conn: u64) {
        let run = self.service.take_run(conn);
        if run.is_empty() {
            return;
        }
        let spans: Vec<ByteSpan> =
            run.iter().filter_map(|f| f.as_request().and_then(|r| r.as_span())).collect();
        if let (Some(head), Some(tail)) = (spans.first(), spans.last()) {
            if run.len() > 1 && spans.len() == run.len() {
                let whole = ByteSpan::new(head.start, tail.end);
                let mut merged = self.lease_payload();
                match self.archiver.read_at_into(whole, &mut merged) {
                    Ok(took) => {
                        self.service.note_coalesced();
                        let share = took / run.len() as u64;
                        let remainder = took - share * (run.len() as u64 - 1);
                        for (i, (frame, span)) in run.iter().zip(&spans).enumerate() {
                            let from = (span.start - whole.start) as usize;
                            let response = match merged.get(from..from + span.len() as usize) {
                                Some(slice) => {
                                    let mut payload = self.lease_payload();
                                    payload.extend_from_slice(slice);
                                    ServerResponse::Span(payload)
                                }
                                None => ServerResponse::Error(format!(
                                    "coalesced read lost {span} inside {whole}"
                                )),
                            };
                            let charge = if i == 0 { remainder } else { share };
                            self.service.finish(frame.reply(response), charge);
                        }
                    }
                    Err(e) => {
                        let message = e.to_string();
                        for frame in &run {
                            self.service.finish(
                                frame.reply(ServerResponse::Error(message.clone())),
                                SimDuration::ZERO,
                            );
                        }
                    }
                }
                self.pool.recycle(merged);
                return;
            }
        }
        for frame in run {
            let (response, took) = match frame.as_request() {
                Some(request) => self.handle(request),
                None => (
                    ServerResponse::Error("queued frame carried no request".into()),
                    SimDuration::ZERO,
                ),
            };
            self.service.finish(frame.reply(response), took);
        }
    }

    /// The typed object, if resident (used by the presentation manager
    /// after it has fetched the object).
    pub fn resident_object(&self, id: ObjectId) -> Option<&MultimediaObject> {
        self.resident.get(&id).map(|r| &r.object)
    }

    /// Number of published objects.
    pub fn object_count(&self) -> usize {
        self.resident.len()
    }
}

impl Default for ObjectServer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_net::FramePayload;
    use minos_object::{DrivingMode, FormatterSession};
    use minos_types::Rect;

    #[test]
    fn corrupt_wire_bytes_are_rejected_before_service() {
        let mut server = ObjectServer::new();
        make_published(&mut server, 1, "some indexed words here");
        let frame = Frame::request(1, 1, ServerRequest::Query { keywords: vec!["indexed".into()] });
        let bytes = frame.encode();
        // A single flipped bit anywhere must fail the checksum and keep the
        // frame out of the service loop entirely.
        let mut mangled = bytes.clone();
        if let Some(byte) = mangled.get_mut(2) {
            *byte ^= 0x10;
        }
        assert!(
            matches!(server.enqueue_bytes(&mangled), Err(MinosError::Corrupt(_))),
            "mangled bytes must be rejected as corrupt"
        );
        assert!(server.poll().is_none(), "nothing was queued by the rejected frame");
        // The intact bytes decode and serve normally.
        server.enqueue_bytes(&bytes).unwrap();
        let served = server.poll().expect("the intact frame was served");
        assert!(matches!(
            served.payload,
            FramePayload::Response(ServerResponse::Hits(ref hits)) if hits == &[ObjectId::new(1)]
        ));
    }

    #[test]
    fn degraded_disk_reads_surface_as_inline_errors() {
        // Every read on this disk fails; appends (publication) still work.
        let mut server = ObjectServer::with_disk(OpticalDisk::new().with_read_faults(3, 1.0));
        let id = make_published(&mut server, 7, "content on failing media");
        let (resp, took) = server.handle(&ServerRequest::FetchObject { id });
        assert!(matches!(resp, ServerResponse::Error(_)), "got {resp:?}");
        assert_eq!(took, SimDuration::ZERO, "a failed read charges no device time");
        // The service loop path degrades the same way: the request is
        // served, the failure rides inline, the queue does not jam.
        server.enqueue(Frame::request(1, 1, ServerRequest::FetchObject { id })).unwrap();
        let served = server.poll().expect("the queue kept moving");
        assert!(matches!(served.payload, FramePayload::Response(ServerResponse::Error(_))));
    }

    fn make_published(server: &mut ObjectServer, id: u64, body: &str) -> ObjectId {
        let oid = ObjectId::new(id);
        let mut session = FormatterSession::new(oid);
        session.set_synthesis(&format!("@object obj{id}\n.ch Content\n{body}\n")).unwrap();
        let file = session.build().unwrap();
        let archived = ArchivedObject::from_file(&file);
        let mut object = MultimediaObject::new(oid, format!("obj{id}"), DrivingMode::Visual);
        object.text_segments.push(minos_text::parse_markup(&format!("{body}\n")).unwrap());
        object.archive().unwrap();
        server.publish(object, &archived).unwrap();
        oid
    }

    fn published_with_image(server: &mut ObjectServer, id: u64, side: u32) -> ObjectId {
        let oid = ObjectId::new(id);
        let mut bm = Bitmap::new(side, side);
        for i in 0..side as i32 {
            bm.set(i, i, true);
        }
        let mut object = MultimediaObject::new(oid, "imgobj", DrivingMode::Visual);
        object.images.push(minos_image::Image::Bitmap(bm));
        object.archive().unwrap();
        let mut session = FormatterSession::new(oid);
        session.set_synthesis("@object imgobj\nplaceholder text\n").unwrap();
        let file = session.build().unwrap();
        server.publish(object, &ArchivedObject::from_file(&file)).unwrap();
        oid
    }

    #[test]
    fn publish_then_fetch_round_trips() {
        let mut server = ObjectServer::new();
        let id = make_published(&mut server, 1, "the optical archive");
        let (resp, took) = server.handle(&ServerRequest::FetchObject { id });
        match resp {
            ServerResponse::Object(bytes) => {
                let record = server.archiver().latest(id).unwrap();
                let back = ArchivedObject::decode_from_archive(&bytes, record.span.start).unwrap();
                assert_eq!(back.descriptor.object_id, id);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(took > SimDuration::ZERO);
        assert_eq!(server.object_count(), 1);
    }

    #[test]
    fn unarchived_objects_cannot_publish() {
        let mut server = ObjectServer::new();
        let object = MultimediaObject::new(ObjectId::new(1), "draft", DrivingMode::Visual);
        let mut session = FormatterSession::new(ObjectId::new(1));
        session.set_synthesis("@object draft\ntext\n").unwrap();
        let archived = ArchivedObject::from_file(&session.build().unwrap());
        assert!(server.publish(object, &archived).is_err());
    }

    #[test]
    fn queries_find_published_content() {
        let mut server = ObjectServer::new();
        make_published(&mut server, 1, "subway map of the city");
        make_published(&mut server, 2, "x-ray of the patient");
        let (resp, _) = server.handle(&ServerRequest::Query { keywords: vec!["x-ray".into()] });
        assert_eq!(resp, ServerResponse::Hits(vec![ObjectId::new(2)]));
        let (resp, _) = server.handle(&ServerRequest::Query { keywords: vec!["the".into()] });
        assert_eq!(resp, ServerResponse::Hits(vec![ObjectId::new(1), ObjectId::new(2)]));
    }

    #[test]
    fn view_ships_window_not_image() {
        let mut server = ObjectServer::new();
        let id = published_with_image(&mut server, 3, 1_000);
        let (resp, _) = server.handle(&ServerRequest::FetchView {
            id,
            tag: "0".into(),
            rect: Rect::new(100, 100, 200, 150),
        });
        let window_bytes = match resp {
            ServerResponse::View(bytes) => {
                let payload = DataPayload { kind: minos_object::DataKind::Image, bytes };
                let window = payload.as_image().unwrap();
                assert_eq!(window.size(), minos_types::Size::new(200, 150));
                // Diagonal pixels of the source appear view-relative.
                assert!(window.get(50, 50));
                payload.len()
            }
            other => panic!("unexpected {other:?}"),
        };
        let (resp_full, _) = server.handle(&ServerRequest::FetchView {
            id,
            tag: "0".into(),
            rect: Rect::new(0, 0, 1_000, 1_000),
        });
        let full_bytes = match resp_full {
            ServerResponse::View(bytes) => bytes.len() as u64,
            other => panic!("unexpected {other:?}"),
        };
        assert!(window_bytes * 20 < full_bytes, "window {window_bytes} vs full {full_bytes}");
    }

    #[test]
    fn view_requests_clamp_and_validate() {
        let mut server = ObjectServer::new();
        let id = published_with_image(&mut server, 4, 100);
        // Off-edge rect clamps.
        let (resp, _) = server.handle(&ServerRequest::FetchView {
            id,
            tag: "0".into(),
            rect: Rect::new(90, 90, 50, 50),
        });
        assert!(matches!(resp, ServerResponse::View(_)));
        // Bad image tag errors.
        let (resp, _) = server.handle(&ServerRequest::FetchView {
            id,
            tag: "map".into(),
            rect: Rect::new(0, 0, 10, 10),
        });
        assert!(matches!(resp, ServerResponse::Error(_)));
        let (resp, _) = server.handle(&ServerRequest::FetchView {
            id,
            tag: "7".into(),
            rect: Rect::new(0, 0, 10, 10),
        });
        assert!(matches!(resp, ServerResponse::Error(_)));
    }

    #[test]
    fn miniatures_are_much_smaller_than_objects() {
        let mut server = ObjectServer::new();
        let id = published_with_image(&mut server, 5, 800);
        let (mini_resp, _) = server.handle(&ServerRequest::FetchMiniature { id });
        let mini_size = match mini_resp {
            ServerResponse::Miniature(b) => b.len() as u64,
            other => panic!("unexpected {other:?}"),
        };
        let (obj_resp, _) = server.handle(&ServerRequest::FetchObject { id });
        let obj_size = match obj_resp {
            ServerResponse::Object(b) => b.len() as u64,
            other => panic!("unexpected {other:?}"),
        };
        // The object's archived bytes here are small (text placeholder),
        // but the miniature must beat the rendered image by ~factor².
        let full_image_bytes = Bitmap::new(800, 800).byte_size();
        assert!(mini_size * 30 < full_image_bytes, "{mini_size} vs {full_image_bytes}");
        let _ = obj_size;
    }

    #[test]
    fn text_only_objects_get_schematic_miniatures() {
        let mut server = ObjectServer::new();
        let id = make_published(&mut server, 6, "one paragraph.\n.pp\nanother paragraph.");
        let (resp, _) = server.handle(&ServerRequest::FetchMiniature { id });
        match resp {
            ServerResponse::Miniature(bytes) => {
                let payload = DataPayload { kind: minos_object::DataKind::Image, bytes };
                assert!(!payload.as_image().unwrap().is_blank());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_ids_yield_protocol_errors() {
        let mut server = ObjectServer::new();
        let ghost = ObjectId::new(404);
        for request in [
            ServerRequest::FetchObject { id: ghost },
            ServerRequest::FetchMiniature { id: ghost },
            ServerRequest::FetchView { id: ghost, tag: "0".into(), rect: Rect::new(0, 0, 1, 1) },
        ] {
            let (resp, took) = server.handle(&request);
            assert!(matches!(resp, ServerResponse::Error(_)), "{request:?}");
            assert_eq!(took, SimDuration::ZERO);
        }
    }

    #[test]
    fn batch_answers_in_order_with_inline_errors() {
        let mut server = ObjectServer::new();
        let id = make_published(&mut server, 8, "batched content");
        let span = server.record_span(id).unwrap();
        let (resp, took) = server.handle(&ServerRequest::Batch {
            requests: vec![
                ServerRequest::FetchObject { id },
                ServerRequest::FetchObject { id: ObjectId::new(404) },
                ServerRequest::FetchSpan { span: ByteSpan::new(span.start, span.start + 8) },
            ],
        });
        let ServerResponse::Batch(responses) = resp else {
            panic!("expected batch response");
        };
        assert_eq!(responses.len(), 3);
        assert!(matches!(responses[0], ServerResponse::Object(_)));
        assert!(matches!(responses[1], ServerResponse::Error(_)));
        assert!(matches!(&responses[2], ServerResponse::Span(b) if b.len() == 8));
        assert!(took > SimDuration::ZERO);
    }

    #[test]
    fn batch_coalesces_adjacent_spans_into_one_read() {
        // Two identical servers; one takes the pages batched, the other one
        // by one. The batch pays the seek + rotational overhead once.
        let mut batched = ObjectServer::new();
        let mut serial = ObjectServer::new();
        let body = "page data ".repeat(400);
        let id = make_published(&mut batched, 9, &body);
        make_published(&mut serial, 9, &body);
        let whole = batched.record_span(id).unwrap();
        let pages: Vec<ByteSpan> =
            (0..4).map(|i| ByteSpan::at(whole.start + i * 1_000, 1_000)).collect();

        let (resp, batch_time) = batched.handle(&ServerRequest::Batch {
            requests: pages.iter().map(|&span| ServerRequest::FetchSpan { span }).collect(),
        });
        let ServerResponse::Batch(responses) = resp else {
            panic!("expected batch response");
        };

        let mut serial_time = SimDuration::ZERO;
        for (i, &span) in pages.iter().enumerate() {
            let (resp, took) = serial.handle(&ServerRequest::FetchSpan { span });
            serial_time += took;
            // Coalescing must not change the bytes: each sliced response
            // matches the one-at-a-time read exactly.
            assert_eq!(responses[i], resp, "page {i}");
        }
        // Serial pays 4 × (seek + rotation); the batch pays it once.
        assert!(
            batch_time + SimDuration::from_millis(100) < serial_time,
            "batch {batch_time} vs serial {serial_time}"
        );
    }

    #[test]
    fn nested_batches_rejected_by_server() {
        let mut server = ObjectServer::new();
        let (resp, took) = server.handle(&ServerRequest::Batch {
            requests: vec![ServerRequest::Batch { requests: vec![] }],
        });
        assert!(matches!(resp, ServerResponse::Error(_)));
        assert_eq!(took, SimDuration::ZERO);
    }

    #[test]
    fn span_fetch_serves_descriptor_pointers() {
        let mut server = ObjectServer::new();
        let id = make_published(&mut server, 7, "pointer target text");
        let span = server.record_span(id).unwrap();
        let (resp, _) = server
            .handle(&ServerRequest::FetchSpan { span: ByteSpan::new(span.start, span.start + 4) });
        match resp {
            ServerResponse::Span(bytes) => assert_eq!(bytes.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn service_loop_interleaves_connections_round_robin() {
        let mut server = ObjectServer::new();
        let id = make_published(&mut server, 1, "framed service text");
        let span = server.record_span(id).unwrap();
        // Connection 1 queues three spans, connection 2 queues one; fair
        // service must answer connection 2 before connection 1's backlog
        // drains. Non-adjacent spans so nothing coalesces here.
        for (rid, start) in [(1, span.start), (2, span.start + 8), (3, span.start)] {
            server
                .enqueue(Frame::request(
                    1,
                    rid,
                    ServerRequest::FetchSpan { span: ByteSpan::at(start, 4) },
                ))
                .unwrap();
        }
        server
            .enqueue(Frame::request(
                2,
                1,
                ServerRequest::FetchSpan { span: ByteSpan::at(span.start, 4) },
            ))
            .unwrap();
        assert_eq!(server.pending_frames(), 4);

        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| server.poll()).map(|f| (f.conn_id, f.request_id)).collect();
        assert_eq!(order, vec![(1, 1), (2, 1), (1, 2), (1, 3)]);
        assert_eq!(server.pending_frames(), 0);
        let stats = server.service_stats();
        assert_eq!(stats.enqueued, 4);
        assert_eq!(stats.served, 4);
        assert!(stats.busy > SimDuration::ZERO);
    }

    #[test]
    fn adjacent_span_frames_coalesce_into_one_device_read() {
        let mut server = ObjectServer::new();
        let id = make_published(&mut server, 1, "coalesced service run over the archive");
        let span = server.record_span(id).unwrap();
        let chunk = 8u64;

        // Serve the same four adjacent spans once as queued frames and once
        // as individual blocking requests; the queued run must coalesce.
        let mut solo = ObjectServer::new();
        let solo_id = make_published(&mut solo, 1, "coalesced service run over the archive");
        let solo_span = solo.record_span(solo_id).unwrap();
        let mut serial = SimDuration::ZERO;
        for i in 0..4 {
            let (_, took) = solo.handle(&ServerRequest::FetchSpan {
                span: ByteSpan::at(solo_span.start + i * chunk, chunk),
            });
            serial += took;
        }

        for i in 0..4u64 {
            server
                .enqueue(Frame::request(
                    5,
                    i,
                    ServerRequest::FetchSpan { span: ByteSpan::at(span.start + i * chunk, chunk) },
                ))
                .unwrap();
        }
        let mut coalesced = SimDuration::ZERO;
        let mut frames = Vec::new();
        while let Some((frame, charge)) = server.poll_timed() {
            coalesced += charge;
            frames.push(frame);
        }
        assert_eq!(frames.len(), 4);
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(frame.request_id, i as u64);
            match &frame.payload {
                FramePayload::Response(ServerResponse::Span(bytes)) => {
                    assert_eq!(bytes.len() as u64, chunk);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(server.service_stats().coalesced_runs, 1);
        assert_eq!(server.service_stats().busy, coalesced);
        // One seek + rotation instead of four.
        assert!(
            coalesced + SimDuration::from_millis(100) < serial,
            "coalesced {coalesced} vs serial {serial}"
        );
    }

    #[test]
    fn poll_conn_serves_out_of_rotation_order() {
        let mut server = ObjectServer::new();
        let id = make_published(&mut server, 1, "priority service text");
        let span = server.record_span(id).unwrap();
        for conn in [1u64, 2, 3] {
            server
                .enqueue(Frame::request(
                    conn,
                    1,
                    ServerRequest::FetchSpan { span: ByteSpan::at(span.start, 4) },
                ))
                .unwrap();
        }
        // A deadline-aware scheduler pulls connection 3 first.
        let (frame, _) = server.poll_conn(3).unwrap();
        assert_eq!(frame.conn_id, 3);
        assert!(server.poll_conn(3).is_none(), "connection 3 has nothing left");
        let rest: Vec<u64> = std::iter::from_fn(|| server.poll()).map(|f| f.conn_id).collect();
        assert_eq!(rest, vec![1, 2]);
    }

    #[test]
    fn hello_and_probe_are_answered_from_memory() {
        let mut server = ObjectServer::new();
        let (resp, took) = server.handle(&ServerRequest::Hello { epoch: 0 });
        assert_eq!(resp, ServerResponse::Welcome { epoch: 0 });
        assert_eq!(took, SimDuration::ZERO);
        let (resp, took) = server.handle(&ServerRequest::Probe);
        assert_eq!(resp, ServerResponse::Busy { retry_after: SimDuration::ZERO });
        assert_eq!(took, SimDuration::ZERO);
        let (resp, took) = server.handle(&ServerRequest::Ping { nonce: 42 });
        assert_eq!(resp, ServerResponse::Pong { nonce: 42, epoch: 0 });
        assert_eq!(took, SimDuration::ZERO);
        server.restart();
        let (resp, _) = server.handle(&ServerRequest::Ping { nonce: 43 });
        assert_eq!(resp, ServerResponse::Pong { nonce: 43, epoch: 1 }, "pong reports the restart");
        // With a backlog the probe's retry hint grows.
        let id = make_published(&mut server, 1, "probe backlog");
        server.enqueue(Frame::request(1, 1, ServerRequest::FetchObject { id })).unwrap();
        let (resp, _) = server.handle(&ServerRequest::Probe);
        assert!(matches!(
            resp,
            ServerResponse::Busy { retry_after } if retry_after > SimDuration::ZERO
        ));
    }

    #[test]
    fn restart_bumps_the_epoch_and_loses_volatile_state() {
        let mut server = ObjectServer::new();
        let id = make_published(&mut server, 2, "durable across restart");
        server.enqueue(Frame::request(1, 1, ServerRequest::FetchObject { id })).unwrap();
        assert_eq!(server.epoch(), 0);
        assert_eq!(server.pending_frames(), 1);
        server.restart();
        assert_eq!(server.epoch(), 1);
        assert_eq!(server.pending_frames(), 0, "queued work is volatile");
        assert!(server.poll().is_none(), "staged responses are volatile");
        // The archive, index, and residents are durable.
        let (resp, _) = server.handle(&ServerRequest::FetchObject { id });
        assert!(matches!(resp, ServerResponse::Object(_)));
        let (resp, _) = server.handle(&ServerRequest::Query { keywords: vec!["durable".into()] });
        assert_eq!(resp, ServerResponse::Hits(vec![id]));
    }

    #[test]
    fn restart_wakes_exactly_the_connections_that_lost_frames() {
        let mut server = ObjectServer::new();
        let id = make_published(&mut server, 4, "wake list across restart");
        // Connection 9's frame is served and collected before the restart:
        // it is on the wake list (arrival + landing both mark it) but has
        // nothing queued or staged left to lose.
        server.enqueue(Frame::request(9, 1, ServerRequest::FetchObject { id })).unwrap();
        let (served, _) = server.poll_conn(9).expect("connection 9's frame was served");
        assert_eq!(served.conn_id, 9);
        // Connections 1 and 2 still have queued frames when the crash hits.
        server.enqueue(Frame::request(1, 1, ServerRequest::FetchObject { id })).unwrap();
        server.enqueue(Frame::request(2, 1, ServerRequest::FetchObject { id })).unwrap();
        server.restart();
        let woken = server.take_woken();
        assert_eq!(
            woken,
            vec![1, 2],
            "exactly the connections whose frames were dropped are woken"
        );
        assert!(
            server.take_woken().is_empty() && server.poll().is_none(),
            "the rebuilt wake list drains once and nothing is pollable"
        );
    }

    #[test]
    fn shed_prefetches_get_busy_replies_through_the_service_loop() {
        use minos_net::Priority;
        let mut server = ObjectServer::new();
        let id = make_published(&mut server, 3, "bounded queue content");
        let span = server.record_span(id).unwrap();
        server.set_service_config(crate::service::ServiceConfig {
            per_conn_cap: 1,
            global_cap: 1,
            ..Default::default()
        });
        let fetch = ServerRequest::FetchSpan { span: ByteSpan::new(span.start, span.start + 8) };
        server.enqueue(Frame::request(1, 1, fetch.clone())).unwrap();
        server
            .enqueue(Frame::request_with_priority(1, 2, Priority::Prefetch, fetch.clone()))
            .unwrap();
        // The shed prefetch's Busy reply is collectable before any device
        // work happens.
        let (reply, charge) = server.poll_timed().unwrap();
        assert_eq!(reply.request_id, 2);
        assert_eq!(charge, SimDuration::ZERO);
        assert!(matches!(
            reply.payload,
            FramePayload::Response(ServerResponse::Busy { retry_after }) if retry_after > SimDuration::ZERO
        ));
        // The demand frame is still served normally.
        let (served, _) = server.poll_timed().unwrap();
        assert_eq!(served.request_id, 1);
        assert!(matches!(served.payload, FramePayload::Response(ServerResponse::Span(_))));
        assert_eq!(server.service_stats().shed, 1);
    }

    #[test]
    fn span_payloads_recycle_through_the_server_pool() {
        // Regression for the per-page allocation bug: a serving loop whose
        // caller returns consumed payload buffers must stop allocating
        // after the first round — later leases are pool hits.
        let mut server = ObjectServer::new();
        let id = make_published(&mut server, 1, "pooled page data ".repeat(64).as_str());
        let span = server.record_span(id).unwrap();
        let mut misses_after_first_round = 0;
        for round in 0..3 {
            for rid in 0..4u64 {
                server
                    .enqueue(Frame::request(
                        1,
                        rid,
                        ServerRequest::FetchSpan { span: ByteSpan::at(span.start + rid * 64, 64) },
                    ))
                    .unwrap();
            }
            while let Some(frame) = server.poll() {
                match frame.payload {
                    FramePayload::Response(ServerResponse::Span(bytes)) => {
                        server.recycle_payload(bytes)
                    }
                    other => panic!("expected span bytes, got {other:?}"),
                }
            }
            if round == 0 {
                misses_after_first_round = server.service_stats().pool_misses;
                assert!(misses_after_first_round > 0);
            }
        }
        let stats = server.service_stats();
        assert_eq!(
            stats.pool_misses, misses_after_first_round,
            "later rounds must not allocate: {stats:?}"
        );
        assert!(stats.pool_hits > 0, "rounds two and three lease recycled buffers: {stats:?}");
        assert_eq!(stats.payload_allocs, stats.pool_misses);
    }

    #[test]
    fn response_frames_cannot_be_enqueued() {
        let mut server = ObjectServer::new();
        let frame = Frame::response(1, 1, ServerResponse::Span(vec![1, 2, 3]));
        assert!(matches!(server.enqueue(frame), Err(MinosError::Protocol(_))));
        assert_eq!(server.pending_frames(), 0);
        assert!(server.poll().is_none());
    }
}

//! The queued, multi-connection service loop (§5).
//!
//! The blocking path handed the server one request at a time; with framed
//! transport (see [`minos_net::frame`]) the server instead *queues* request
//! frames from many connections and serves them in connection-fair
//! round-robin order. Adjacent span fetches queued by one connection — the
//! anticipatory-prefetch shape — are coalesced into a single device read
//! (this queue's `take_run` picks the run, and the server reads it once),
//! so pipelining never costs extra actuator seeks. This is the only place
//! in the system where spans are coalesced.
//!
//! Queues are *bounded*: admission control rejects work beyond a
//! per-connection and a global cap instead of letting an overloaded server
//! grow its backlog without limit. The shed policy is priority-ordered —
//! a speculative [`Priority::Prefetch`](minos_net::Priority) frame over
//! the cap is dropped with a [`ServerResponse::Busy`] reply, while an
//! audio or demand frame arriving at a full queue first evicts a queued
//! prefetch to make room and is only rejected when no prefetch remains
//! sheddable. Speculation is the first thing sacrificed under overload;
//! the work a user is waiting on is the last.
//!
//! This module holds the queue and its accounting; the serving itself
//! (device access, rendering) lives on
//! [`ObjectServer`](crate::server::ObjectServer), which owns the devices.

use minos_net::{Frame, ServerResponse};
use minos_types::SimDuration;
use std::collections::{BTreeMap, VecDeque};

/// Admission-control knobs for the service queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Most request frames one connection may have queued.
    pub per_conn_cap: usize,
    /// Most request frames queued across all connections.
    pub global_cap: usize,
    /// Per-queued-frame slice used to estimate the `retry_after` hint a
    /// [`ServerResponse::Busy`] reply carries.
    pub retry_slice: SimDuration,
}

impl ServiceConfig {
    /// Default per-connection queue cap.
    pub const DEFAULT_PER_CONN_CAP: usize = 32;
    /// Default global queue cap.
    pub const DEFAULT_GLOBAL_CAP: usize = 256;
    /// Floor applied to the `retry_after` hint a `Busy` reply carries. A
    /// `retry_slice` of zero (or an idle queue at the instant of a
    /// per-connection rejection) would otherwise advertise
    /// `retry_after: 0`, inviting the client to resubmit immediately and
    /// spin against an admission gate that has not moved.
    pub const MIN_RETRY_AFTER: SimDuration = SimDuration::from_micros(50);

    /// A configuration that never rejects (the pre-admission-control
    /// behaviour, kept for the E14 "without shedding" baseline).
    pub fn unbounded() -> Self {
        ServiceConfig { per_conn_cap: usize::MAX, global_cap: usize::MAX, ..Self::default() }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            per_conn_cap: Self::DEFAULT_PER_CONN_CAP,
            global_cap: Self::DEFAULT_GLOBAL_CAP,
            retry_slice: SimDuration::from_micros(500),
        }
    }
}

/// Accounting for the queued service loop.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Request frames accepted into the queue.
    pub enqueued: u64,
    /// Response frames produced.
    pub served: u64,
    /// Total device time charged across all served requests.
    pub busy: SimDuration,
    /// Coalesced multi-span device reads performed.
    pub coalesced_runs: u64,
    /// Prefetch-class frames dropped by admission control (both arrivals
    /// over the cap and queued prefetches evicted for demand/audio work).
    pub shed: u64,
    /// Demand- or audio-class frames rejected because the queue was full
    /// and nothing sheddable remained.
    pub busy_rejections: u64,
    /// Most request frames ever queued at once across all connections.
    pub queue_high_water: u64,
    /// Payload-buffer pool leases served from a recycled buffer.
    pub pool_hits: u64,
    /// Payload-buffer pool leases that had to allocate fresh: the
    /// allocations on the serving hot path.
    pub payload_allocs: u64,
}

impl ServiceStats {
    /// Folds another server's accounting into this one — the fleet-wide
    /// aggregate a `Fleet` reports across its members. Counters and device
    /// time add; the high-water mark takes the max (each mark describes
    /// one queue's peak, and queues in different servers never share
    /// depth).
    pub fn merge(&mut self, other: &ServiceStats) {
        self.enqueued += other.enqueued;
        self.served += other.served;
        self.busy += other.busy;
        self.coalesced_runs += other.coalesced_runs;
        self.shed += other.shed;
        self.busy_rejections += other.busy_rejections;
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
        self.pool_hits += other.pool_hits;
        self.payload_allocs += other.payload_allocs;
    }
}

/// The connection-fair frame queue behind `ObjectServer::enqueue`/`poll`.
#[derive(Debug, Default)]
pub(crate) struct ServiceQueue {
    /// Per-connection FIFO of request frames awaiting service. A queue
    /// that drains is kept, capacity and all, for the connection's next
    /// frame.
    queues: BTreeMap<u64, VecDeque<Frame>>,
    /// Round-robin rotation of connections with queued work.
    rotation: VecDeque<u64>,
    /// Served responses not yet collected, each with its device charge.
    ready: VecDeque<(Frame, SimDuration)>,
    /// Request frames queued but not yet served.
    pending: usize,
    /// Connections with server-side activity (a request admitted or a
    /// response landed) since the last wake drain — the wake list the
    /// event-driven scheduler consumes instead of polling every
    /// connection. Sorted and free of duplicates.
    woken: Vec<u64>,
    config: ServiceConfig,
    stats: ServiceStats,
}

impl ServiceQueue {
    /// The admission configuration in force.
    pub(crate) fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Replaces the admission configuration; queued work is untouched (a
    /// lowered cap applies to arrivals, it does not shed the backlog).
    pub(crate) fn set_config(&mut self, config: ServiceConfig) {
        self.config = config;
    }

    /// Accepts one request frame into its connection's queue, or sheds it
    /// under the admission policy. Every frame gets exactly one response:
    /// rejected frames are answered with [`ServerResponse::Busy`] (zero
    /// device charge) through the ordinary ready queue.
    pub(crate) fn admit(&mut self, frame: Frame) {
        let conn = frame.conn_id;
        // Arrival is a wake: the event-driven scheduler must visit this
        // connection on its next pump even if nothing has landed yet.
        self.wake(conn);
        let conn_full =
            self.queues.get(&conn).map(VecDeque::len).unwrap_or(0) >= self.config.per_conn_cap;
        let global_full = self.pending >= self.config.global_cap;
        if conn_full || global_full {
            // Snapshot the hint at the moment of rejection: the shed path
            // below answers *after* evicting a queued prefetch, and a hint
            // computed then would describe a queue one frame shorter than
            // the one that turned the victim away.
            let hint = self.retry_hint();
            if frame.priority.is_sheddable() {
                self.stats.shed += 1;
                self.reject(frame, hint);
                return;
            }
            // Preserve the demand/audio frame by evicting a queued
            // prefetch — from this connection if its own cap is the one
            // violated (a foreign eviction would not relieve it).
            let victim_scope = if conn_full { Some(conn) } else { None };
            match self.evict_prefetch(victim_scope) {
                Some(victim) => {
                    self.stats.shed += 1;
                    self.reject(victim, hint);
                }
                None => {
                    self.stats.busy_rejections += 1;
                    self.reject(frame, hint);
                    return;
                }
            }
        }
        self.stats.enqueued += 1;
        self.pending += 1;
        self.stats.queue_high_water = self.stats.queue_high_water.max(self.pending as u64);
        let queue = self.queues.entry(conn).or_default();
        if queue.is_empty() && !self.rotation.contains(&conn) {
            self.rotation.push_back(conn);
        }
        queue.push_back(frame);
    }

    /// Answers a shed or rejected frame with a `Busy` reply carrying the
    /// retry hint sampled when the admission decision was made, clamped to
    /// [`ServiceConfig::MIN_RETRY_AFTER`] so no configuration can emit a
    /// `retry_after: 0` spin invitation.
    fn reject(&mut self, frame: Frame, hint: SimDuration) {
        let retry_after = hint.max(ServiceConfig::MIN_RETRY_AFTER);
        let reply = frame.reply(ServerResponse::Busy { retry_after });
        self.wake(reply.conn_id);
        self.ready.push_back((reply, SimDuration::ZERO));
    }

    /// Removes the rearmost sheddable (prefetch-class) frame — from
    /// `scope`'s queue when given, otherwise from the longest queue
    /// holding one.
    fn evict_prefetch(&mut self, scope: Option<u64>) -> Option<Frame> {
        let victim_conn = match scope {
            Some(conn) => conn,
            None => self
                .queues
                .iter()
                .filter(|(_, q)| q.iter().any(|f| f.priority.is_sheddable()))
                .max_by_key(|(_, q)| q.len())
                .map(|(&conn, _)| conn)?,
        };
        let queue = self.queues.get_mut(&victim_conn)?;
        let at = queue.iter().rposition(|f| f.priority.is_sheddable())?;
        let victim = queue.remove(at)?;
        self.pending = self.pending.saturating_sub(1);
        if queue.is_empty() {
            if let Some(slot) = self.rotation.iter().position(|&c| c == victim_conn) {
                self.rotation.remove(slot);
            }
        }
        Some(victim)
    }

    /// How long a rejected client should wait before resubmitting: one
    /// service slice per frame already queued ahead of it (zero when
    /// idle).
    pub(crate) fn retry_hint(&self) -> SimDuration {
        self.config.retry_slice * self.pending as u64
    }

    /// Request frames awaiting service.
    pub(crate) fn pending(&self) -> usize {
        self.pending
    }

    /// Whether nothing is queued, served and uncollected, or woken.
    pub(crate) fn is_idle(&self) -> bool {
        self.pending == 0 && self.ready.is_empty() && self.woken.is_empty()
    }

    /// Accounting so far.
    pub(crate) fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Drops all queued and staged work — what a restart loses — keeping
    /// the accounting and the admission configuration. The wake list is
    /// cleared too: its entries name connections whose frames were just
    /// dropped, and a stale wake would send the event-driven scheduler to
    /// poll a connection with nothing staged. Returns, in connection-id
    /// order, the connections that lost queued or staged frames so the
    /// caller can re-mark exactly those as woken — they must be revisited
    /// to notice the loss.
    pub(crate) fn clear_queues(&mut self) -> Vec<u64> {
        let queued = self.queues.iter().filter(|(_, q)| !q.is_empty()).map(|(&conn, _)| conn);
        let mut orphans: Vec<u64> =
            queued.chain(self.ready.iter().map(|(frame, _)| frame.conn_id)).collect();
        orphans.sort_unstable();
        orphans.dedup();
        self.queues.values_mut().for_each(VecDeque::clear);
        self.rotation.clear();
        self.ready.clear();
        self.woken.clear();
        self.pending = 0;
        orphans
    }

    /// Marks `conn` for the next wake drain without touching its queue.
    pub(crate) fn wake(&mut self, conn: u64) {
        if let Err(at) = self.woken.binary_search(&conn) {
            self.woken.insert(at, conn);
        }
    }

    /// The next connection in round-robin order (removed from the
    /// rotation; `take_run` re-queues it if work remains).
    pub(crate) fn next_conn(&mut self) -> Option<u64> {
        self.rotation.pop_front()
    }

    /// Removes `conn` from the rotation so it can be served out of turn
    /// (policy hook for deadline-aware schedulers). Returns whether it had
    /// queued work.
    pub(crate) fn claim_conn(&mut self, conn: u64) -> bool {
        let Some(at) = self.rotation.iter().position(|&c| c == conn) else {
            return false;
        };
        self.rotation.remove(at);
        true
    }

    /// Appends `conn`'s leading adjacent-span run (or, failing that, its
    /// single head frame) to `run`, re-queueing the connection if frames
    /// remain. The rotation never outgrows the set of capped connection
    /// queues.
    pub(crate) fn take_run(&mut self, conn: u64, run: &mut Vec<Frame>) {
        let Some(queue) = self.queues.get_mut(&conn) else {
            return;
        };
        let mut len = 0usize;
        let mut prev_end: Option<u64> = None;
        for frame in queue.iter() {
            let Some(span) = frame.as_request().and_then(|r| r.as_span()) else {
                break;
            };
            if prev_end.is_some_and(|end| end != span.start) {
                break;
            }
            prev_end = Some(span.end);
            len += 1;
        }
        let take = len.max(1).min(queue.len());
        run.extend(queue.drain(..take));
        self.pending = self.pending.saturating_sub(take);
        if !queue.is_empty() {
            self.rotation.push_back(conn);
        }
    }

    /// Records one served response frame with its device-time charge. The
    /// ready queue's growth is bounded by admitted pending work (capped by
    /// the admission policy), one response per request.
    pub(crate) fn finish(&mut self, frame: Frame, charge: SimDuration) {
        self.stats.served += 1;
        self.stats.busy += charge;
        self.wake(frame.conn_id);
        self.ready.push_back((frame, charge));
    }

    /// Counts one coalesced device read.
    pub(crate) fn note_coalesced(&mut self) {
        self.stats.coalesced_runs += 1;
    }

    /// Records one payload-buffer pool lease: a hit re-served a recycled
    /// buffer, a miss allocated fresh.
    pub(crate) fn note_pool(&mut self, hit: bool) {
        if hit {
            self.stats.pool_hits += 1;
        } else {
            self.stats.payload_allocs += 1;
        }
    }

    /// Drains the connections that have had a response land (served or
    /// `Busy`-rejected) since the last drain, in connection-id order.
    /// Event-driven callers pump exactly these instead of polling all N.
    pub(crate) fn take_woken(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.woken)
    }

    /// The oldest uncollected response, if any.
    pub(crate) fn pop_ready(&mut self) -> Option<(Frame, SimDuration)> {
        self.ready.pop_front()
    }

    /// The oldest uncollected response belonging to `conn`, if any.
    pub(crate) fn pop_ready_for(&mut self, conn: u64) -> Option<(Frame, SimDuration)> {
        let at = self.ready.iter().position(|(f, _)| f.conn_id == conn)?;
        self.ready.remove(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_net::{FramePayload, Priority, ServerRequest};
    use minos_types::ByteSpan;

    fn queue(config: ServiceConfig) -> ServiceQueue {
        let mut q = ServiceQueue::default();
        q.set_config(config);
        q
    }

    fn span_frame(conn: u64, rid: u64, priority: Priority) -> Frame {
        Frame::request_with_priority(
            conn,
            rid,
            priority,
            ServerRequest::FetchSpan { span: ByteSpan::at(rid * 100, 100) },
        )
    }

    fn take_run(queue: &mut ServiceQueue, conn: u64) -> Vec<Frame> {
        let mut run = Vec::new();
        queue.take_run(conn, &mut run);
        run
    }

    fn busy_replies(queue: &mut ServiceQueue) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((frame, charge)) = queue.pop_ready() {
            assert_eq!(charge, SimDuration::ZERO, "busy replies charge no device time");
            match frame.payload {
                FramePayload::Response(ServerResponse::Busy { .. }) => {
                    out.push((frame.conn_id, frame.request_id));
                }
                other => panic!("expected a busy reply, got {other:?}"),
            }
        }
        out
    }

    fn busy_hints(queue: &mut ServiceQueue) -> Vec<SimDuration> {
        let mut out = Vec::new();
        while let Some((frame, _)) = queue.pop_ready() {
            match frame.payload {
                FramePayload::Response(ServerResponse::Busy { retry_after }) => {
                    out.push(retry_after);
                }
                other => panic!("expected a busy reply, got {other:?}"),
            }
        }
        out
    }

    #[test]
    fn over_cap_prefetch_is_shed_with_a_busy_reply() {
        let mut q =
            queue(ServiceConfig { per_conn_cap: 2, global_cap: 100, ..ServiceConfig::default() });
        q.admit(span_frame(1, 1, Priority::Prefetch));
        q.admit(span_frame(1, 2, Priority::Prefetch));
        q.admit(span_frame(1, 3, Priority::Prefetch));
        assert_eq!(q.pending(), 2, "the cap held");
        assert_eq!(q.stats().shed, 1);
        assert_eq!(q.stats().busy_rejections, 0);
        assert_eq!(busy_replies(&mut q), vec![(1, 3)]);
    }

    #[test]
    fn demand_over_cap_evicts_a_queued_prefetch() {
        let mut q =
            queue(ServiceConfig { per_conn_cap: 2, global_cap: 100, ..ServiceConfig::default() });
        q.admit(span_frame(1, 1, Priority::Demand));
        q.admit(span_frame(1, 2, Priority::Prefetch));
        q.admit(span_frame(1, 3, Priority::Audio));
        assert_eq!(q.pending(), 2);
        assert_eq!(q.stats().shed, 1, "the queued prefetch was evicted");
        assert_eq!(q.stats().busy_rejections, 0);
        // The evicted prefetch (rid 2) got the busy reply; the audio frame
        // took its place.
        assert_eq!(busy_replies(&mut q), vec![(1, 2)]);
        let run = take_run(&mut q, 1);
        let kept: Vec<u64> = run.iter().map(|f| f.request_id).collect();
        assert_eq!(kept, vec![1], "head demand frame intact");
    }

    #[test]
    fn demand_is_rejected_only_when_nothing_is_sheddable() {
        let mut q =
            queue(ServiceConfig { per_conn_cap: 2, global_cap: 100, ..ServiceConfig::default() });
        q.admit(span_frame(1, 1, Priority::Demand));
        q.admit(span_frame(1, 2, Priority::Audio));
        q.admit(span_frame(1, 3, Priority::Demand));
        assert_eq!(q.pending(), 2);
        assert_eq!(q.stats().shed, 0);
        assert_eq!(q.stats().busy_rejections, 1);
        assert_eq!(busy_replies(&mut q), vec![(1, 3)]);
    }

    #[test]
    fn global_cap_sheds_across_connections() {
        let mut q =
            queue(ServiceConfig { per_conn_cap: 100, global_cap: 3, ..ServiceConfig::default() });
        q.admit(span_frame(1, 1, Priority::Demand));
        q.admit(span_frame(1, 2, Priority::Prefetch));
        q.admit(span_frame(1, 3, Priority::Prefetch));
        // Connection 2's audio frame evicts connection 1's rearmost
        // prefetch rather than being turned away.
        q.admit(span_frame(2, 1, Priority::Audio));
        assert_eq!(q.pending(), 3);
        assert_eq!(q.stats().shed, 1);
        assert_eq!(busy_replies(&mut q), vec![(1, 3)]);
        assert!(take_run(&mut q, 2).iter().any(|f| f.priority == Priority::Audio));
    }

    #[test]
    fn retry_hint_scales_with_backlog_and_is_zero_when_idle() {
        let mut q = ServiceQueue::default();
        assert_eq!(q.retry_hint(), SimDuration::ZERO);
        q.admit(span_frame(1, 1, Priority::Demand));
        q.admit(span_frame(1, 2, Priority::Demand));
        assert_eq!(q.retry_hint(), q.config().retry_slice * 2);
    }

    #[test]
    fn high_water_marks_track_peak_depth() {
        let mut q = ServiceQueue::default();
        q.admit(span_frame(1, 1, Priority::Demand));
        q.admit(span_frame(1, 2, Priority::Demand));
        q.admit(span_frame(2, 1, Priority::Demand));
        let _ = take_run(&mut q, 1);
        q.admit(span_frame(2, 2, Priority::Demand));
        let stats = q.stats();
        assert_eq!(stats.queue_high_water, 3);
    }

    #[test]
    fn clear_queues_drops_work_but_keeps_accounting() {
        let mut q = ServiceQueue::default();
        q.admit(span_frame(1, 1, Priority::Demand));
        q.admit(span_frame(2, 1, Priority::Demand));
        let enqueued = q.stats().enqueued;
        q.clear_queues();
        assert_eq!(q.pending(), 0);
        assert!(q.next_conn().is_none());
        assert!(q.pop_ready().is_none());
        assert_eq!(q.stats().enqueued, enqueued);
        assert!(take_run(&mut q, 1).is_empty());
    }

    #[test]
    fn clear_queues_reports_orphans_and_drops_stale_wakes() {
        let mut q = ServiceQueue::default();
        q.admit(span_frame(1, 1, Priority::Demand));
        q.admit(span_frame(2, 1, Priority::Demand));
        // Connection 3 has a staged (served, uncollected) response only.
        q.finish(
            Frame::response(3, 1, ServerResponse::Busy { retry_after: SimDuration::ZERO }),
            SimDuration::ZERO,
        );
        let orphans = q.clear_queues();
        assert_eq!(orphans, vec![1, 2, 3], "queued and staged connections both orphaned");
        assert!(
            q.take_woken().is_empty(),
            "stale wakes naming dropped frames do not survive a clear"
        );
    }

    #[test]
    fn busy_retry_after_is_floored_even_with_a_zero_slice() {
        let mut q = queue(ServiceConfig {
            per_conn_cap: 0,
            global_cap: 100,
            retry_slice: SimDuration::ZERO,
        });
        q.admit(span_frame(1, 1, Priority::Demand));
        assert_eq!(q.stats().busy_rejections, 1);
        let hints = busy_hints(&mut q);
        assert_eq!(hints, vec![ServiceConfig::MIN_RETRY_AFTER]);
        assert!(hints[0] > SimDuration::ZERO, "no retry_after: 0 spin invitation");
    }

    #[test]
    fn rejection_hints_are_monotone_with_backlog() {
        let slice = SimDuration::from_micros(500);
        let mut q = queue(ServiceConfig { per_conn_cap: 1, global_cap: 100, retry_slice: slice });
        q.admit(span_frame(1, 1, Priority::Demand));
        q.admit(span_frame(1, 2, Priority::Demand)); // rejected at backlog 1
        q.admit(span_frame(2, 1, Priority::Demand));
        q.admit(span_frame(2, 2, Priority::Demand)); // rejected at backlog 2
        let hints = busy_hints(&mut q);
        assert_eq!(hints, vec![slice, slice * 2]);
        assert!(hints.windows(2).all(|w| w[0] <= w[1]), "hint grows with backlog");
    }

    #[test]
    fn evicted_victim_hint_reflects_pre_eviction_backlog() {
        let slice = SimDuration::from_micros(500);
        let mut q = queue(ServiceConfig { per_conn_cap: 2, global_cap: 100, retry_slice: slice });
        q.admit(span_frame(1, 1, Priority::Demand));
        q.admit(span_frame(1, 2, Priority::Prefetch));
        q.admit(span_frame(1, 3, Priority::Audio));
        // Two frames were pending at the instant the audio frame forced the
        // eviction; the victim's hint must describe that queue, not the
        // one-shorter queue left after it was removed.
        assert_eq!(busy_hints(&mut q), vec![slice * 2]);
    }

    #[test]
    fn service_stats_merge_aggregates_counters_and_maxes_high_water() {
        let mut a = ServiceStats {
            enqueued: 4,
            served: 3,
            busy: SimDuration::from_micros(40),
            shed: 1,
            queue_high_water: 5,
            ..ServiceStats::default()
        };
        let b = ServiceStats {
            enqueued: 2,
            served: 2,
            busy: SimDuration::from_micros(10),
            busy_rejections: 1,
            queue_high_water: 3,
            ..ServiceStats::default()
        };
        a.merge(&b);
        assert_eq!(a.enqueued, 6);
        assert_eq!(a.served, 5);
        assert_eq!(a.busy, SimDuration::from_micros(50));
        assert_eq!(a.shed, 1);
        assert_eq!(a.busy_rejections, 1);
        assert_eq!(a.queue_high_water, 5, "high water is a max, not a sum");
    }
}

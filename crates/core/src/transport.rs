//! The pipelined client: one request lifecycle for every server side.
//!
//! "The multimedia object presentation manager resides in the user's
//! workstation and requests the appropriate pieces of information from the
//! multimedia object server subsystems." (§5) A [`Client`] is that
//! requester, and everything a request goes through between submit and
//! collection is written here once:
//!
//! * **Flow control.** Submissions are admitted into a bounded
//!   [`InflightWindow`]; a full window is waited out, or its oldest slot
//!   is forced through the deadline machinery, never overrun.
//! * **Three timelines.** The uplink, one device per server member and
//!   the downlink are serially-reusable resources, each a "free at"
//!   instant, so pipelined requests overlap link transfer with device
//!   time and waiting charges only what overlap did not hide.
//! * **Recovery.** A request that keeps retransmission state carries a
//!   deadline on the [`Kernel`] timer wheel: a loss retransmits it with
//!   capped exponential backoff until the retry budget expires it into an
//!   inline [`ServerResponse::Error`]. What is kept is the request itself
//!   on a clean link, where every send is a typed frame; only where a
//!   [`FaultyLink`] can mangle frames is the request encoded once into a
//!   pooled buffer and those bytes resent. Corrupt frames are discarded,
//!   duplicates are suppressed by a collected-id watermark, and a
//!   `Busy { retry_after }` reply parks the request until the server's
//!   own hint elapses.
//! * **Restarts.** A member whose epoch moved is re-handshaken with
//!   `Hello`/`Welcome`, and whatever its dead incarnation lost is replayed
//!   idempotently under the original request ids.
//!
//! What differs between one server and a fleet sits behind [`Backend`]:
//! how pending frames are served, where a request goes when its member
//! fails, and which timer events other than retransmits mean something.
//! [`Connection`](crate::remote::Connection) (one [`ObjectServer`]) and
//! [`FleetConnection`](crate::fleet::FleetConnection) (a
//! [`Fleet`](crate::fleet::Fleet)) are its two instantiations.
//!
//! [`ObjectServer`]: minos_server::ObjectServer

use crate::fleet::HealthMonitor;
use crate::idhash::{IdMap, IdSet};
use crate::kernel::{Kernel, KernelEvent, KernelStats, TimerId};
use minos_net::{
    BufferPool, FaultPlan, FaultStats, FaultyLink, Frame, FramePayload, InflightWindow, Link,
    LinkStats, Priority, ServerRequest, ServerResponse,
};
use minos_types::{MinosError, Result, SimClock, SimDuration, SimInstant};
use std::collections::VecDeque;
use std::fmt;

/// Leases a buffer from `pool`, counting a hit or a miss (a fresh
/// allocation) in `stats`.
fn lease_counted(pool: &BufferPool, stats: &mut TransportStats) -> Vec<u8> {
    if pool.free_buffers() > 0 {
        stats.pool_hits += 1;
    } else {
        stats.pool_misses += 1;
        stats.payload_allocs += 1;
    }
    pool.lease_vec()
}

/// The one logical connection id every request travels under: servers
/// tell requests apart by request id, which the client keeps unique.
pub(crate) const CONN_ID: u64 = 1;

/// Default pipelining budget: requests that may be in flight at once.
pub(crate) const DEFAULT_WINDOW: usize = 32;

/// Default per-request deadline. The sim serves every surviving frame by
/// the time a caller waits on it, so a deadline only ever fires on genuine
/// loss — it can be short without risking spurious retransmits.
const DEFAULT_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// Default retransmission budget before a request expires with an inline
/// error.
const DEFAULT_MAX_RETRIES: u32 = 4;

/// Ceiling on the exponential backoff between retransmits.
const BACKOFF_CAP: SimDuration = SimDuration::from_secs(4);

/// The server side of a [`Client`]: what one server and a fleet of them do
/// differently. Members are numbered `0..members()`; a single server is a
/// fleet of one.
pub trait Backend: Sized {
    /// The handle a submission returns.
    type Ticket: Copy + fmt::Debug;

    /// What a failover needs, beyond the target member, to re-aim a
    /// request at another copy of its data.
    type Route;

    /// Whether every request keeps retransmission state even on a clean
    /// link. A single server on a clean link loses nothing, so its typed
    /// frames arm no timer and keep nothing; a fleet always keeps the
    /// request, to replay it when a member restarts and to fail it over.
    const KEEPS_STATE: bool;

    /// Whether [`Client::advance_to`] resyncs epochs after draining due
    /// timers instead of before its first dispatch. Heartbeats fire inside
    /// the drain, so a side that runs them resyncs last: a restart is then
    /// noticed by the heartbeat, and the resync is the safety net.
    const RESYNC_AFTER_TIMERS: bool;

    /// The request id a ticket stands for.
    fn ticket_id(ticket: Self::Ticket) -> u64;

    /// Member count.
    fn members(&self) -> usize;

    /// The restart epoch of `member`; a bump tells the client that the
    /// member's in-flight work was lost.
    fn member_epoch(&self, member: usize) -> u64;

    /// Serves one control request (the epoch handshake, a heartbeat) on
    /// `member` directly, with its device-time charge.
    fn serve(&mut self, member: usize, request: &ServerRequest) -> (ServerResponse, SimDuration);

    /// Moves every pending frame through its member's device and lands the
    /// responses on the client.
    fn dispatch(client: &mut Client<Self>);

    /// Where a request aimed at `target` goes instead, and the request to
    /// send there; `None` when there is nowhere else to go.
    fn fail_over(&self, _route: &Self::Route, _target: usize) -> Option<(usize, ServerRequest)> {
        None
    }

    /// Handles a fired timer other than a retransmit deadline.
    fn on_timer(client: &mut Client<Self>, _event: KernelEvent) {
        client.kernel.note_spurious();
    }

    /// The CRC32 of the `len` payload bytes a request on `route` should
    /// come back with, when the side already holds it: a faulty-link
    /// response frame then composes its trailer from it instead of
    /// rereading the payload. `None` takes the full pass.
    fn span_crc(&self, _route: &Self::Route, _len: u64) -> Option<u32> {
        None
    }
}

/// A request frame accepted for transmission but not yet served: its bytes
/// finish arriving at the server at `arrival`.
pub(crate) struct PendingFrame {
    pub(crate) frame: Frame,
    pub(crate) arrival: SimInstant,
}

/// A served response whose bytes finish arriving back at `ready_at`.
pub(crate) struct Landed {
    pub(crate) response: ServerResponse,
    pub(crate) ready_at: SimInstant,
}

/// What every retransmit, replay or deferred resubmit of a request is
/// built from. A failover replaces it with the request for the new
/// member's layout.
enum Resend {
    /// A plain-value request on a clean link: each send is a typed frame
    /// around a [`ServerRequest::plain_copy`] of it, charged by wire size.
    Typed(ServerRequest),
    /// The request encoded once into a pooled buffer, for a link whose
    /// fault layer can mangle what crosses it (or a request that owns heap
    /// data): each send resends these bytes verbatim.
    Encoded(Vec<u8>),
}

/// Retransmission state for a request whose response has not yet landed.
struct Outstanding<R> {
    /// The member the request is currently aimed at.
    target: usize,
    route: R,
    resend: Resend,
    deadline: SimInstant,
    attempt: u32,
    /// The timer-wheel entry armed for `deadline`; cancelled when the
    /// response lands, rearmed on every retransmit.
    timer: TimerId,
    /// Whether the request is parked on a `Busy { retry_after }` hint:
    /// `deadline` is then the earliest instant it may go back on the
    /// wire, and reaching it costs neither a timeout nor a retry.
    deferred: bool,
}

/// Recovery accounting: what a client had to do to survive its link and
/// its servers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Deadlines that expired before the response landed.
    pub timeouts: u64,
    /// Request frames retransmitted after a timeout.
    pub retries: u64,
    /// Received frames that failed to decode (checksum mismatch or
    /// truncation) and were discarded.
    pub corrupt_frames: u64,
    /// Responses discarded because their `request_id` had already landed
    /// or been collected.
    pub duplicates: u64,
    /// Server epoch changes survived: the client re-handshook and replayed
    /// what the restart lost.
    pub epoch_resyncs: u64,
    /// Request frames replayed (or retransmitted) because a server restart
    /// dropped them.
    pub replays: u64,
    /// Requests re-aimed at a sibling replica after their target member
    /// restarted, timed out or answered `Busy`. Always zero on a single
    /// server, which has nowhere else to go.
    pub failovers: u64,
    /// The client's own pool leases served from the free list — no
    /// allocation happened. A fleet's members lease from the same pool and
    /// count their leases in their service stats, so each lease is counted
    /// once, by whoever took it.
    pub pool_hits: u64,
    /// The client's own pool leases that had to allocate a fresh buffer (a
    /// cold pool or a burst deeper than the retained free list).
    pub pool_misses: u64,
    /// Fresh payload-buffer allocations on the frame hot path: the pool
    /// misses. Once the pool is warm a steady-state window transmits with
    /// zero of these.
    pub payload_allocs: u64,
}

/// The request ids whose responses were collected, as a cumulative
/// watermark plus the ids collected above it out of order: the anti-replay
/// window of RFC 4303 §3.4.3. Every id at or below `floor` was collected,
/// so the set only holds ids collected past the oldest one still
/// uncollected; its size is bounded by the span of
/// uncollected ids, not by how many responses were ever read.
#[derive(Debug, Default)]
struct Collected {
    floor: u64,
    above: IdSet,
}

impl Collected {
    /// Whether `id`'s response was already collected.
    fn contains(&self, id: u64) -> bool {
        id <= self.floor || self.above.contains(&id)
    }

    /// Records `id` as collected, advancing the watermark over every id
    /// it makes contiguous.
    fn insert(&mut self, id: u64) {
        if id <= self.floor {
            return;
        }
        if id != self.floor + 1 {
            self.above.insert(id);
            return;
        }
        self.floor = id;
        while !self.above.is_empty() && self.above.remove(&(self.floor + 1)) {
            self.floor += 1;
        }
    }
}

/// Busy-honoring accounting. Only fleet members answer `Busy` through a
/// client (a single server is served directly), so a
/// [`Connection`](crate::remote::Connection) keeps these at zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Requests turned away with [`ServerResponse::Busy`] and parked on a
    /// kernel timer until the server's `retry_after` hint elapsed.
    pub busy_deferred: u64,
    /// Deferred resubmissions that left before their hint elapsed.
    /// Always zero — the retry timer gates the uplink — and pinned so.
    pub premature_busy_retries: u64,
}

/// A pipelined client of a [`Backend`] over one shared link (the paper's
/// broadcast bus).
///
/// Submitting charges the uplink at once and returns a ticket; pending
/// frames move through their member's device and back over the downlink
/// whenever the client dispatches; responses land timestamped, and
/// [`Client::wait`] charges only the time between "now" and the response's
/// arrival — that difference is where pipelining wins.
pub struct Client<B: Backend> {
    pub(crate) server: B,
    /// Per-member epoch last handshaken; a mismatch triggers the resync.
    pub(crate) epochs: Vec<u64>,
    pub(crate) link: FaultyLink,
    pub(crate) clock: SimClock,
    next_request_id: u64,
    window: InflightWindow,
    /// Per-member queues of request frames in transit to that member.
    pub(crate) pending: Vec<VecDeque<PendingFrame>>,
    /// Arrival instant of each frame handed to a member's service queue.
    pub(crate) arrival_at: IdMap<SimInstant>,
    pub(crate) landed: IdMap<Landed>,
    outstanding: IdMap<Outstanding<B::Route>>,
    collected: Collected,
    /// Transmit and payload buffers leased and recycled across the
    /// client's lifetime, shared with a fleet's members. Leases go through
    /// [`Client::lease`], which counts them in [`TransportStats`].
    pub(crate) pool: BufferPool,
    /// Every outstanding request's retransmit deadline (and any heartbeat
    /// tick), so a loss on an idle client is discovered by
    /// [`Client::advance_to`] at its deadline.
    pub(crate) kernel: Kernel,
    transport: TransportStats,
    pub(crate) busy: FleetStats,
    timeout: SimDuration,
    max_retries: u32,
    pub(crate) up_free: SimInstant,
    /// One device timeline per member: the shared wire feeds N devices.
    pub(crate) dev_free: Vec<SimInstant>,
    pub(crate) down_free: SimInstant,
    round_trips: u64,
    /// Heartbeat interval once armed; `None` keeps heartbeats off.
    pub(crate) heartbeat: Option<SimDuration>,
    /// Per-member failure detector fed by the heartbeats.
    pub(crate) health: HealthMonitor,
    /// Nonce of the next heartbeat ping.
    pub(crate) next_nonce: u64,
}

impl<B: Backend> Client<B> {
    /// Opens a client of `server` over `link` misbehaving according to
    /// `plan`, with an in-flight window of `window` requests.
    pub(crate) fn open(server: B, link: Link, window: usize, plan: FaultPlan) -> Self {
        let members = server.members();
        Client {
            epochs: (0..members).map(|m| server.member_epoch(m)).collect(),
            server,
            link: FaultyLink::new(link, plan),
            clock: SimClock::new(),
            next_request_id: 1,
            window: InflightWindow::new(window),
            pending: (0..members).map(|_| VecDeque::new()).collect(),
            arrival_at: IdMap::default(),
            landed: IdMap::default(),
            outstanding: IdMap::default(),
            collected: Collected::default(),
            pool: BufferPool::new(),
            kernel: Kernel::new(),
            transport: TransportStats::default(),
            busy: FleetStats::default(),
            timeout: DEFAULT_TIMEOUT,
            max_retries: DEFAULT_MAX_RETRIES,
            up_free: SimInstant::EPOCH,
            dev_free: vec![SimInstant::EPOCH; members],
            down_free: SimInstant::EPOCH,
            round_trips: 0,
            heartbeat: None,
            health: HealthMonitor::new(members),
            next_nonce: 1,
        }
    }

    /// Overrides the recovery policy: per-request deadline and how many
    /// retransmits are attempted before a request expires with an inline
    /// [`ServerResponse::Error`].
    pub fn with_recovery(mut self, timeout: SimDuration, max_retries: u32) -> Self {
        self.timeout = timeout.max(SimDuration::from_micros(1));
        self.max_retries = max_retries;
        self
    }

    /// Total simulated time spent so far.
    pub fn elapsed(&self) -> SimDuration {
        self.clock.now().since(SimInstant::EPOCH)
    }

    /// Payload bytes moved over the link so far.
    pub fn bytes_transferred(&self) -> u64 {
        self.link.stats().bytes
    }

    /// Link transfer statistics (messages, bytes, busy time).
    pub fn link_stats(&self) -> LinkStats {
        self.link.stats()
    }

    /// What the fault layer did to this client's frames.
    pub fn fault_stats(&self) -> FaultStats {
        self.link.fault_stats()
    }

    /// What the recovery machinery had to do — timeouts, retries, corrupt
    /// frames, duplicates, replays, epoch resyncs, failovers — plus the
    /// transmit-pool accounting (hits, misses, fresh payload allocations).
    pub fn transport_stats(&self) -> TransportStats {
        self.transport
    }

    /// The timer-wheel counters of the recovery machinery.
    pub fn kernel_stats(&self) -> KernelStats {
        self.kernel.stats()
    }

    /// Drains the client kernel's trace ring as a JSON array (see
    /// [`Kernel::drain_trace_json`]).
    pub fn drain_kernel_trace(&mut self) -> String {
        self.kernel.drain_trace_json()
    }

    /// Round trips so far: times the client went from idle (nothing in
    /// flight) to busy. A blocking caller pays one per request; a
    /// pipelined burst pays one for the whole burst — that is its point.
    pub fn round_trips(&self) -> u64 {
        self.round_trips
    }

    /// Requests submitted and not yet collected.
    pub fn in_flight(&self) -> usize {
        self.window.len()
    }

    /// The in-flight window capacity.
    pub fn window_capacity(&self) -> usize {
        self.window.capacity()
    }

    /// Hands a consumed payload buffer back to the transmit pool, so the
    /// steady-state hot path re-serves it instead of allocating a fresh
    /// one per page. A fleet's members lease their span payloads from this
    /// same pool, so a collected page is recycled into the pool that leased
    /// it; a single server keeps its own pool, and the buffers this client
    /// produced (coalesced slices, faulty-link decodes) come back here.
    pub fn recycle_payload(&mut self, buf: Vec<u8>) {
        self.pool.recycle(buf);
    }

    /// Leases a buffer from the pool, counting the lease as this client's.
    pub(crate) fn lease(&mut self) -> Vec<u8> {
        lease_counted(&self.pool, &mut self.transport)
    }

    /// Arms one heartbeat tick per member an interval from now, if
    /// heartbeats are on.
    pub(crate) fn arm_heartbeats(&mut self) {
        let Some(interval) = self.heartbeat else { return };
        for m in 0..self.epochs.len() {
            self.kernel
                .arm(self.clock.now() + interval, KernelEvent::HealthTick { member: m as u64 });
        }
    }

    /// Whether requests keep retransmission state: always on a side that
    /// needs it for failover, otherwise only on a faulty link.
    fn keeps_state(&self) -> bool {
        B::KEEPS_STATE || !self.link.is_clean()
    }

    /// Admits the next submission into the flow-control window: resyncs
    /// epochs, settles arrived responses, waits out (or forces progress
    /// on) a full window, and allocates the request id.
    pub(crate) fn admit_slot(&mut self) -> u64 {
        self.resync();
        self.settle();
        while self.window.is_full() {
            B::dispatch(self);
            self.settle();
            if !self.window.is_full() {
                break;
            }
            let now = self.clock.now();
            if let Some(next) = self.landed.values().map(|l| l.ready_at).filter(|&t| t > now).min()
            {
                self.clock.advance_to_at_least(next);
                self.settle();
                continue;
            }
            // Window full with nothing landed and nothing arriving: every
            // open slot's response was lost on the wire. Force the oldest
            // slot through a timeout round (retransmit or expire) rather
            // than overrunning the flow-control bound.
            let Some(oldest) = self.window.oldest() else { break };
            self.force_progress(oldest);
            self.settle();
        }
        if self.window.is_empty() {
            self.round_trips += 1;
        }
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        request_id
    }

    /// Admits `request` and sends it to member 0 as a typed frame. Only a
    /// side that keeps no retransmission state submits this way.
    pub(crate) fn submit_typed(&mut self, request: ServerRequest) -> u64 {
        let request_id = self.admit_slot();
        self.uplink(0, Frame::request(CONN_ID, request_id, request));
        self.window.open(request_id);
        request_id
    }

    /// Puts a typed request frame on the uplink to `member`, charging its
    /// wire size arithmetically — nothing is copied or encoded.
    fn uplink(&mut self, member: usize, frame: Frame) {
        // Every typed frame in transit belongs to an admitted slot (a clean
        // link neither loses nor duplicates), so the window bounds them.
        debug_assert!(
            self.pending.iter().map(VecDeque::len).sum::<usize>() < self.window.capacity(),
            "frames in transit exceed the admitted window"
        );
        let up = self.link.charge(frame.wire_size());
        let arrival = self.clock.now().max(self.up_free) + up;
        self.up_free = arrival;
        if let Some(queue) = self.pending.get_mut(member) {
            queue.push_back(PendingFrame { frame, arrival });
        }
    }

    /// Encodes `request` once — from its borrow, into a pooled buffer —
    /// as its retransmission state, and submits it to `target`.
    pub(crate) fn submit_encoded(
        &mut self,
        request_id: u64,
        target: usize,
        route: B::Route,
        request: &ServerRequest,
    ) {
        let mut bytes = self.lease();
        encode_request(request_id, request, &mut bytes);
        self.track(request_id, target, route, Resend::Encoded(bytes));
    }

    /// Keeps `request`, moved in, as its retransmission state and submits
    /// it to `target`. Only where a send cannot be a typed frame (a faulty
    /// link, or a request that owns heap data) is it encoded instead.
    pub(crate) fn submit_tracked(
        &mut self,
        request_id: u64,
        target: usize,
        route: B::Route,
        request: ServerRequest,
    ) {
        if self.link.is_clean() && request.plain_copy().is_some() {
            self.track(request_id, target, route, Resend::Typed(request));
        } else {
            self.submit_encoded(request_id, target, route, &request);
        }
    }

    /// Records `resend` as the request's retransmission state with a
    /// deadline, puts it on the wire to `target`, and opens the request's
    /// window slot.
    fn track(&mut self, request_id: u64, target: usize, route: B::Route, resend: Resend) {
        let deadline = self.clock.now() + self.timeout;
        let timer = self.kernel.arm(deadline, KernelEvent::RetryDue { request_id, attempt: 0 });
        self.outstanding.insert(
            request_id,
            Outstanding { target, route, resend, deadline, attempt: 0, timer, deferred: false },
        );
        self.transmit_request(request_id);
        self.window.open(request_id);
    }

    /// Drops a request's retransmission state: its deadline is void and
    /// any encoded bytes go back to the pool.
    fn retire(&mut self, out: Outstanding<B::Route>) {
        self.kernel.cancel(out.timer);
        if let Resend::Encoded(bytes) = out.resend {
            self.pool.recycle(bytes);
        }
    }

    /// Sends an outstanding request to its current target. A kept request
    /// (always plain-valued, so its copy never fails) goes up as a typed
    /// frame; kept bytes cross the fault layer, and whatever survives
    /// decoding joins that member's pending queue.
    fn transmit_request(&mut self, request_id: u64) {
        let Some(out) = self.outstanding.get(&request_id) else {
            return;
        };
        // The flow-control window is the admission bound: a request only
        // reaches the wire through an admitted slot, so the in-transit
        // queues can never outgrow it (duplicates aside, which the fault
        // layer caps per transmit).
        debug_assert!(
            self.outstanding.len() <= self.window.capacity(),
            "in-flight requests exceed the admitted window"
        );
        let target = out.target;
        let bytes = match &out.resend {
            Resend::Encoded(bytes) => bytes,
            Resend::Typed(request) => {
                if let Some(copy) = request.plain_copy() {
                    self.uplink(target, Frame::request(CONN_ID, request_id, copy));
                }
                return;
            }
        };
        let (up, deliveries) = self.link.transmit(bytes);
        let arrival = self.clock.now().max(self.up_free) + up;
        self.up_free = arrival;
        for delivery in deliveries {
            match Frame::decode(&delivery.bytes) {
                Ok(delivered) if delivered.as_request().is_some() => {
                    if let Some(queue) = self.pending.get_mut(target) {
                        queue.push_back(PendingFrame {
                            frame: delivered,
                            arrival: arrival + delivery.delay,
                        });
                    }
                }
                Ok(_) => {}
                Err(_) => self.transport.corrupt_frames += 1,
            }
        }
    }

    /// Re-aims an outstanding request at the member the backend fails it
    /// over to, replacing its retransmission state with the request for
    /// that member (encoded bytes are rewritten in place). A request with
    /// nowhere else to go stays put and costs nothing. Failover requests
    /// are span fetches, so a typed state stays typed.
    fn fail_over_target(&mut self, request_id: u64) {
        let Some(out) = self.outstanding.get_mut(&request_id) else {
            return;
        };
        let Some((target, request)) = self.server.fail_over(&out.route, out.target) else {
            return;
        };
        self.transport.failovers += 1;
        out.target = target;
        match &mut out.resend {
            Resend::Typed(kept) => {
                debug_assert!(request.plain_copy().is_some(), "a typed state must stay copyable");
                *kept = request;
            }
            Resend::Encoded(bytes) => encode_request(request_id, &request, bytes),
        }
    }

    /// Detects member restarts (epoch bumps) and recovers each: a
    /// `Hello`/`Welcome` handshake round trip is charged on the wire and
    /// the member's device, then what the dead incarnation lost is
    /// replayed *idempotently* — request ids are unchanged and ids whose
    /// responses already landed or were collected are skipped, so no
    /// request is ever served twice into the collected stream.
    pub(crate) fn resync(&mut self) {
        for m in 0..self.epochs.len() {
            let last = self.epochs[m];
            if self.server.member_epoch(m) == last {
                continue;
            }
            self.transport.epoch_resyncs += 1;
            let hello = Frame::request(CONN_ID, 0, ServerRequest::Hello { epoch: last });
            let up = self.link.charge(hello.wire_size());
            let hello_arrival = self.clock.now().max(self.up_free) + up;
            self.up_free = hello_arrival;
            let (answer, took) = self.server.serve(m, &ServerRequest::Hello { epoch: last });
            let done = hello_arrival.max(self.dev_free[m]) + took;
            self.dev_free[m] = done;
            // The answer moves into the frame for an arithmetic wire-size
            // measurement and is read back out of it — never cloned.
            let welcome = Frame::response(CONN_ID, 0, answer);
            let down = self.link.charge(welcome.wire_size());
            let delivered = done.max(self.down_free) + down;
            self.down_free = delivered;
            self.clock.advance_to_at_least(delivered);
            self.epochs[m] = match welcome.payload {
                FramePayload::Response(ServerResponse::Welcome { epoch }) => epoch,
                _ => self.server.member_epoch(m),
            };
            if !self.keeps_state() {
                // Typed frames that reached the restarted server unanswered
                // died with its volatile queue; put them back on the uplink.
                let replay: Vec<Frame> = self.pending[m].drain(..).map(|p| p.frame).collect();
                for frame in replay {
                    let rid = frame.request_id;
                    if self.landed.contains_key(&rid) || self.collected.contains(rid) {
                        continue;
                    }
                    self.transport.replays += 1;
                    self.uplink(m, frame);
                }
                continue;
            }
            // Frames in transit to the member and frames in its volatile
            // queue are both gone: every request still aimed at it goes
            // back through the ordinary transmit machinery (a replay is not
            // a timeout), re-aimed first where the backend has somewhere
            // else to go. Busy-deferred requests keep their own timers.
            // They replay in request-id order, so one seed always serves
            // them in one order.
            self.pending[m].clear();
            let mut lost: Vec<u64> = self
                .outstanding
                .iter()
                .filter(|(&rid, o)| {
                    o.target == m
                        && !o.deferred
                        && !self.landed.contains_key(&rid)
                        && !self.collected.contains(rid)
                })
                .map(|(&rid, _)| rid)
                .collect();
            lost.sort_unstable();
            for rid in lost {
                self.transport.replays += 1;
                self.fail_over_target(rid);
                self.transmit_request(rid);
            }
        }
    }

    /// Collects the response for `ticket`, advancing the clock to its
    /// arrival and returning how long the caller actually waited (zero if
    /// the response had already landed — that time was won by overlap). A
    /// lost response is retransmitted after its deadline with capped
    /// exponential backoff (failing over where the backend can); a request
    /// that exhausts its retries comes back as an inline
    /// [`ServerResponse::Error`], as do server-side errors.
    pub fn wait(&mut self, ticket: B::Ticket) -> Result<(ServerResponse, SimDuration)> {
        let id = B::ticket_id(ticket);
        let started = self.clock.now();
        loop {
            self.resync();
            B::dispatch(self);
            if let Some(landed) = self.landed.remove(&id) {
                self.clock.advance_to_at_least(landed.ready_at);
                let waited = self.clock.now().saturating_since(started);
                self.window.close(id);
                if let Some(out) = self.outstanding.remove(&id) {
                    self.retire(out);
                }
                if self.keeps_state() {
                    self.collected.insert(id);
                }
                return Ok((landed.response, waited));
            }
            if !self.outstanding.contains_key(&id) {
                return Err(MinosError::Protocol(format!(
                    "unknown or already-collected {ticket:?}"
                )));
            }
            self.force_progress(id);
        }
    }

    /// Drives the client to `at` without collecting anything. The timer
    /// wheel discovers every retransmit deadline, `Busy` retry timer and
    /// heartbeat tick that falls due in the interval and fires it at its
    /// exact instant: a lost response on an otherwise-idle client
    /// retransmits (or expires) *at its deadline*, instead of waiting for
    /// the next [`Client::wait`] to stumble on it.
    pub fn advance_to(&mut self, at: SimInstant) {
        if !B::RESYNC_AFTER_TIMERS {
            self.resync();
        }
        B::dispatch(self);
        // Step armed-deadline to armed-deadline: the clock reaches each
        // deadline exactly when it fires, so a retransmit's backoff chains
        // from the deadline — identical to the wait() discipline — instead
        // of from the far end of the jump. next_deadline may name an
        // intermediate cascade tick where nothing fires yet; those rounds
        // drain empty and the loop steps on.
        while let Some(next) = self.kernel.next_deadline() {
            if next > at {
                break;
            }
            self.clock.advance_to_at_least(next);
            self.drain_retry_wakes();
        }
        self.clock.advance_to_at_least(at);
        self.kernel.advance_to(self.clock.now());
        self.drain_retry_wakes();
        if B::RESYNC_AFTER_TIMERS {
            self.resync();
        }
        B::dispatch(self);
        self.settle();
    }

    /// Charges the downlink for one response frame and lands it at its
    /// delivery instant. On a faulty link the frame is encoded and crosses
    /// the fault layer: corrupt copies are counted and discarded (the
    /// deadline machinery retransmits), and every surviving copy is
    /// received into a pooled buffer.
    ///
    /// The sender's trailer over a span the backend holds a CRC for (a
    /// whole published page, [`Backend::span_crc`]) is composed from that
    /// CRC, so the page is checksummed once, by the receiver, not twice.
    /// The check is then end to end: a page that rotted on the device, or
    /// a stale span, fails at the receiver like wire damage and is fetched
    /// again, failed over where the backend can. Other responses, and
    /// duplicates of a request already in hand, take the full pass.
    pub(crate) fn land(&mut self, request_id: u64, response: ServerResponse, done: SimInstant) {
        let frame = Frame::response(CONN_ID, request_id, response);
        if self.link.is_clean() {
            // The response moved into a typed frame to measure its wire
            // size arithmetically and is taken back out — no copy, no
            // encoding on the clean path.
            let down = self.link.charge(frame.wire_size());
            let delivered = done.max(self.down_free) + down;
            self.down_free = delivered;
            if let FramePayload::Response(response) = frame.payload {
                self.receive(request_id, response, delivered);
            }
            return;
        }
        let payload_crc = match (&frame.payload, self.outstanding.get(&request_id)) {
            (FramePayload::Response(ServerResponse::Span(page)), Some(out)) => {
                self.server.span_crc(&out.route, page.len() as u64)
            }
            _ => None,
        };
        let mut bytes = self.lease();
        frame.encode_into_with_payload_crc(&mut bytes, payload_crc);
        // The page is on the wire; its buffer goes back to the pool, where
        // the decode below leases it again.
        if let FramePayload::Response(ServerResponse::Span(page)) = frame.payload {
            self.pool.recycle(page);
        }
        let (down, deliveries) = self.link.transmit(&bytes);
        let delivered = done.max(self.down_free) + down;
        self.down_free = delivered;
        for delivery in deliveries {
            let decoded = Frame::decode_with(&delivery.bytes, &mut || {
                lease_counted(&self.pool, &mut self.transport)
            });
            match decoded {
                Ok(Frame { request_id, payload: FramePayload::Response(response), .. }) => {
                    self.receive(request_id, response, delivered + delivery.delay);
                }
                Ok(_) => {}
                Err(_) => self.transport.corrupt_frames += 1,
            }
        }
        self.pool.recycle(bytes);
    }

    /// Accepts one response at its delivery instant: duplicates are
    /// suppressed, a `Busy` turn-away for a tracked request parks it on a
    /// retry timer honoring the server's hint (and fails it over where the
    /// backend can), and anything else lands for collection.
    fn receive(&mut self, request_id: u64, response: ServerResponse, at: SimInstant) {
        if self.collected.contains(request_id) || self.landed.contains_key(&request_id) {
            self.transport.duplicates += 1;
            return;
        }
        if let ServerResponse::Busy { retry_after } = response {
            if let Some(out) = self.outstanding.get(&request_id) {
                if out.deferred {
                    // A duplicated Busy reply must not double-park.
                    self.transport.duplicates += 1;
                    return;
                }
                self.busy.busy_deferred += 1;
                let due = at + retry_after;
                self.kernel.cancel(out.timer);
                let attempt = out.attempt;
                let timer = self.kernel.arm(due, KernelEvent::RetryDue { request_id, attempt });
                // Resubmit somewhere less loaded when there is a sibling
                // copy; otherwise the failover is a no-op.
                self.fail_over_target(request_id);
                if let Some(out) = self.outstanding.get_mut(&request_id) {
                    out.deferred = true;
                    out.deadline = due;
                    out.timer = timer;
                }
                return;
            }
        }
        // The response is in hand: the retransmission state is done.
        if let Some(out) = self.outstanding.remove(&request_id) {
            self.retire(out);
        }
        self.landed.insert(request_id, Landed { response, ready_at: at });
    }

    /// Fires every kernel event due at the current clock and handles the
    /// retransmit wakes among them, handing any other event to the
    /// backend. Re-advances each round because a handler can arm a
    /// deadline already behind kernel time (a capped backoff), which lands
    /// due immediately and must still be flushed.
    fn drain_retry_wakes(&mut self) {
        loop {
            self.kernel.advance_to(self.clock.now());
            let Some(event) = self.kernel.take_ready() else { break };
            let KernelEvent::RetryDue { request_id, attempt } = event else {
                B::on_timer(self, event);
                continue;
            };
            let now = self.clock.now();
            let due = self
                .outstanding
                .get(&request_id)
                .is_some_and(|o| o.attempt == attempt && o.deadline <= now);
            if due && !self.landed.contains_key(&request_id) {
                self.force_progress(request_id);
            } else {
                self.kernel.note_spurious();
            }
        }
    }

    /// Forces progress on a slot whose response has not landed.
    ///
    /// A `Busy`-deferred request waits out its hint, then resubmits with a
    /// fresh deadline — costing neither a timeout nor a retry, and never
    /// leaving early. A genuinely lost request waits out its deadline and
    /// either retransmits (doubling the deadline, up to [`BACKOFF_CAP`],
    /// and failing over where the backend can) or — retries exhausted —
    /// expires with an inline [`ServerResponse::Error`] so the slot can
    /// settle and the pipeline keeps moving. A slot with no retransmission
    /// state lands an inline error at once: better a typed failure than an
    /// overrun window or a hang.
    fn force_progress(&mut self, request_id: u64) {
        let Some((deadline, attempt, timer, deferred)) =
            self.outstanding.get(&request_id).map(|o| (o.deadline, o.attempt, o.timer, o.deferred))
        else {
            self.expire(
                request_id,
                format!("request {request_id} lost with no retransmission state"),
            );
            return;
        };
        if deferred {
            // The hint gates the uplink: the resubmission leaves at the
            // later of "now" and the due instant, never earlier.
            self.clock.advance_to_at_least(deadline);
            if self.clock.now() < deadline {
                self.busy.premature_busy_retries += 1;
            }
            self.kernel.cancel(timer);
            let next_deadline = self.clock.now() + self.timeout;
            let fresh =
                self.kernel.arm(next_deadline, KernelEvent::RetryDue { request_id, attempt });
            if let Some(out) = self.outstanding.get_mut(&request_id) {
                out.deferred = false;
                out.deadline = next_deadline;
                out.timer = fresh;
            }
            self.transmit_request(request_id);
            return;
        }
        self.transport.timeouts += 1;
        self.clock.advance_to_at_least(deadline);
        self.kernel.cancel(timer);
        if attempt >= self.max_retries {
            if let Some(out) = self.outstanding.remove(&request_id) {
                self.retire(out);
            }
            let attempts = attempt + 1;
            self.expire(
                request_id,
                format!("request {request_id} timed out after {attempts} attempts"),
            );
            return;
        }
        self.transport.retries += 1;
        let shift = (attempt + 1).min(16);
        let backoff =
            SimDuration::from_micros(self.timeout.as_micros().saturating_mul(1u64 << shift))
                .min(BACKOFF_CAP);
        let next_deadline = self.clock.now() + backoff;
        let fresh = self
            .kernel
            .arm(next_deadline, KernelEvent::RetryDue { request_id, attempt: attempt + 1 });
        if let Some(out) = self.outstanding.get_mut(&request_id) {
            out.attempt = attempt + 1;
            out.deadline = next_deadline;
            out.timer = fresh;
        }
        // A timeout is evidence against the target, not just the wire: the
        // retransmit goes wherever the backend fails it over to.
        self.fail_over_target(request_id);
        self.transmit_request(request_id);
    }

    /// Lands an inline error for `request_id` now.
    fn expire(&mut self, request_id: u64, message: String) {
        let ready_at = self.clock.now();
        self.landed
            .insert(request_id, Landed { response: ServerResponse::Error(message), ready_at });
    }

    /// Retires window slots whose responses have already arrived.
    fn settle(&mut self) {
        let now = self.clock.now();
        for (&rid, landed) in &self.landed {
            if landed.ready_at <= now {
                self.window.close(rid);
            }
        }
    }
}

/// Encodes `request` as a request frame into `bytes`, replacing what they
/// held and reusing their capacity.
fn encode_request(request_id: u64, request: &ServerRequest, bytes: &mut Vec<u8>) {
    bytes.clear();
    Frame::encode_request_into(CONN_ID, request_id, Priority::Demand, request, bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{Fleet, FleetConnection, FleetTicket};
    use minos_types::{ByteSpan, ObjectId};

    const PAGE: u64 = 1024;

    /// A clean connection with an in-flight window of `window` to a
    /// `members`-member, k=1 fleet holding one 32-page object.
    fn clean(members: usize, window: usize) -> (FleetConnection, ObjectId) {
        let mut fleet = Fleet::new(members, 1).expect("valid shape");
        let object = ObjectId::new(7);
        let body: Vec<u8> = (0..32 * PAGE).map(|i| (i % 251) as u8).collect();
        fleet.publish_paged(object, &body, PAGE).expect("publish");
        (FleetConnection::with_window(fleet, Link::ethernet(), window), object)
    }

    fn fetch(conn: &mut FleetConnection, object: ObjectId, page: u64) -> FleetTicket {
        conn.fetch_page(object, ByteSpan::at(page * PAGE, PAGE)).expect("submit")
    }

    fn collect(conn: &mut FleetConnection, ticket: FleetTicket) {
        let (response, _) = conn.wait(ticket).expect("collect");
        let ServerResponse::Span(bytes) = response else {
            panic!("unexpected response {response:?}");
        };
        conn.recycle_payload(bytes);
    }

    #[test]
    fn out_of_order_collection_advances_the_watermark() {
        let (mut conn, object) = clean(1, 8);
        let tickets: Vec<FleetTicket> = (0..3).map(|page| fetch(&mut conn, object, page)).collect();
        let ids: Vec<u64> = tickets.iter().map(|&t| Fleet::ticket_id(t)).collect();
        assert_eq!(ids, [1, 2, 3]);
        collect(&mut conn, tickets[2]);
        assert_eq!(conn.collected.floor, 0);
        assert!(conn.collected.contains(3) && !conn.collected.contains(1));
        collect(&mut conn, tickets[0]);
        assert_eq!(conn.collected.floor, 1);
        collect(&mut conn, tickets[1]);
        assert_eq!(conn.collected.floor, 3, "collecting 2 closes the gap up to 3");
        assert!(conn.collected.above.is_empty());
    }

    #[test]
    fn a_duplicate_below_the_watermark_is_counted_and_never_lands() {
        let (mut conn, object) = clean(1, 8);
        let ticket = fetch(&mut conn, object, 0);
        let id = Fleet::ticket_id(ticket);
        collect(&mut conn, ticket);
        assert!(id <= conn.collected.floor);
        let at = conn.clock.now();
        conn.receive(id, ServerResponse::Span(vec![0; PAGE as usize]), at);
        assert_eq!(conn.transport_stats().duplicates, 1);
        assert!(!conn.landed.contains_key(&id), "a duplicate must not land");
        assert!(matches!(conn.wait(ticket), Err(MinosError::Protocol(_))));
    }

    #[test]
    fn collected_ids_above_the_watermark_stay_within_the_window() {
        let window = 8;
        let (mut conn, object) = clean(2, window);
        for i in 0..10 * window as u64 {
            let ticket = fetch(&mut conn, object, i % 32);
            collect(&mut conn, ticket);
            assert!(conn.collected.above.len() <= window, "after {} fetches", i + 1);
        }
        // Pipelined windows collected newest first hold ids above the
        // watermark only until the oldest of the window is collected.
        for _ in 0..10 {
            let tickets: Vec<FleetTicket> =
                (0..window as u64).map(|page| fetch(&mut conn, object, page)).collect();
            for &ticket in tickets.iter().rev() {
                collect(&mut conn, ticket);
                assert!(conn.collected.above.len() < window);
            }
            assert!(conn.collected.above.is_empty());
        }
    }

    #[test]
    fn a_restart_replays_lost_requests_in_id_order() {
        let run = || {
            let (mut conn, object) = clean(1, 8);
            // Every other page, so no two requests coalesce into one read.
            let tickets: Vec<FleetTicket> =
                (0..6).map(|page| fetch(&mut conn, object, 2 * page)).collect();
            // All six frames are still on the uplink when the member
            // restarts: the first wait resyncs, replays them and serves
            // every one.
            conn.fleet_mut().restart_member(0).expect("member 0 exists");
            collect(&mut conn, tickets[0]);
            let mut ready: Vec<(u64, SimInstant)> =
                conn.landed.iter().map(|(&id, l)| (id, l.ready_at)).collect();
            ready.sort_unstable();
            assert_eq!(ready.len(), 5);
            assert!(ready.windows(2).all(|w| w[0].1 < w[1].1), "served out of id order: {ready:?}");
            for &ticket in &tickets[1..] {
                collect(&mut conn, ticket);
            }
            assert_eq!(conn.transport_stats().replays, 6);
            conn.elapsed()
        };
        assert_eq!(run(), run());
    }
}

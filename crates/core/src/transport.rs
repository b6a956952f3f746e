//! The pipelined client: one request lifecycle for every server side.
//!
//! "The multimedia object presentation manager resides in the user's
//! workstation and requests the appropriate pieces of information from the
//! multimedia object server subsystems." (§5) A [`Client`] is that
//! requester, and everything a request goes through between submit and
//! collection is written here once:
//!
//! * **One request table.** Request ids are dense per client, so every
//!   request from submit to collection is one slot of a ring indexed by
//!   `request_id - base`, where `base` is the oldest uncollected id. The
//!   slot holds the request's connection, its retransmission state, the
//!   arrival instant of its frame, its landed response and its window and
//!   collected flags; collecting the oldest request pops its slot, so a
//!   warm connection reuses the ring instead of allocating.
//! * **Many connections.** A client carries any number of connections
//!   (the session scheduler opens one per session) over one wire, one
//!   fleet, one set of timelines, one buffer pool and one clock, all
//!   drawing request ids from the one table. Each connection has its own
//!   flow-control window and its own fault layer; a caller waiting on a
//!   request has its own connection served first, then every member's
//!   rotation. A single caller uses connection 1.
//! * **Flow control.** A connection's submissions are admitted into a
//!   bounded window of open slots; a full window is waited out, or its
//!   oldest slot is forced through the deadline machinery, never overrun.
//! * **Three timelines.** The uplink, one device per server member and
//!   the downlink are serially-reusable resources, each a kernel
//!   `Timeline` whose bookings start once both the work is ready and the
//!   resource is free, so pipelined requests overlap link transfer with
//!   device time and waiting charges only what overlap did not hide.
//! * **Recovery.** Every request keeps retransmission state and its own
//!   deadline: a loss retransmits it with capped exponential backoff until
//!   the retry budget expires it into an inline [`ServerResponse::Error`].
//!   The client keeps one retransmit timer on the [`Kernel`],
//!   armed for the earliest deadline (RFC 6298 §5); when it fires, every
//!   request whose deadline passed is handled in deadline order, then the
//!   timer is re-armed for the next. What is kept is the request itself on
//!   a clean connection, where every send is a typed frame; only where a
//!   connection's [`FaultLayer`] can mangle frames (or the request owns
//!   heap data) is the request encoded once into a pooled buffer and
//!   those bytes resent.
//!   Corrupt frames are discarded, duplicates of a landed or collected
//!   response are suppressed by the table, and a `Busy { retry_after }`
//!   reply parks the request until the server's own hint elapses.
//! * **Restarts.** A member whose epoch moved is re-handshaken with
//!   `Hello`/`Welcome`, and whatever its dead incarnation lost is replayed
//!   idempotently under the original request ids, in request-id order.
//! * **Service.** Every pending frame enters its member's
//!   [`ObjectServer`] service queue and comes back through
//!   [`ObjectServer::poll_conn`], so adjacent span fetches are coalesced
//!   in one place, the server's.
//!
//! The server side is always a [`Fleet`]; a single server is a fleet of
//! one (`Fleet::from(server)`). A fleet page fetch names its object, so it
//! can fail over to a sibling replica and ride its page's publish-time
//! CRC; a raw request to one server has nowhere else to go.
//! The workstation of [`crate::remote`] is a client of one server, and
//! [`FleetConnection`](crate::fleet::FleetConnection) is another name for
//! [`Client`]; the [`SessionScheduler`](crate::sched::SessionScheduler)
//! runs each of its sessions as one connection of a client.

use crate::fleet::{Fleet, HealthMonitor};
use crate::kernel::{Kernel, KernelEvent, KernelStats, Timeline, TimerId};
use minos_net::{
    BufferPool, FaultLayer, FaultPlan, FaultStats, Frame, FramePayload, Link, LinkStats, Priority,
    ServerRequest, ServerResponse,
};
use minos_server::{ObjectServer, ServiceConfig};
use minos_types::{ByteSpan, MinosError, ObjectId, Result, SimDuration, SimInstant};
use std::collections::VecDeque;

/// Leases a buffer from `pool`, counting a hit or a fresh allocation in
/// `stats`.
fn lease_counted(pool: &BufferPool, stats: &mut TransportStats) -> Vec<u8> {
    if pool.free_buffers() > 0 {
        stats.pool_hits += 1;
    } else {
        stats.payload_allocs += 1;
    }
    pool.lease_vec()
}

/// The connection every single-caller request travels under. Servers tell
/// requests apart by request id, which the client keeps unique across all
/// its connections.
pub(crate) const CONN_ID: u64 = 1;

/// Default pipelining budget: requests that may be in flight at once. It
/// fits a server's default per-connection queue cap, so admission never
/// turns a full default window away `Busy`.
pub(crate) const DEFAULT_WINDOW: usize = 32;
const _: () = assert!(DEFAULT_WINDOW <= ServiceConfig::DEFAULT_PER_CONN_CAP);

/// Default per-request deadline. The sim serves every surviving frame by
/// the time a caller waits on it, so a deadline only ever fires on genuine
/// loss — it can be short without risking spurious retransmits.
const DEFAULT_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// Default retransmission budget before a request expires with an inline
/// error.
const DEFAULT_MAX_RETRIES: u32 = 4;

/// Ceiling on the exponential backoff between retransmits.
const BACKOFF_CAP: SimDuration = SimDuration::from_secs(4);

/// A handle to a submitted, not-yet-collected request on a [`Client`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ticket(pub(crate) u64);

/// What a failover needs, beyond the target member, to re-aim a request at
/// another copy of its data: the object and the span relative to its first
/// byte. `None` for a raw request to one server, which has nowhere else to
/// go and no page CRC.
pub(crate) type Route = Option<(ObjectId, ByteSpan)>;

/// A request frame accepted for transmission but not yet served: its bytes
/// finish arriving at the server at `arrival`.
struct PendingFrame {
    frame: Frame,
    arrival: SimInstant,
}

/// A served response whose bytes finish arriving back at `ready_at`.
pub(crate) struct Landed {
    pub(crate) response: ServerResponse,
    pub(crate) ready_at: SimInstant,
    /// Whether the client gave the request up itself, retries exhausted:
    /// the inline error then says nothing about what the server holds.
    pub(crate) expired: bool,
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
struct Outstanding {
    /// The member the request is currently aimed at.
    target: usize,
    /// The service class every send of the request travels at.
    priority: Priority,
    route: Route,
    resend: Resend,
    deadline: SimInstant,
    /// When `deadline` was set, in the connection's arm order: requests
    /// whose deadlines tie are handled in the order they were set.
    armed: u64,
    attempt: u32,
    /// Whether the request is parked on a `Busy { retry_after }` hint:
    /// `deadline` is then the earliest instant it may go back on the
    /// wire, and reaching it costs neither a timeout nor a retry.
    deferred: bool,
}

/// One request's row in the request table, from submit to collection.
#[derive(Default)]
struct Slot {
    /// The connection the request travels on.
    conn: u64,
    /// Retransmission state, until the response lands.
    out: Option<Outstanding>,
    /// When the request's frame finished arriving at its member: stamped
    /// as the frame enters the member's service queue and taken when its
    /// response is served.
    ///
    /// Known defect: when a request frame is duplicated in transit, the
    /// later copy's arrival overwrites the earlier copy's, the first
    /// response served takes it, and the second falls back to the uplink's
    /// free instant. Fixing it moves simulated timing on lossy links, so it
    /// waits for the device model to move into the fleet.
    arrival: Option<SimInstant>,
    /// The response, once it has landed, until it is collected.
    landed: Option<Landed>,
    /// Whether the request holds a place in its connection's window: from
    /// its submit until its response has arrived.
    open: bool,
    /// Whether the response was collected; a collected slot is popped
    /// once every older slot is collected too.
    collected: bool,
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
    /// Requests turned away with [`ServerResponse::Busy`] and parked on the
    /// retransmit timer until the server's `retry_after` hint elapsed.
    pub busy_deferred: u64,
    /// Deferred resubmissions that left before their hint elapsed.
    /// Always zero — the retry timer gates the uplink — and pinned so.
    pub premature_busy_retries: u64,
    /// The client's own pool leases served from the free list — no
    /// allocation happened. Its servers lease span payloads from the same
    /// pool and count those leases in their service stats, so each lease is
    /// counted once, by whoever took it.
    pub pool_hits: u64,
    /// The client's own pool leases that had to allocate a fresh buffer (a
    /// cold pool or a burst deeper than the retained free list). Once the
    /// pool is warm a steady-state window transmits with zero of these.
    pub payload_allocs: u64,
}

/// One connection's own state on a client's shared wire.
pub(crate) struct Conn {
    /// What the link does to this connection's frames.
    faults: FaultLayer,
    /// Requests holding a place in this connection's window.
    open: usize,
}

impl Conn {
    fn new(plan: FaultPlan) -> Self {
        Conn { faults: FaultLayer::new(plan), open: 0 }
    }
}

/// A pipelined client of a [`Fleet`] over one shared link (the paper's
/// broadcast bus).
///
/// Submitting charges the uplink at once and returns a ticket; pending
/// frames move through their member's device and back over the downlink
/// whenever the client dispatches; responses land timestamped, and
/// [`Client::wait`] charges only the time between "now" and the response's
/// arrival — that difference is where pipelining wins.
///
/// A client with nothing in flight, nothing at its members and no
/// deadline due before an instant is quiet through it: moving it there
/// changes only its kernel, which is its clock. The session scheduler
/// checks this one predicate before each tick's service pump and skips the
/// pump when it holds.
pub struct Client {
    pub(crate) fleet: Fleet,
    /// Per-member epoch last handshaken; a mismatch triggers the resync.
    pub(crate) epochs: Vec<u64>,
    pub(crate) link: Link,
    /// Connection `c`'s state at index `c - 1`.
    conns: Vec<Conn>,
    /// The request table: slot `i` is request `base + i`, and the next
    /// request id is the one past its end.
    table: VecDeque<Slot>,
    /// The oldest uncollected request id.
    base: u64,
    /// Each connection's flow-control window: most slots it holds open at
    /// once.
    window_cap: usize,
    /// Per-member queues of request frames in transit to that member.
    pending: Vec<VecDeque<PendingFrame>>,
    /// Transmit and payload buffers leased and recycled across the
    /// client's lifetime, shared with its servers. The client's own leases
    /// go through [`Client::lease`], which counts them in
    /// [`TransportStats`].
    pool: BufferPool,
    /// The client's clock, with its one retransmit timer (and any
    /// heartbeat tick), so a loss on an idle client is discovered by
    /// [`Client::advance_to`] at its deadline.
    pub(crate) kernel: Kernel,
    /// The retransmit timer's deadline and handle, while armed. It is
    /// never later than any outstanding request's deadline.
    retry_timer: Option<(SimInstant, TimerId)>,
    /// Arm-order stamp of the next deadline set.
    next_armed: u64,
    transport: TransportStats,
    timeout: SimDuration,
    max_retries: u32,
    pub(crate) up: Timeline,
    /// One device timeline per member: the shared wire feeds N devices.
    dev: Vec<Timeline>,
    pub(crate) down: Timeline,
    round_trips: u64,
    /// Heartbeat interval once armed; `None` keeps heartbeats off.
    pub(crate) heartbeat: Option<SimDuration>,
    /// Per-member failure detector fed by the heartbeats.
    pub(crate) health: HealthMonitor,
    /// Nonce of the next heartbeat ping.
    pub(crate) next_nonce: u64,
}

impl Client {
    /// Opens a client of `servers` (a [`Fleet`], or one [`ObjectServer`] as
    /// a fleet of one) over `link` with the default in-flight window.
    pub fn new(servers: impl Into<Fleet>, link: Link) -> Self {
        Client::with_window(servers, link, DEFAULT_WINDOW)
    }

    /// Opens a client with an explicit in-flight window capacity (capacity
    /// 1 degenerates to the blocking discipline).
    pub fn with_window(servers: impl Into<Fleet>, link: Link, window: usize) -> Self {
        Client::with_faults(servers, link, window, FaultPlan::none())
    }

    /// Opens a client whose connection 1 misbehaves on the link according
    /// to `plan`. With a clean plan this is identical to
    /// [`Client::with_window`]; otherwise every frame of the connection
    /// crosses the fault layer and the recovery machinery (deadlines,
    /// retransmission, duplicate suppression, failover) engages.
    pub fn with_faults(
        servers: impl Into<Fleet>,
        link: Link,
        window: usize,
        plan: FaultPlan,
    ) -> Self {
        let mut fleet = servers.into();
        // One pool for the client and its servers: a page collected and
        // recycled goes back to the pool its server leases from.
        let pool = BufferPool::new();
        for member in fleet.servers_mut() {
            member.adopt_pool(pool.clone());
        }
        let members = fleet.servers().len();
        Client {
            epochs: fleet.servers().iter().map(ObjectServer::epoch).collect(),
            fleet,
            link,
            conns: vec![Conn::new(plan)],
            table: VecDeque::new(),
            base: 1,
            // A window that can never open would deadlock the pipeline.
            window_cap: window.max(1),
            pending: (0..members).map(|_| VecDeque::new()).collect(),
            pool,
            kernel: Kernel::new(),
            retry_timer: None,
            next_armed: 0,
            transport: TransportStats::default(),
            timeout: DEFAULT_TIMEOUT,
            max_retries: DEFAULT_MAX_RETRIES,
            up: Timeline::default(),
            dev: vec![Timeline::default(); members],
            down: Timeline::default(),
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
        self.kernel.now().since(SimInstant::EPOCH)
    }

    /// Payload bytes moved over the link so far.
    pub fn bytes_transferred(&self) -> u64 {
        self.link.stats().bytes
    }

    /// Link transfer statistics (messages, bytes, busy time).
    pub fn link_stats(&self) -> LinkStats {
        self.link.stats()
    }

    /// What the fault layer did to connection 1's frames.
    pub fn fault_stats(&self) -> FaultStats {
        self.conn_faults(CONN_ID)
    }

    /// What the fault layer did to `conn`'s frames (zeros for a connection
    /// never used).
    pub(crate) fn conn_faults(&self, conn: u64) -> FaultStats {
        self.conns.get(conn_index(conn)).map(|c| c.faults.stats()).unwrap_or_default()
    }

    /// Makes `conn`'s frames misbehave according to `plan` from now on (a
    /// clean plan heals the connection and zeroes its fault counts). The
    /// plan applies to the connection's responses and to the requests it
    /// submits from now on; a request already kept as a typed frame stays
    /// typed.
    pub(crate) fn set_faults(&mut self, conn: u64, plan: FaultPlan) {
        self.conn_mut(conn).faults = FaultLayer::new(plan);
    }

    /// Connection `conn`'s state, opened clean on first use.
    fn conn_mut(&mut self, conn: u64) -> &mut Conn {
        let at = conn_index(conn);
        while self.conns.len() <= at {
            self.conns.push(Conn::new(FaultPlan::none()));
        }
        &mut self.conns[at]
    }

    /// Whether no fault plan can touch `conn`'s frames.
    fn is_clean(&self, conn: u64) -> bool {
        self.conns.get(conn_index(conn)).is_none_or(|c| c.faults.is_clean())
    }

    /// What the recovery machinery had to do — timeouts, retries, corrupt
    /// frames, duplicates, replays, epoch resyncs, failovers, `Busy`
    /// deferrals — plus the transmit-pool accounting (hits, misses, fresh
    /// payload allocations).
    pub fn transport_stats(&self) -> TransportStats {
        self.transport
    }

    /// The kernel counters of the recovery machinery.
    pub fn kernel_stats(&self) -> KernelStats {
        self.kernel.stats()
    }

    /// Round trips so far: times the client went from idle (nothing in
    /// flight) to busy. A blocking caller pays one per request; a
    /// pipelined burst pays one for the whole burst — that is its point.
    pub fn round_trips(&self) -> u64 {
        self.round_trips
    }

    /// Requests submitted and not yet collected.
    pub fn in_flight(&self) -> usize {
        self.conns.iter().map(|c| c.open).sum()
    }

    /// Where `request_id`'s slot sits in the table, unless the request was
    /// collected (the index may lie past the end for an id never
    /// submitted).
    fn slot_index(&self, request_id: u64) -> Option<usize> {
        usize::try_from(request_id.checked_sub(self.base)?).ok()
    }

    /// The table slot of `request_id`, unless it was collected (or never
    /// submitted).
    fn slot(&self, request_id: u64) -> Option<&Slot> {
        self.table.get(self.slot_index(request_id)?)
    }

    /// Mutable access to the table slot of `request_id`.
    fn slot_mut(&mut self, request_id: u64) -> Option<&mut Slot> {
        let at = self.slot_index(request_id)?;
        self.table.get_mut(at)
    }

    /// Retransmission state of `request_id`, while its response has not
    /// landed.
    fn outstanding(&self, request_id: u64) -> Option<&Outstanding> {
        self.slot(request_id)?.out.as_ref()
    }

    /// Mutable retransmission state of `request_id`.
    fn outstanding_mut(&mut self, request_id: u64) -> Option<&mut Outstanding> {
        self.slot_mut(request_id)?.out.as_mut()
    }

    /// The oldest request of `conn` still holding a window place.
    fn oldest_open(&self, conn: u64) -> Option<u64> {
        let at = self.table.iter().position(|slot| slot.open && slot.conn == conn)?;
        Some(self.base + at as u64)
    }

    /// Sets `request_id`'s deadline, stamps it in arm order, and pulls the
    /// retransmit timer forward if the deadline is earlier than the one it
    /// is armed for.
    fn set_deadline(&mut self, request_id: u64, deadline: SimInstant) {
        let armed = self.next_armed;
        self.next_armed += 1;
        let Some(out) = self.outstanding_mut(request_id) else { return };
        out.deadline = deadline;
        out.armed = armed;
        let attempt = out.attempt;
        if self.retry_timer.is_some_and(|(at, _)| at <= deadline) {
            return;
        }
        if let Some((_, timer)) = self.retry_timer.take() {
            self.kernel.cancel(timer);
        }
        let timer = self.kernel.arm(deadline, KernelEvent::RetryDue { request_id, attempt });
        self.retry_timer = Some((deadline, timer));
    }

    /// Hands a consumed payload buffer back to the transmit pool, so the
    /// steady-state hot path re-serves it instead of allocating a fresh
    /// one per page. The client's servers lease their span payloads from
    /// this same pool, so a collected page (or a faulty-link decode of it)
    /// is recycled into the pool that leased it.
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
                .arm(self.kernel.now() + interval, KernelEvent::HealthTick { member: m as u64 });
        }
    }

    /// Admits the next submission on `conn` into its flow-control window:
    /// resyncs epochs, settles arrived responses, waits out (or forces
    /// progress on) a full window, and allocates the request id.
    pub(crate) fn admit_slot(&mut self, conn: u64) -> u64 {
        self.resync();
        self.settle();
        while self.conn_mut(conn).open >= self.window_cap {
            self.dispatch(&[]);
            self.settle();
            if self.conn_mut(conn).open < self.window_cap {
                break;
            }
            let now = self.kernel.now();
            let own = self.table.iter().filter(|slot| slot.conn == conn);
            let arriving = own.filter_map(|slot| slot.landed.as_ref());
            if let Some(next) = arriving.map(|l| l.ready_at).filter(|&t| t > now).min() {
                self.kernel.advance_to(next);
                self.settle();
                continue;
            }
            // Window full with nothing landed and nothing arriving: every
            // open slot's response was lost on the wire. Force the oldest
            // slot through a timeout round (retransmit or expire) rather
            // than overrunning the flow-control bound.
            let Some(oldest) = self.oldest_open(conn) else { break };
            self.force_progress(oldest);
            self.settle();
        }
        if self.in_flight() == 0 {
            self.round_trips += 1;
        }
        // An id whose submit fails after admission never reaches the
        // table, and the next admission reuses it.
        self.base + self.table.len() as u64
    }

    /// Puts a typed request frame on the uplink to `member`, charging its
    /// wire size arithmetically — nothing is copied or encoded.
    fn uplink(&mut self, member: usize, frame: Frame) {
        // Every typed frame in transit belongs to an admitted slot (a clean
        // link neither loses nor duplicates), so the windows bound them.
        debug_assert!(
            self.pending.iter().map(VecDeque::len).sum::<usize>()
                < self.window_cap * self.conns.len(),
            "frames in transit exceed the admitted windows"
        );
        let (_, arrival) = self.up.book(self.kernel.now(), self.link.transfer(frame.wire_size()));
        if let Some(queue) = self.pending.get_mut(member) {
            queue.push_back(PendingFrame { frame, arrival });
        }
    }

    /// Encodes `request` once — from its borrow, into a pooled buffer —
    /// as its retransmission state, and submits it on `conn` at `priority`
    /// to `target`.
    pub(crate) fn submit_encoded(
        &mut self,
        request_id: u64,
        (conn, priority): (u64, Priority),
        target: usize,
        route: Route,
        request: &ServerRequest,
    ) {
        let mut bytes = self.lease();
        encode_request(conn, request_id, priority, request, &mut bytes);
        self.track(request_id, (conn, priority), target, route, Resend::Encoded(bytes));
    }

    /// Keeps `request`, moved in, as its retransmission state and submits
    /// it on `conn` at `priority` to `target`. Only where a send cannot be
    /// a typed frame (a faulty connection, or a request that owns heap
    /// data) is it encoded instead.
    pub(crate) fn submit_tracked(
        &mut self,
        request_id: u64,
        (conn, priority): (u64, Priority),
        target: usize,
        route: Route,
        request: ServerRequest,
    ) {
        if self.is_clean(conn) && request.plain_copy().is_some() {
            self.track(request_id, (conn, priority), target, route, Resend::Typed(request));
        } else {
            self.submit_encoded(request_id, (conn, priority), target, route, &request);
        }
    }

    /// Opens the request's slot in the table with `resend` as its
    /// retransmission state and a deadline, and puts it on the wire to
    /// `target`. Admission already made room in the connection's window,
    /// whose capacity bounds its open slots.
    fn track(
        &mut self,
        request_id: u64,
        (conn, priority): (u64, Priority),
        target: usize,
        route: Route,
        resend: Resend,
    ) {
        let window_cap = self.window_cap;
        let open = &mut self.conn_mut(conn).open;
        debug_assert!(*open < window_cap, "a submit overran the window capacity");
        *open += 1;
        debug_assert_eq!(request_id, self.base + self.table.len() as u64, "ids are dense");
        let deadline = self.kernel.now() + self.timeout;
        let out = Outstanding {
            target,
            priority,
            route,
            resend,
            deadline,
            armed: 0,
            attempt: 0,
            deferred: false,
        };
        self.table.push_back(Slot { conn, out: Some(out), open: true, ..Slot::default() });
        self.set_deadline(request_id, deadline);
        self.transmit_request(request_id);
    }

    /// Drops a request's retransmission state: any encoded bytes go back to
    /// the pool. Its deadline dies with it; the retransmit timer stays
    /// armed for the deadlines left, and is disarmed once the table
    /// empties.
    fn retire(&mut self, out: Outstanding) {
        if let Resend::Encoded(bytes) = out.resend {
            self.pool.recycle(bytes);
        }
    }

    /// Sends an outstanding request to its current target. A kept request
    /// (always plain-valued, so its copy never fails) goes up as a typed
    /// frame; kept bytes cross the fault layer, and whatever survives
    /// decoding joins that member's pending queue.
    fn transmit_request(&mut self, request_id: u64) {
        // The flow-control window is the admission bound: a request only
        // reaches the wire through an admitted slot, so the in-transit
        // queues can never outgrow it (duplicates aside, which the fault
        // layer caps per transmit).
        debug_assert!(
            self.table.iter().filter(|slot| slot.out.is_some()).count()
                <= self.window_cap * self.conns.len(),
            "in-flight requests exceed the admitted windows"
        );
        let slot = self.slot_index(request_id).and_then(|at| self.table.get(at));
        let Some((conn, out)) = slot.and_then(|slot| Some((slot.conn, slot.out.as_ref()?))) else {
            return;
        };
        let target = out.target;
        let bytes = match &out.resend {
            Resend::Encoded(bytes) => bytes,
            Resend::Typed(request) => {
                if let Some(copy) = request.plain_copy() {
                    let priority = out.priority;
                    let frame = Frame::request_with_priority(conn, request_id, priority, copy);
                    self.uplink(target, frame);
                }
                return;
            }
        };
        let up = self.link.transfer(bytes.len() as u64);
        let deliveries = self.conns[conn_index(conn)].faults.apply(bytes);
        let (_, arrival) = self.up.book(self.kernel.now(), up);
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

    /// Re-aims an outstanding request at the member the fleet fails it
    /// over to, replacing its retransmission state with the request for
    /// that member (encoded bytes are rewritten in place). A request with
    /// nowhere else to go stays put and costs nothing. Failover requests
    /// are span fetches, so a typed state stays typed.
    fn fail_over_target(&mut self, request_id: u64) {
        let Some(at) = self.slot_index(request_id) else {
            return;
        };
        let Some(slot) = self.table.get_mut(at) else {
            return;
        };
        let Some(out) = slot.out.as_mut() else {
            return;
        };
        let Some((target, request)) = self.fleet.fail_over(&out.route, out.target) else {
            return;
        };
        self.transport.failovers += 1;
        out.target = target;
        match &mut out.resend {
            Resend::Typed(kept) => {
                debug_assert!(request.plain_copy().is_some(), "a typed state must stay copyable");
                *kept = request;
            }
            Resend::Encoded(bytes) => {
                encode_request(slot.conn, request_id, out.priority, &request, bytes);
            }
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
            if self.fleet.servers()[m].epoch() == last {
                continue;
            }
            self.transport.epoch_resyncs += 1;
            let hello = Frame::request(CONN_ID, 0, ServerRequest::Hello { epoch: last });
            let (_, hello_arrival) =
                self.up.book(self.kernel.now(), self.link.transfer(hello.wire_size()));
            let (answer, took) =
                self.fleet.servers_mut()[m].handle(&ServerRequest::Hello { epoch: last });
            let (_, done) = self.dev[m].book(hello_arrival, took);
            // The answer moves into the frame for an arithmetic wire-size
            // measurement and is read back out of it — never cloned.
            let welcome = Frame::response(CONN_ID, 0, answer);
            let (_, delivered) = self.down.book(done, self.link.transfer(welcome.wire_size()));
            self.kernel.advance_to(delivered);
            self.epochs[m] = match welcome.payload {
                FramePayload::Response(ServerResponse::Welcome { epoch }) => epoch,
                _ => self.fleet.servers()[m].epoch(),
            };
            // Frames in transit to the member and frames in its volatile
            // queue are both gone: every request still aimed at it goes
            // back through the ordinary transmit machinery (a replay is not
            // a timeout), re-aimed first where the fleet has somewhere
            // else to go. Busy-deferred requests keep their own deadlines.
            // They replay in table order, which is request-id order, so one
            // seed always serves them in one order.
            self.pending[m].clear();
            for at in 0..self.table.len() {
                let lost = self.table.get(at).and_then(|slot| slot.out.as_ref());
                if !lost.is_some_and(|o| o.target == m && !o.deferred) {
                    continue;
                }
                let rid = self.base + at as u64;
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
    /// exponential backoff (failing over where the fleet can); a request
    /// that exhausts its retries comes back as an inline
    /// [`ServerResponse::Error`], as do server-side errors.
    pub fn wait(&mut self, ticket: Ticket) -> Result<(ServerResponse, SimDuration)> {
        let started = self.kernel.now();
        let landed = self.collect(ticket)?;
        self.kernel.advance_to(landed.ready_at);
        Ok((landed.response, self.kernel.now().saturating_since(started)))
    }

    /// Serves and recovers `ticket`'s request until its response lands,
    /// its own connection served first, and collects the response without
    /// moving the clock to its arrival.
    pub(crate) fn collect(&mut self, ticket: Ticket) -> Result<Landed> {
        let id = ticket.0;
        loop {
            self.resync();
            let conn = self.slot(id).map_or(CONN_ID, |slot| slot.conn);
            self.dispatch(&[conn]);
            if self.slot(id).is_none_or(|slot| slot.landed.is_none() && slot.out.is_none()) {
                return Err(MinosError::Protocol(format!(
                    "unknown or already-collected {ticket:?}"
                )));
            }
            if let Some(landed) = self.take_landed(ticket) {
                return Ok(landed);
            }
            self.force_progress(id);
        }
    }

    /// Collects `ticket`'s response if it has landed, without moving the
    /// clock: its slot closes, and the table pops every collected slot
    /// from its front. An empty table disarms the retransmit timer.
    pub(crate) fn take_landed(&mut self, ticket: Ticket) -> Option<Landed> {
        let slot = self.slot_mut(ticket.0)?;
        let landed = slot.landed.take()?;
        // A landed response has no retransmission state left.
        debug_assert!(slot.out.is_none(), "a landed request kept its resend state");
        slot.collected = true;
        let conn = slot.conn;
        if std::mem::take(&mut slot.open) {
            self.conn_mut(conn).open -= 1;
        }
        while self.table.front().is_some_and(|slot| slot.collected) {
            self.table.pop_front();
            self.base += 1;
        }
        if self.table.is_empty() {
            if let Some((_, timer)) = self.retry_timer.take() {
                self.kernel.cancel(timer);
            }
        }
        Some(landed)
    }

    /// The connection of every landed, uncollected response, in request-id
    /// order (a connection repeats once per response).
    pub(crate) fn landed_conns(&self) -> impl Iterator<Item = u64> + '_ {
        self.table.iter().filter(|slot| slot.landed.is_some()).map(|slot| slot.conn)
    }

    /// Drives the client to `at` without collecting anything. The kernel
    /// discovers every retransmit deadline, `Busy` hint and heartbeat
    /// tick that falls due in the interval, through the retransmit timer
    /// and the heartbeat timers, and handles it at its exact instant: a
    /// lost response on an otherwise-idle client
    /// retransmits (or expires) *at its deadline*, instead of waiting for
    /// the next [`Client::wait`] to stumble on it. Epochs are resynced after
    /// the timers: heartbeats fire among them, so with the monitor on a
    /// restart is noticed by its heartbeat, and the resync is the safety
    /// net.
    pub fn advance_to(&mut self, at: SimInstant) {
        self.dispatch(&[]);
        // Step armed-deadline to armed-deadline: the clock reaches each
        // deadline exactly when it fires, so a retransmit's backoff chains
        // from the deadline — identical to the wait() discipline — instead
        // of from the far end of the jump. A timer the clock has already
        // passed (in a wait, or in a handler's resync) is due at the
        // current instant, even one past `at`, and is handled there.
        while let Some(next) = self.kernel.next_deadline() {
            if next > at.max(self.kernel.now()) {
                break;
            }
            self.kernel.advance_to(next);
            self.drain_retry_wakes();
        }
        self.kernel.advance_to(at);
        self.resync();
        self.dispatch(&[]);
        self.settle();
    }

    /// Whether the client is quiet through `at`: [`Client::advance_to`]
    /// would find no work on the way there. Every part must hold:
    /// - the request table is empty;
    /// - no request frame is in transit to any member;
    /// - every member's service loop is idle: nothing queued, no served
    ///   response waiting to be polled, no connection woken;
    /// - no kernel deadline (a retransmit, a `Busy` hint, a heartbeat)
    ///   falls at or before `at`;
    /// - every member's epoch is the one last handshaken.
    pub(crate) fn is_quiet_through(&self, at: SimInstant) -> bool {
        self.table.is_empty()
            && self.pending.iter().all(VecDeque::is_empty)
            && self.kernel.next_deadline().is_none_or(|next| next > at)
            && self
                .fleet
                .servers()
                .iter()
                .zip(&self.epochs)
                .all(|(member, &epoch)| member.is_idle() && member.epoch() == epoch)
    }

    /// Moves a quiet client (see [`Client::is_quiet_through`]) to `at`:
    /// its kernel, which is all [`Client::advance_to`] would change.
    pub(crate) fn idle_to(&mut self, at: SimInstant) {
        debug_assert!(self.is_quiet_through(at), "transport work due before {at:?}");
        self.kernel.advance_to(at);
    }

    /// How many request frames are in transit to member `m`: on the wire,
    /// not yet in its service queue.
    pub(crate) fn in_transit(&self, m: usize) -> usize {
        self.pending[m].len()
    }

    /// Moves the request frames in transit to member `m` into its service
    /// queue, stamping each slot with its frame's arrival. The member's
    /// admission control is the gate: a frame it turns away comes back as
    /// a `Busy` reply through the same ready queue.
    pub(crate) fn enqueue_pending(&mut self, m: usize) {
        while let Some(p) = self.pending[m].pop_front() {
            let rid = p.frame.request_id;
            let accepted = self.fleet.servers_mut()[m].enqueue(p.frame).is_ok();
            if let Some(slot) = self.slot_mut(rid) {
                slot.arrival = accepted.then_some(p.arrival);
            }
        }
    }

    /// Moves every pending frame into its member's service queue and pumps
    /// each member, serving the connections in `first` in order, then the
    /// member's own rotation: served (or rejected) responses cross the
    /// member's device timeline and the shared downlink, landing
    /// timestamped. Returns how many of the polls of `first` found nothing
    /// to serve.
    pub(crate) fn dispatch(&mut self, first: &[u64]) -> usize {
        let mut idle = 0;
        for m in 0..self.pending.len() {
            self.enqueue_pending(m);
            for &conn in first {
                let mut served = false;
                while let Some((frame, charge)) = self.fleet.servers_mut()[m].poll_conn(conn) {
                    served = true;
                    self.serve(m, frame, charge);
                }
                idle += usize::from(!served);
            }
            while let Some((frame, charge)) = self.fleet.servers_mut()[m].poll_timed() {
                self.serve(m, frame, charge);
            }
        }
        idle
    }

    /// Books one served frame on member `m`'s device timeline, from its
    /// request frame's arrival, and lands its response.
    fn serve(&mut self, m: usize, frame: Frame, charge: SimDuration) {
        let rid = frame.request_id;
        let arrival = self.slot_mut(rid).and_then(|slot| slot.arrival.take());
        let (_, done) = self.dev[m].book(arrival.unwrap_or(self.up.free_at()), charge);
        if let FramePayload::Response(response) = frame.payload {
            self.land(frame.conn_id, rid, response, done);
        }
    }

    /// Charges the downlink for one response frame and lands it at its
    /// delivery instant. On a faulty link the frame is encoded and crosses
    /// the fault layer: corrupt copies are counted and discarded (the
    /// deadline machinery retransmits), and every surviving copy is
    /// received into a pooled buffer.
    ///
    /// The sender's trailer over a span the fleet holds a CRC for (a
    /// whole published page) is composed from that CRC, so the page is
    /// checksummed once, by the receiver, not twice. The check is then end
    /// to end: a page that rotted on the device, or a stale span, fails at
    /// the receiver like wire damage and is fetched again, failed over
    /// where the fleet can. Other responses, and
    /// duplicates of a request already in hand, take the full pass.
    fn land(&mut self, conn: u64, request_id: u64, response: ServerResponse, done: SimInstant) {
        let frame = Frame::response(conn, request_id, response);
        if self.is_clean(conn) {
            // The response moved into a typed frame to measure its wire
            // size arithmetically and is taken back out — no copy, no
            // encoding on the clean path.
            let (_, delivered) = self.down.book(done, self.link.transfer(frame.wire_size()));
            if let FramePayload::Response(response) = frame.payload {
                self.receive(request_id, response, delivered);
            }
            return;
        }
        let payload_crc = match (&frame.payload, self.outstanding(request_id)) {
            (FramePayload::Response(ServerResponse::Span(page)), Some(out)) => {
                self.fleet.span_crc(&out.route, page.len() as u64)
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
        let (_, delivered) = self.down.book(done, self.link.transfer(bytes.len() as u64));
        let deliveries = self.conn_mut(conn).faults.apply(&bytes);
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
    /// suppressed, a `Busy` turn-away parks the request on a retry timer
    /// honoring the server's hint (and fails it over where the fleet can),
    /// and anything else lands for collection.
    fn receive(&mut self, request_id: u64, response: ServerResponse, at: SimInstant) {
        let Some(slot) = self.slot_mut(request_id).filter(|slot| !slot.collected) else {
            return self.discard_duplicate(response);
        };
        if slot.landed.is_some() {
            return self.discard_duplicate(response);
        }
        if let (ServerResponse::Busy { retry_after }, Some(out)) = (&response, &slot.out) {
            if out.deferred {
                // A duplicated Busy reply must not double-park.
                self.transport.duplicates += 1;
                return;
            }
            self.transport.busy_deferred += 1;
            let due = at + *retry_after;
            // Resubmit somewhere less loaded when there is a sibling copy;
            // otherwise the failover is a no-op.
            self.fail_over_target(request_id);
            if let Some(out) = self.outstanding_mut(request_id) {
                out.deferred = true;
            }
            self.set_deadline(request_id, due);
            return;
        }
        // The response is in hand: the retransmission state is done.
        if let Some(out) = slot.out.take() {
            self.retire(out);
        }
        if let Some(slot) = self.slot_mut(request_id) {
            slot.landed = Some(Landed { response, ready_at: at, expired: false });
        }
    }

    /// Counts a response to a request already answered or collected, and
    /// hands the page buffer it carries back to the pool it was leased
    /// from, so the next decode reuses it instead of allocating.
    fn discard_duplicate(&mut self, response: ServerResponse) {
        self.transport.duplicates += 1;
        if let ServerResponse::Span(page) = response {
            self.pool.recycle(page);
        }
    }

    /// Handles every kernel event fired by now: the retransmit timer and
    /// heartbeat ticks. A handler that moves the clock (a heartbeat's
    /// resync) fires what it passes onto the same queue.
    fn drain_retry_wakes(&mut self) {
        while let Some(event) = self.kernel.take_ready() {
            match event {
                KernelEvent::RetryDue { .. } => self.retransmit_due(),
                KernelEvent::HealthTick { member } => self.heartbeat_member(member as usize),
                _ => self.kernel.note_spurious(),
            }
        }
    }

    /// The retransmit timer fired: forces progress on every request whose
    /// deadline has passed, in deadline order and, among equal deadlines,
    /// in the order they were set, then re-arms the timer for the earliest
    /// deadline left. A firing that finds nothing due (its request landed
    /// first) is a spurious wake, and so is one whose timer was disarmed
    /// or moved after the clock had passed it, so that it had already
    /// fired.
    fn retransmit_due(&mut self) {
        let now = self.kernel.now();
        if self.retry_timer.take_if(|(at, _)| *at <= now).is_none() {
            self.kernel.note_spurious();
            return;
        }
        let overdue = self.table.iter().enumerate().filter_map(|(at, slot)| {
            let out = slot.out.as_ref().filter(|o| o.deadline <= now)?;
            Some((out.deadline, out.armed, self.base + at as u64))
        });
        let mut due: Vec<(SimInstant, u64, u64)> = overdue.collect();
        due.sort_unstable();
        if due.is_empty() {
            self.kernel.note_spurious();
        }
        for (_, _, request_id) in due {
            self.force_progress(request_id);
        }
        let next = self.table.iter().enumerate().filter_map(|(at, slot)| {
            slot.out.as_ref().map(|o| (o.deadline, o.armed, self.base + at as u64, o.attempt))
        });
        if let Some((deadline, _, request_id, attempt)) = next.min() {
            let timer = self.kernel.arm(deadline, KernelEvent::RetryDue { request_id, attempt });
            self.retry_timer = Some((deadline, timer));
        }
    }

    /// Forces progress on a slot whose response has not landed.
    ///
    /// A `Busy`-deferred request waits out its hint, then resubmits with a
    /// fresh deadline — costing neither a timeout nor a retry, and never
    /// leaving early. A genuinely lost request waits out its deadline and
    /// either retransmits (doubling the deadline, up to [`BACKOFF_CAP`],
    /// and failing over where the fleet can) or — retries exhausted —
    /// expires with an inline [`ServerResponse::Error`] so the slot can
    /// settle and the pipeline keeps moving. A slot with no retransmission
    /// state lands an inline error at once: better a typed failure than an
    /// overrun window or a hang.
    fn force_progress(&mut self, request_id: u64) {
        let Some((deadline, attempt, deferred)) =
            self.outstanding(request_id).map(|o| (o.deadline, o.attempt, o.deferred))
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
            self.kernel.advance_to(deadline);
            if self.kernel.now() < deadline {
                self.transport.premature_busy_retries += 1;
            }
            if let Some(out) = self.outstanding_mut(request_id) {
                out.deferred = false;
            }
            self.set_deadline(request_id, self.kernel.now() + self.timeout);
            self.transmit_request(request_id);
            return;
        }
        self.transport.timeouts += 1;
        self.kernel.advance_to(deadline);
        if attempt >= self.max_retries {
            if let Some(out) = self.slot_mut(request_id).and_then(|slot| slot.out.take()) {
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
        if let Some(out) = self.outstanding_mut(request_id) {
            out.attempt = attempt + 1;
        }
        self.set_deadline(request_id, self.kernel.now() + backoff);
        // A timeout is evidence against the target, not just the wire: the
        // retransmit goes wherever the fleet fails it over to.
        self.fail_over_target(request_id);
        self.transmit_request(request_id);
    }

    /// Lands an inline error for `request_id` now.
    fn expire(&mut self, request_id: u64, message: String) {
        let ready_at = self.kernel.now();
        if let Some(slot) = self.slot_mut(request_id) {
            let response = ServerResponse::Error(message);
            slot.landed = Some(Landed { response, ready_at, expired: true });
        }
    }

    /// Closes the window places of requests whose responses have arrived.
    fn settle(&mut self) {
        let now = self.kernel.now();
        for slot in &mut self.table {
            if slot.open && slot.landed.as_ref().is_some_and(|l| l.ready_at <= now) {
                slot.open = false;
                self.conns[conn_index(slot.conn)].open -= 1;
            }
        }
    }
}

#[cfg(test)]
impl Client {
    /// Table slots whose responses have landed (collected or not) and that
    /// the table still keeps.
    pub(crate) fn settled_slots(&self) -> usize {
        self.table.iter().filter(|slot| slot.out.is_none()).count()
    }
}

/// Where connection `conn`'s state sits in [`Client::conns`].
fn conn_index(conn: u64) -> usize {
    usize::try_from(conn.saturating_sub(1)).unwrap_or(usize::MAX)
}

/// Encodes `request` as a request frame on `conn` at `priority` into
/// `bytes`, replacing what they held and reusing their capacity.
fn encode_request(
    conn: u64,
    request_id: u64,
    priority: Priority,
    request: &ServerRequest,
    bytes: &mut Vec<u8>,
) {
    bytes.clear();
    Frame::encode_request_into(conn, request_id, priority, request, bytes);
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
    fn out_of_order_collection_pops_slots_once_the_oldest_is_collected() {
        let (mut conn, object) = clean(1, 8);
        let tickets: Vec<FleetTicket> = (0..3).map(|page| fetch(&mut conn, object, page)).collect();
        let ids: Vec<u64> = tickets.iter().map(|t| t.0).collect();
        assert_eq!(ids, [1, 2, 3]);
        collect(&mut conn, tickets[2]);
        assert_eq!((conn.base, conn.table.len()), (1, 3));
        assert!(conn.slot(3).is_some_and(|slot| slot.collected));
        assert!(conn.slot(1).is_some_and(|slot| !slot.collected));
        collect(&mut conn, tickets[0]);
        assert_eq!((conn.base, conn.table.len()), (2, 2));
        collect(&mut conn, tickets[1]);
        assert_eq!(conn.base, 4, "collecting 2 pops the collected 3 with it");
        assert!(conn.table.is_empty());
    }

    #[test]
    fn collecting_the_last_ticket_disarms_the_retransmit_timer() {
        let (mut conn, object) = clean(1, 8);
        let ticket = fetch(&mut conn, object, 0);
        collect(&mut conn, ticket);
        // The request's deadline lay 500 ms after its submit; with the
        // table empty nothing is left to fire there.
        let later = conn.kernel.now() + SimDuration::from_secs(1);
        // The member's completion wakes are the session scheduler's to
        // drain; a bare client leaves them.
        conn.fleet.servers_mut()[0].take_woken();
        assert!(conn.is_quiet_through(later));
    }

    #[test]
    fn a_retransmit_wake_fired_before_its_disarm_leaves_the_live_timer_armed() {
        let (conn, object) = clean(1, 8);
        let timeout = SimDuration::from_millis(20);
        let mut conn = conn.with_recovery(timeout, DEFAULT_MAX_RETRIES);
        // Waiting for the last of eight pages passes the first request's
        // deadline, so the retransmit timer fires onto the kernel's ready
        // queue before collecting that page empties the table.
        let tickets: Vec<FleetTicket> = (0..8).map(|page| fetch(&mut conn, object, page)).collect();
        for ticket in tickets {
            collect(&mut conn, ticket);
        }
        assert!(conn.kernel.now() > SimInstant::EPOCH + timeout);
        // A request whose every frame is lost stays outstanding on a new
        // timer; the stale wake is spurious and arms nothing more.
        conn.set_faults(CONN_ID, FaultPlan::dropping(1, 1.0));
        let _lost = fetch(&mut conn, object, 0);
        conn.advance_to(conn.kernel.now() + SimDuration::from_millis(1));
        let stats = conn.kernel_stats();
        assert_eq!((stats.timers_armed, stats.spurious_wakes), (2, 1));
    }

    #[test]
    fn a_duplicate_below_the_base_is_counted_and_never_lands() {
        let (mut conn, object) = clean(1, 8);
        let ticket = fetch(&mut conn, object, 0);
        let id = ticket.0;
        collect(&mut conn, ticket);
        assert!(id < conn.base);
        let at = conn.kernel.now();
        let free = conn.pool.free_buffers();
        conn.receive(id, ServerResponse::Span(vec![0; PAGE as usize]), at);
        assert_eq!(conn.transport_stats().duplicates, 1);
        assert!(conn.slot(id).is_none() && conn.table.is_empty(), "a duplicate must not land");
        assert_eq!(
            conn.pool.free_buffers(),
            free + 1,
            "the duplicate's page goes back to the pool"
        );
        assert!(matches!(conn.wait(ticket), Err(MinosError::Protocol(_))));
    }

    #[test]
    fn the_table_stays_within_the_window_under_in_order_collection() {
        let window = 8;
        let (mut conn, object) = clean(2, window);
        // A sliding window collected oldest first: each collection pops
        // the slot it read.
        let mut inflight = VecDeque::new();
        for i in 0..10 * window as u64 {
            inflight.push_back(fetch(&mut conn, object, i % 32));
            assert!(conn.table.len() <= window, "after {} fetches", i + 1);
            if inflight.len() == window {
                let ticket = inflight.pop_front().expect("a full window");
                collect(&mut conn, ticket);
                assert_eq!(conn.base, ticket.0 + 1);
            }
        }
        while let Some(ticket) = inflight.pop_front() {
            collect(&mut conn, ticket);
        }
        assert!(conn.table.is_empty());
        // Whole windows collected newest first keep their collected slots
        // only until the oldest of the window is collected.
        for _ in 0..10 {
            let tickets: Vec<FleetTicket> =
                (0..window as u64).map(|page| fetch(&mut conn, object, page)).collect();
            for &ticket in tickets.iter().rev() {
                collect(&mut conn, ticket);
                assert!(conn.table.len() <= window);
            }
            assert!(conn.table.is_empty());
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
            let ready: Vec<(u64, SimInstant)> = (conn.base..conn.base + conn.table.len() as u64)
                .filter_map(|id| Some((id, conn.slot(id)?.landed.as_ref()?.ready_at)))
                .collect();
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

    #[test]
    fn a_clean_run_arms_at_most_one_retransmit_timer_per_window() {
        const PAGES: u64 = 1_000;
        let window = 16;
        let (mut conn, object) = clean(2, window);
        let mut inflight = VecDeque::new();
        for i in 0..PAGES {
            inflight.push_back(fetch(&mut conn, object, i % 32));
            if inflight.len() == window {
                let ticket = inflight.pop_front().expect("a full window");
                collect(&mut conn, ticket);
            }
        }
        while let Some(ticket) = inflight.pop_front() {
            collect(&mut conn, ticket);
        }
        let armed = conn.kernel_stats().timers_armed;
        assert!(armed <= 1 + PAGES / window as u64, "{armed} timers for {PAGES} pages");
        assert_eq!(conn.transport_stats().timeouts, 0);
    }
}

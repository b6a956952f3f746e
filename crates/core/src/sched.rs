//! The multi-session scheduler: N concurrent browsing sessions over one
//! simulated link and one object server (§5).
//!
//! "We envision the overall system architecture for MINOS as being composed
//! of a multimedia object server subsystem and a number of workstations
//! interconnected through high capacity links." The framed transport
//! ([`minos_net::frame`]) lets one server interleave many connections;
//! this module supplies the client half: a [`SessionScheduler`] that
//! multiplexes several [`BrowsingSession`]s over one shared link, driving
//! their clocks together and serving their transfers with round-robin
//! fairness *except* that audio-driven sessions are always served first —
//! a stalled reader re-reads a sentence, a stalled playback is an audible
//! glitch, so audio has the earlier deadline.
//!
//! [`simulate_page_workload`] is the module's measuring stick (experiment
//! E12): the same page-sequential workload run once over the old blocking
//! discipline and once pipelined, at varying session counts.
//!
//! [`simulate_faulty_page_workload`] is its fault-tolerant sibling
//! (experiment E13): one reader over a link that drops, corrupts, and
//! duplicates frames, measuring the goodput the recovery machinery
//! (deadlines, retransmission, duplicate suppression) preserves. Inside the
//! scheduler, [`SessionScheduler::inject_faults`] scopes a [`FaultPlan`] to
//! one session's connection: its lost prefetches degrade to demand fetches
//! with a bounded retry budget, while every other session's event stream
//! stays untouched.
//!
//! [`simulate_overload_workload`] is the robustness sibling (experiment
//! E14): N sessions offer roughly four times their demand load as
//! anticipatory prefetch-class traffic against a server whose admission
//! control ([`ServiceConfig`]) sheds prefetches first. Audio-class pages
//! are never shed and are served ahead of the rotation, so their tail
//! latency tracks the admitted demand backlog instead of collapsing with
//! the offered overload. The client half of the same policy lives in
//! [`HubStore::note_upcoming`]: when the server queue is under admission
//! pressure, anticipation is suspended rather than submitted-and-shed —
//! the hint degrades to a later demand miss, never to wire noise.
//!
//! [`simulate_sched_workload`] is the scale sibling (experiment E15): a
//! fleet of up to 10,000 connected sessions of which only a few hundred
//! are active, driven entirely by the discrete-event [`Kernel`] — work
//! scales with armed deadlines, so the idle sessions cost nothing.

use crate::command::{BrowseCommand, BrowseEvent};
use crate::kernel::{Kernel, KernelEvent, KernelStats};
use crate::prefetch::page_spans;
use crate::remote::{Connection, Ticket};
use crate::session::{BrowsingSession, ObjectStore};
use crate::transport::TransportStats;
use minos_net::{
    BufferPool, FaultPlan, FaultRng, FaultStats, Frame, FramePayload, Link, LinkStats, Priority,
    ServerRequest, ServerResponse,
};
use minos_object::MultimediaObject;
use minos_server::{ObjectServer, ServiceConfig, ServiceStats};
use minos_text::PaginateConfig;
use minos_types::{ByteSpan, MinosError, ObjectId, Result, SimClock, SimDuration, SimInstant};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::rc::Rc;

/// Fault state for one connection whose frames misbehave on the shared
/// link: the plan, its deterministic stream, and what it did so far.
struct ConnFaults {
    plan: FaultPlan,
    rng: FaultRng,
    stats: FaultStats,
}

/// The shared server side of a scheduled workstation group: one server,
/// one link, one clock, and the three serially-reusable resources
/// (uplink, device, downlink) as "free at" instants.
struct Hub {
    server: ObjectServer,
    link: Link,
    clock: SimClock,
    up_free: SimInstant,
    dev_free: SimInstant,
    down_free: SimInstant,
    /// When each submitted request frame finishes arriving at the server.
    arrivals: HashMap<(u64, u64), SimInstant>,
    /// Served responses per connection, each with its delivery instant.
    landed: HashMap<u64, Vec<(u64, ServerResponse, SimInstant)>>,
    /// Per-connection fault injection; connections not listed are clean.
    faults: HashMap<u64, ConnFaults>,
    /// The discrete-event kernel: audio deadlines and completion wakes
    /// flow through it in event-driven mode, so only sessions with a
    /// fired deadline or a landed response are ever visited.
    kernel: Kernel,
    next_request_id: u64,
    next_conn: u64,
}

impl Hub {
    fn new(server: ObjectServer, link: Link) -> Self {
        Hub {
            server,
            link,
            clock: SimClock::new(),
            up_free: SimInstant::EPOCH,
            dev_free: SimInstant::EPOCH,
            down_free: SimInstant::EPOCH,
            arrivals: HashMap::new(),
            landed: HashMap::new(),
            faults: HashMap::new(),
            kernel: Kernel::new(),
            next_request_id: 1,
            next_conn: 1,
        }
    }

    /// Attaches a fault plan to `conn`'s frames (a clean plan detaches).
    fn set_fault_plan(&mut self, conn: u64, plan: FaultPlan) {
        if plan.is_clean() {
            self.faults.remove(&conn);
        } else {
            let rng = FaultRng::new(plan.seed);
            self.faults.insert(conn, ConnFaults { plan, rng, stats: FaultStats::default() });
        }
    }

    /// Whether the server's inbound queue is under admission pressure:
    /// with half the global headroom already spoken for, anticipatory
    /// traffic should pause and leave the rest to demand fetches.
    fn under_pressure(&self) -> bool {
        let cap = self.server.service_config().global_cap;
        cap != usize::MAX && 2 * self.server.pending_frames() >= cap
    }

    /// Puts one request frame of the given service class on the shared
    /// uplink and queues it at the server, returning its request id. On a
    /// faulty connection the frame's bytes cross the fault layer first:
    /// wire time is charged for the original transmission, but only copies
    /// that still decode reach the server's queue — a lost request simply
    /// never produces a response.
    fn send(&mut self, conn: u64, priority: Priority, request: ServerRequest) -> Result<u64> {
        let rid = self.next_request_id;
        self.next_request_id += 1;
        let frame = Frame::request_with_priority(conn, rid, priority, request);
        let up = self.link.transfer(frame.wire_size());
        let arrival = self.clock.now().max(self.up_free) + up;
        self.up_free = arrival;
        self.arrivals.insert((conn, rid), arrival);
        if let Some(f) = self.faults.get_mut(&conn) {
            let bytes = frame.encode();
            for delivery in f.plan.apply(&mut f.rng, &bytes, &mut f.stats) {
                if let Ok(delivered) = Frame::decode(&delivery.bytes) {
                    if delivered.as_request().is_some() {
                        self.server.enqueue(delivered)?;
                    }
                }
            }
        } else {
            self.server.enqueue(frame)?;
        }
        Ok(rid)
    }

    /// Serves everything queued at the server, connections in `order`
    /// first (the scheduler's fairness policy), then whatever remains in
    /// the server's own round-robin rotation.
    fn pump(&mut self, order: &[u64]) {
        for &conn in order {
            while let Some((frame, charge)) = self.server.poll_conn(conn) {
                self.deliver(frame, charge);
            }
        }
        while let Some((frame, charge)) = self.server.poll_timed() {
            self.deliver(frame, charge);
        }
    }

    /// [`Hub::pump`] for the event-driven path: serves exactly the woken
    /// connections in `order` (same per-connection discipline, so the
    /// response stream is byte-identical to pumping all N), counting
    /// wakes that found their work already collected, then drains
    /// whatever remains in the server's own rotation.
    fn pump_woken(&mut self, order: &[u64]) {
        for &conn in order {
            let mut served = false;
            while let Some((frame, charge)) = self.server.poll_conn(conn) {
                served = true;
                self.deliver(frame, charge);
            }
            if !served {
                self.kernel.note_spurious();
            }
        }
        while let Some((frame, charge)) = self.server.poll_timed() {
            self.deliver(frame, charge);
        }
    }

    /// Charges device and downlink time for one served response frame and
    /// lands it for its connection. A faulty connection's response crosses
    /// its fault layer on the way down: corrupt copies are discarded,
    /// duplicates land twice (the store's pending map suppresses the second
    /// copy), and losses leave the requester to retry.
    fn deliver(&mut self, frame: Frame, charge: SimDuration) {
        let key = (frame.conn_id, frame.request_id);
        let arrival = self.arrivals.remove(&key).unwrap_or(self.up_free);
        let done = arrival.max(self.dev_free) + charge;
        self.dev_free = done;
        let down = self.link.transfer(frame.wire_size());
        let delivered = done.max(self.down_free) + down;
        self.down_free = delivered;
        if let Some(f) = self.faults.get_mut(&frame.conn_id) {
            let conn = frame.conn_id;
            let bytes = frame.encode();
            for delivery in f.plan.apply(&mut f.rng, &bytes, &mut f.stats) {
                let Ok(received) = Frame::decode(&delivery.bytes) else {
                    continue;
                };
                let FramePayload::Response(response) = received.payload else {
                    continue;
                };
                self.landed.entry(conn).or_default().push((
                    received.request_id,
                    response,
                    delivered + delivery.delay,
                ));
            }
            return;
        }
        let FramePayload::Response(response) = frame.payload else {
            return;
        };
        self.landed.entry(frame.conn_id).or_default().push((frame.request_id, response, delivered));
    }
}

/// An [`ObjectStore`] backed by a scheduler [`Hub`]: demand fetches pump
/// the shared service loop immediately; `note_upcoming` hints become
/// request frames whose transfers land during subsequent scheduler ticks,
/// hidden behind every session's dwell.
pub struct HubStore {
    hub: Rc<RefCell<Hub>>,
    conn_id: u64,
    /// Service class of this session's demand fetches (audio-driven
    /// sessions upgrade to [`Priority::Audio`]; prefetch hints always go
    /// out as [`Priority::Prefetch`]).
    demand_class: Priority,
    /// Objects whose transfer has completed, with their delivery instant.
    cache: HashMap<ObjectId, (MultimediaObject, SimInstant)>,
    /// Outstanding object requests by request id.
    pending: HashMap<u64, ObjectId>,
    waited: SimDuration,
}

impl HubStore {
    fn new(hub: Rc<RefCell<Hub>>, conn_id: u64) -> Self {
        HubStore {
            hub,
            conn_id,
            demand_class: Priority::Demand,
            cache: HashMap::new(),
            pending: HashMap::new(),
            waited: SimDuration::ZERO,
        }
    }

    /// The connection id this store submits on.
    pub fn conn_id(&self) -> u64 {
        self.conn_id
    }

    /// Service class this store's demand fetches are tagged with.
    pub fn demand_class(&self) -> Priority {
        self.demand_class
    }

    /// Tags future demand fetches with `class` — the scheduler marks
    /// audio-driven sessions [`Priority::Audio`] so the server's shed
    /// policy can never reject their transfers.
    pub fn set_demand_class(&mut self, class: Priority) {
        self.demand_class = class;
    }

    /// Total time this session's user spent waiting on transfers.
    pub fn waited(&self) -> SimDuration {
        self.waited
    }

    /// Moves landed responses for this connection into the object cache.
    fn collect(&mut self) {
        let mut hub = self.hub.borrow_mut();
        let Some(landed) = hub.landed.remove(&self.conn_id) else {
            return;
        };
        for (rid, response, delivered) in landed {
            let Some(id) = self.pending.remove(&rid) else {
                continue;
            };
            if !matches!(response, ServerResponse::Object(_)) {
                continue;
            }
            if let Some(object) = hub.server.resident_object(id).cloned() {
                self.cache.insert(id, (object, delivered));
            }
        }
    }
}

/// Demand-fetch attempts before a [`HubStore`] gives up on an object: the
/// initial submission plus retransmissions of requests whose frames (or
/// response frames) were lost on a faulty connection.
const FETCH_ATTEMPTS: usize = 4;

impl ObjectStore for HubStore {
    fn fetch(&mut self, id: ObjectId) -> Result<MultimediaObject> {
        self.collect();
        let mut attempts = 0;
        while !self.cache.contains_key(&id) && attempts < FETCH_ATTEMPTS {
            if attempts > 0 {
                // The previous attempt's frames are lost on the wire. Its
                // pending entries are stale — left in place they would
                // suppress resubmission forever (a prefetch whose response
                // was dropped has the same signature), so drop them before
                // submitting afresh.
                self.pending.retain(|_, p| *p != id);
            }
            // Demand fetch: submit (unless a prefetch is already in
            // flight) and serve this connection's queue now.
            if !self.pending.values().any(|&p| p == id) {
                let rid = self.hub.borrow_mut().send(
                    self.conn_id,
                    self.demand_class,
                    ServerRequest::FetchObject { id },
                )?;
                self.pending.insert(rid, id);
            }
            self.hub.borrow_mut().pump(&[self.conn_id]);
            self.collect();
            attempts += 1;
        }
        let Some((object, available)) = self.cache.remove(&id) else {
            return Err(MinosError::UnknownObject(id.to_string()));
        };
        let mut hub = self.hub.borrow_mut();
        let wait = available.saturating_since(hub.clock.now());
        hub.clock.advance_to_at_least(available);
        self.waited += wait;
        Ok(object)
    }

    fn note_upcoming(&mut self, targets: &[ObjectId]) {
        self.collect();
        for &id in targets {
            if self.cache.contains_key(&id) || self.pending.values().any(|&p| p == id) {
                continue;
            }
            // Deadline-aware shedding, client half: with the server's
            // queue under admission pressure, anticipation is suspended
            // rather than submitted-and-shed. The hint degrades to a
            // later demand miss (the fault-recovery path), never to wire
            // noise the server must reject.
            if self.hub.borrow().under_pressure() {
                return;
            }
            // Anticipation must never fail the operation that triggered
            // it; a rejected prefetch frame is simply no prefetch.
            if let Ok(rid) = self.hub.borrow_mut().send(
                self.conn_id,
                Priority::Prefetch,
                ServerRequest::FetchObject { id },
            ) {
                self.pending.insert(rid, id);
            }
        }
    }
}

/// A handle to one session slot in a [`SessionScheduler`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionKey(usize);

struct Slot {
    conn_id: u64,
    session: BrowsingSession<HubStore>,
    events: Vec<BrowseEvent>,
}

/// Which service loop a [`SessionScheduler`] runs per tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SchedMode {
    /// Wake-list driven: the kernel fires audio deadlines and completion
    /// wakes, and only woken sessions/connections are visited.
    EventKernel,
    /// The original full rotation scan, kept as the reference
    /// implementation the equivalence tests pin the kernel path against.
    LegacyRotation,
}

/// N concurrent browsing sessions multiplexed over one simulated link and
/// one object server.
///
/// Each [`SessionScheduler::tick`] advances session presentations by the
/// same wall-clock slice and then serves the shared service loop.
/// Service order is round-robin with a rotating head — no session can
/// starve — except that audio-driven sessions always go first: their
/// transfers have real-time deadlines, a text reader's do not.
///
/// By default the tick is event-driven: the [`Kernel`] wakes exactly the
/// audio-paced sessions and the connections the server completed work
/// for, in the same deadline-aware order the full rotation would have
/// produced, so an idle text session costs nothing per tick. The
/// pre-kernel full scan survives behind [`SessionScheduler::legacy`] and
/// is pinned byte-identical by the golden-stream equivalence tests.
pub struct SessionScheduler {
    hub: Rc<RefCell<Hub>>,
    slots: Vec<Slot>,
    cursor: usize,
    mode: SchedMode,
    /// Slot indices of audio-driven sessions — the kernel arms their
    /// playback deadlines; everyone else sleeps until a response lands.
    audio_set: BTreeSet<usize>,
    /// Connection id → slot index, for ordering completion wakes.
    conn_slots: HashMap<u64, usize>,
}

impl SessionScheduler {
    /// A scheduler over `server` reached through `link`.
    pub fn new(server: ObjectServer, link: Link) -> Self {
        Self::with_mode(server, link, SchedMode::EventKernel)
    }

    /// A scheduler running the pre-kernel full rotation scan every tick.
    /// Retained as the reference implementation for equivalence pinning;
    /// prefer [`SessionScheduler::new`].
    pub fn legacy(server: ObjectServer, link: Link) -> Self {
        Self::with_mode(server, link, SchedMode::LegacyRotation)
    }

    fn with_mode(server: ObjectServer, link: Link, mode: SchedMode) -> Self {
        SessionScheduler {
            hub: Rc::new(RefCell::new(Hub::new(server, link))),
            slots: Vec::new(),
            cursor: 0,
            mode,
            audio_set: BTreeSet::new(),
            conn_slots: HashMap::new(),
        }
    }

    /// Opens a new browsing session on `id` over its own connection,
    /// returning its key and the initial presentation events.
    pub fn open(
        &mut self,
        id: ObjectId,
        config: PaginateConfig,
        audio_page_len: SimDuration,
    ) -> Result<(SessionKey, Vec<BrowseEvent>)> {
        let conn_id = {
            let mut hub = self.hub.borrow_mut();
            let conn = hub.next_conn;
            hub.next_conn += 1;
            conn
        };
        let store = HubStore::new(Rc::clone(&self.hub), conn_id);
        let (mut session, events) = BrowsingSession::open(store, id, config, audio_page_len)?;
        if session.audio().is_some() {
            // A voice-driven session's transfers have playback deadlines:
            // tag its demand fetches audio-class so the server's shed
            // policy can never reject them.
            session.store_mut().set_demand_class(Priority::Audio);
        }
        self.slots.push(Slot { conn_id, session, events: Vec::new() });
        let index = self.slots.len() - 1;
        if self.slots[index].session.audio().is_some() {
            self.audio_set.insert(index);
        }
        self.conn_slots.insert(conn_id, index);
        Ok((SessionKey(index), events))
    }

    /// Replaces the shared server's admission-control knobs (queue caps
    /// and the busy retry hint) for every session.
    pub fn set_service_config(&mut self, config: ServiceConfig) {
        self.hub.borrow_mut().server.set_service_config(config);
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no session is open.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Applies one browsing command to the session behind `key`, returning
    /// the events it produced (exactly what a standalone session would).
    pub fn apply(&mut self, key: SessionKey, command: BrowseCommand) -> Result<Vec<BrowseEvent>> {
        let slot = self.slot_mut(key)?;
        let events = slot.session.apply(command);
        // Commands can switch the driving mode; keep the kernel's audio
        // wake membership current.
        let is_audio = slot.session.audio().is_some();
        self.set_audio_membership(key.0, is_audio);
        events
    }

    fn set_audio_membership(&mut self, index: usize, is_audio: bool) {
        if is_audio {
            self.audio_set.insert(index);
        } else {
            self.audio_set.remove(&index);
        }
    }

    /// The session behind `key` (menus, positions, objects).
    pub fn session(&self, key: SessionKey) -> Result<&BrowsingSession<HubStore>> {
        self.slots
            .get(key.0)
            .map(|s| &s.session)
            .ok_or_else(|| MinosError::Internal(format!("no session slot {}", key.0)))
    }

    /// The deadline-aware service order for the next tick: a rotating
    /// round-robin of all sessions, stably re-sorted so audio-driven
    /// sessions come first.
    pub fn service_order(&self) -> Vec<SessionKey> {
        let n = self.slots.len();
        if n == 0 {
            return Vec::new();
        }
        let mut order: Vec<usize> = (0..n).map(|i| (self.cursor + i) % n).collect();
        order.sort_by_key(|&i| self.slots[i].session.audio().is_none());
        order.into_iter().map(SessionKey).collect()
    }

    /// Advances every session's presentation by `dt` and serves the shared
    /// service loop in deadline-aware order. Events produced by the tick
    /// accumulate per session; drain them with
    /// [`SessionScheduler::drain_events`].
    pub fn tick(&mut self, dt: SimDuration) {
        match self.mode {
            SchedMode::EventKernel => self.tick_kernel(dt),
            SchedMode::LegacyRotation => self.tick_legacy(dt),
        }
    }

    /// The reference full scan: ticks every session and pumps every
    /// connection, woken or not.
    fn tick_legacy(&mut self, dt: SimDuration) {
        let order = self.service_order();
        for &SessionKey(i) in &order {
            if let Some(slot) = self.slots.get_mut(i) {
                let events = slot.session.tick(dt);
                slot.events.extend(events);
            }
        }
        let conns: Vec<u64> = order
            .iter()
            .filter_map(|&SessionKey(i)| self.slots.get(i).map(|s| s.conn_id))
            .collect();
        let mut hub = self.hub.borrow_mut();
        hub.pump(&conns);
        // The legacy scan never consults the wake list; drain it so marks
        // cannot pile up across a mode's lifetime.
        let _ = hub.server.take_woken();
        hub.clock.advance(dt);
        drop(hub);
        self.cursor = (self.cursor + 1) % self.slots.len().max(1);
    }

    /// The event-driven tick. A visual session's per-tick advance is a
    /// pure no-op and an idle connection's pump visit finds nothing, so
    /// this path visits only sessions with an armed audio deadline and
    /// connections with a completion wake — byte-identical to the full
    /// scan because it preserves the scan's deadline-aware relative
    /// order for exactly the members the scan would have done work for.
    fn tick_kernel(&mut self, dt: SimDuration) {
        let n = self.slots.len();
        if n == 0 {
            let mut hub = self.hub.borrow_mut();
            hub.pump(&[]);
            hub.clock.advance(dt);
            return;
        }
        let cursor = self.cursor;
        // Audio-first ordering must see the same mode snapshot the legacy
        // scan's single pre-tick service_order() saw.
        let audio_before = self.audio_set.clone();
        // Fire this tick's audio playback deadlines through the kernel.
        let mut audio_wake: Vec<usize> = Vec::new();
        {
            let mut hub = self.hub.borrow_mut();
            let now = hub.clock.now();
            for &i in &self.audio_set {
                hub.kernel.post(now, KernelEvent::AudioDeadline { session: i as u64 });
            }
            hub.kernel.advance_to(now);
            while let Some(event) = hub.kernel.take_ready() {
                match event {
                    KernelEvent::AudioDeadline { session } => audio_wake.push(session as usize),
                    _ => hub.kernel.note_spurious(),
                }
            }
        }
        // Advance woken audio sessions in the rotation order the full
        // scan would have reached them in.
        audio_wake.sort_by_key(|&i| (n + i - cursor) % n);
        for &i in &audio_wake {
            if let Some(slot) = self.slots.get_mut(i) {
                let events = slot.session.tick(dt);
                slot.events.extend(events);
                let is_audio = slot.session.audio().is_some();
                self.set_audio_membership(i, is_audio);
            }
        }
        // Completion wakes: every connection the server enqueued or
        // finished work for since the last drain, routed through the
        // kernel so the trace and counters see them.
        let mut conn_wake: Vec<u64> = Vec::new();
        {
            let mut hub = self.hub.borrow_mut();
            let now = hub.clock.now();
            // request_id 0 marks a connection-level wake: it covers every
            // response in the connection's ready batch.
            let woken = hub.server.take_woken();
            for conn in woken {
                hub.kernel.post(now, KernelEvent::ResponseLanded { conn, request_id: 0 });
            }
            hub.kernel.advance_to(now);
            while let Some(event) = hub.kernel.take_ready() {
                match event {
                    KernelEvent::ResponseLanded { conn, .. } => conn_wake.push(conn),
                    _ => hub.kernel.note_spurious(),
                }
            }
        }
        // Deadline-aware order over the woken subset: audio-driven
        // connections first, rotation position breaking ties — the same
        // total order the full scan serves.
        conn_wake.sort_by_key(|conn| match self.conn_slots.get(conn).copied() {
            Some(i) => (!audio_before.contains(&i), (n + i - cursor) % n),
            None => (true, usize::MAX),
        });
        {
            let mut hub = self.hub.borrow_mut();
            hub.pump_woken(&conn_wake);
            // Marks recorded during the pump refer to responses the pump
            // itself delivered; drop them so they don't wake next tick.
            let _ = hub.server.take_woken();
            hub.clock.advance(dt);
        }
        self.cursor = (self.cursor + 1) % n;
    }

    /// The event kernel's counters: events fired, timers armed, spurious
    /// wakes, and the ready queue's high-water mark. Zeros under
    /// [`SessionScheduler::legacy`].
    pub fn kernel_stats(&self) -> KernelStats {
        self.hub.borrow().kernel.stats()
    }

    /// Drains the kernel's trace ring as a JSON array (see
    /// [`Kernel::drain_trace_json`]).
    pub fn drain_kernel_trace(&mut self) -> String {
        self.hub.borrow_mut().kernel.drain_trace_json()
    }

    /// Takes the events `key`'s session produced during ticks since the
    /// last drain.
    pub fn drain_events(&mut self, key: SessionKey) -> Result<Vec<BrowseEvent>> {
        Ok(std::mem::take(&mut self.slot_mut(key)?.events))
    }

    /// Total simulated time across the whole scheduled group.
    pub fn elapsed(&self) -> SimDuration {
        self.hub.borrow().clock.now().since(SimInstant::EPOCH)
    }

    /// Shared-link transfer statistics.
    pub fn link_stats(&self) -> LinkStats {
        self.hub.borrow().link.stats()
    }

    /// Makes `key`'s connection misbehave according to `plan` from now on
    /// (a clean plan heals the connection). Every other session's frames
    /// stay untouched: faults are scoped to one connection's traffic, never
    /// to the shared link itself.
    pub fn inject_faults(&mut self, key: SessionKey, plan: FaultPlan) -> Result<()> {
        let conn_id = self
            .slots
            .get(key.0)
            .map(|s| s.conn_id)
            .ok_or_else(|| MinosError::Internal(format!("no session slot {}", key.0)))?;
        self.hub.borrow_mut().set_fault_plan(conn_id, plan);
        Ok(())
    }

    /// What the fault layer did to `key`'s connection so far (zeros for a
    /// connection that was never injected).
    pub fn fault_stats(&self, key: SessionKey) -> Result<FaultStats> {
        let conn_id = self
            .slots
            .get(key.0)
            .map(|s| s.conn_id)
            .ok_or_else(|| MinosError::Internal(format!("no session slot {}", key.0)))?;
        Ok(self.hub.borrow().faults.get(&conn_id).map(|f| f.stats).unwrap_or_default())
    }

    /// The shared server's service-loop accounting.
    pub fn service_stats(&self) -> ServiceStats {
        self.hub.borrow().server.service_stats().clone()
    }

    fn slot_mut(&mut self, key: SessionKey) -> Result<&mut Slot> {
        self.slots
            .get_mut(key.0)
            .ok_or_else(|| MinosError::Internal(format!("no session slot {}", key.0)))
    }
}

/// How [`simulate_page_workload`] moves pages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportMode {
    /// The old discipline: one request at a time, each paying a full
    /// uplink + device + downlink round trip before the next starts.
    Blocking,
    /// Framed pipelining: up to `window` request frames in flight per
    /// session, the server interleaving and coalescing across sessions.
    Pipelined {
        /// In-flight request frames per session.
        window: usize,
    },
}

/// The nearest-rank 99th percentile of `samples`, which it sorts in
/// place: the smallest sample at or above 99 % of them, zero for none.
pub(crate) fn p99(samples: &mut [SimDuration]) -> SimDuration {
    samples.sort_unstable();
    let rank = (samples.len() * 99).div_ceil(100).saturating_sub(1);
    samples.get(rank).copied().unwrap_or(SimDuration::ZERO)
}

/// `count` per simulated second of `elapsed` (zero for an empty run).
pub(crate) fn per_sim_second(count: u64, elapsed: SimDuration) -> f64 {
    let micros = elapsed.as_micros();
    if micros == 0 {
        return 0.0;
    }
    count as f64 * 1_000_000.0 / micros as f64
}

/// `count` per delivered page (zero when no page was delivered).
pub(crate) fn per_page(count: u64, pages: u64) -> f64 {
    if pages == 0 {
        return 0.0;
    }
    count as f64 / pages as f64
}

/// What one [`simulate_page_workload`] run measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadReport {
    /// Wall-clock time until the last page was delivered.
    pub elapsed: SimDuration,
    /// Pages delivered (sessions × pages per session).
    pub pages: u64,
    /// Bytes moved over the shared link.
    pub bytes: u64,
    /// Fresh payload-buffer allocations on the serving hot path. The
    /// workload recycles every consumed page, so after warmup each page is
    /// served from a pooled buffer.
    pub payload_allocs: u64,
}

impl WorkloadReport {
    /// Aggregate throughput in pages per simulated second.
    pub fn pages_per_sec(&self) -> f64 {
        per_sim_second(self.pages, self.elapsed)
    }

    /// Fresh allocations per delivered page — the zero-copy pin. A
    /// warmed-up pipeline re-serves pooled buffers, so this stays (well)
    /// under one.
    pub fn allocations_per_page(&self) -> f64 {
        per_page(self.payload_allocs, self.pages)
    }
}

/// What one [`simulate_faulty_page_workload`] run measured — the E13
/// goodput report: pages that arrived byte-identical, pages lost to
/// exhausted retries, and what the recovery machinery did to get there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultyWorkloadReport {
    /// Wall-clock time until the last response (or expiry) was collected.
    pub elapsed: SimDuration,
    /// Pages delivered byte-identical to the stored pattern.
    pub pages: u64,
    /// Pages whose request exhausted its retry budget.
    pub failed: u64,
    /// Bytes moved over the link, retransmissions included.
    pub bytes: u64,
    /// What the recovery machinery had to do.
    pub transport: TransportStats,
    /// What the fault layer actually did to the frames.
    pub faults: FaultStats,
}

impl FaultyWorkloadReport {
    /// Goodput in verified pages per simulated second.
    pub fn pages_per_sec(&self) -> f64 {
        per_sim_second(self.pages, self.elapsed)
    }
}

/// Runs the E13 workload: one page reader fetching `pages` pages of
/// `page_len` bytes through a [`Connection`] whose link misbehaves
/// according to `plan`, with `window` requests in flight (window 1 is the
/// old blocking discipline). Every delivered page is verified
/// byte-for-byte against the stored pattern — a page is either perfect or
/// counted failed, never partial.
///
/// Pages are submitted in a strided order (even indices, then odd), so no
/// two adjacent spans ever sit next to each other in the pipeline: the
/// clean baseline cannot coalesce runs that a faulty link must serve
/// frame-by-frame, and the comparison therefore measures recovery cost
/// alone.
pub fn simulate_faulty_page_workload(
    pages: usize,
    page_len: u64,
    window: usize,
    plan: FaultPlan,
) -> Result<FaultyWorkloadReport> {
    if pages == 0 || page_len == 0 {
        return Err(MinosError::Internal("workload needs pages and bytes".into()));
    }
    let mut server = ObjectServer::new();
    let data: Vec<u8> = (0..pages as u64 * page_len).map(|i| (i % 251) as u8).collect();
    let (record, _) = server.archiver_mut().store(ObjectId::new(1), &data)?;
    let base = record.span.start;
    let spans = page_spans(record.span, pages);
    let order: Vec<usize> = (0..pages).step_by(2).chain((1..pages).step_by(2)).collect();
    let mut conn = Connection::with_faults(server, Link::ethernet(), window.max(1), plan);
    let mut tickets: Vec<(Ticket, usize)> = Vec::with_capacity(pages);
    for &page in &order {
        tickets.push((conn.submit(ServerRequest::FetchSpan { span: spans[page] }), page));
    }
    let mut delivered = 0u64;
    let mut failed = 0u64;
    for (ticket, page) in tickets {
        let span = spans[page];
        let (response, _) = conn.wait(ticket)?;
        match response {
            ServerResponse::Span(bytes) => {
                let expect: Vec<u8> =
                    (span.start - base..span.end - base).map(|i| (i % 251) as u8).collect();
                if bytes != expect {
                    return Err(MinosError::Internal(format!("wrong bytes for {span}")));
                }
                delivered += 1;
            }
            ServerResponse::Error(_) => failed += 1,
            other => {
                return Err(MinosError::Internal(format!("unexpected response {other:?}")));
            }
        }
    }
    Ok(FaultyWorkloadReport {
        elapsed: conn.elapsed(),
        pages: delivered,
        failed,
        bytes: conn.bytes_transferred(),
        transport: conn.transport_stats(),
        faults: conn.fault_stats(),
    })
}

/// Demand-page window each overload session keeps in flight.
const OVERLOAD_WINDOW: usize = 2;

/// Speculative prefetch-class fetches issued per demand page by the
/// overload workload — one demand page plus three anticipatory fetches is
/// the paper-scale "4x offered load".
const OVERLOAD_PREFETCH_FACTOR: usize = 3;

/// What one [`simulate_overload_workload`] run measured — the E14 report:
/// demand goodput, audio-class tail latency, and what the admission
/// control shed to keep them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverloadReport {
    /// Wall-clock time until the last demand page was delivered.
    pub elapsed: SimDuration,
    /// Demand pages delivered byte-identical (audio pages included).
    pub pages: u64,
    /// Audio-class pages delivered (session 0's stream).
    pub audio_pages: u64,
    /// 99th-percentile audio-page service latency (submit to delivery) —
    /// the playback-stall proxy: latency beyond the page period is time
    /// the listener hears silence.
    pub audio_p99: SimDuration,
    /// Worst audio-page service latency.
    pub audio_worst: SimDuration,
    /// Request frames offered, speculative prefetches included.
    pub offered: u64,
    /// Speculative prefetch pages the server actually served.
    pub prefetch_served: u64,
    /// Prefetch-class frames the admission control shed.
    pub shed: u64,
    /// Demand/audio frames rejected outright (no sheddable victim).
    pub busy_rejections: u64,
    /// Most request frames queued at once across all connections.
    pub queue_high_water: u64,
    /// Bytes moved over the shared link.
    pub bytes: u64,
    /// Fresh payload-buffer allocations on the serving hot path
    /// (speculative pages included — their buffers recycle too).
    pub payload_allocs: u64,
    /// Demand/audio pages resubmitted after a [`ServerResponse::Busy`]
    /// turn-away — each waited out the server's `retry_after` hint on a
    /// kernel timer before going back on the wire.
    pub busy_retries: u64,
    /// Busy resubmissions that left the client before their `retry_after`
    /// hint elapsed. Always zero: the retry timer gates the uplink, and
    /// the E14 pin asserts it stays that way.
    pub premature_retries: u64,
}

impl OverloadReport {
    /// Demand goodput in verified pages per simulated second.
    pub fn goodput_pages_per_sec(&self) -> f64 {
        per_sim_second(self.pages, self.elapsed)
    }

    /// Fresh allocations per delivered demand page — the zero-copy pin
    /// under overload. Recycled buffers absorb the 4x offered load, so
    /// steady state stays (well) under one.
    pub fn allocations_per_page(&self) -> f64 {
        per_page(self.payload_allocs, self.pages)
    }
}

/// Runs the E14 workload: `sessions` concurrent readers, each keeping
/// [`OVERLOAD_WINDOW`] demand pages in flight and fanning every demand
/// page out into [`OVERLOAD_PREFETCH_FACTOR`] speculative prefetch-class
/// fetches — a 4x offered load against a server admitting under `config`
/// (pass [`ServiceConfig::unbounded`] for the no-shedding baseline).
///
/// Session 0 is the audio-driven reader: its demand pages are
/// [`Priority::Audio`] (never sheddable) and its connection is served
/// ahead of the rotation, mirroring the scheduler's deadline policy. Its
/// per-page service latency distribution is the experiment's stall curve.
/// Prefetch spans are stride-scattered so the service loop cannot coalesce
/// them away — the overload is real device work, not adjacent-run sugar.
///
/// Every demand page is verified byte-for-byte; a demand page the server
/// turns away with [`ServerResponse::Busy`] is parked on a kernel
/// `RetryDue` timer armed at delivery time plus the reply's `retry_after`
/// hint, and resubmitted only once that timer fires — the client honors
/// the server's own backlog estimate instead of hammering an overloaded
/// admission gate on the very next round. A run either completes or
/// reports the failure typed.
pub fn simulate_overload_workload(
    sessions: usize,
    pages_per_session: usize,
    page_len: u64,
    config: ServiceConfig,
) -> Result<OverloadReport> {
    if sessions == 0 || pages_per_session == 0 || page_len == 0 {
        return Err(MinosError::Internal("workload needs sessions, pages, and bytes".into()));
    }
    let mut server = ObjectServer::new();
    server.set_service_config(config);
    // Stock the payload pool up front so cold-start leases hit the free
    // list: payload_allocs then measures steady state, not warmup.
    server.prewarm_payloads(BufferPool::DEFAULT_RETAIN_CAP, page_len as usize);
    let mut plans: Vec<(u64, Vec<ByteSpan>)> = Vec::with_capacity(sessions);
    for s in 0..sessions {
        let data: Vec<u8> =
            (0..pages_per_session as u64 * page_len).map(|i| (i % 251) as u8).collect();
        let (record, _) = server.archiver_mut().store(ObjectId::new(s as u64 + 1), &data)?;
        plans.push((record.span.start, page_spans(record.span, pages_per_session)));
    }
    let mut link = Link::ethernet();
    let verify = |base: u64, span: ByteSpan, bytes: &[u8]| -> Result<()> {
        let expect: Vec<u8> =
            (span.start - base..span.end - base).map(|i| (i % 251) as u8).collect();
        if bytes != expect {
            return Err(MinosError::Internal(format!("wrong bytes for {span}")));
        }
        Ok(())
    };

    struct InFlightPage {
        span: ByteSpan,
        page: usize,
        submitted: SimInstant,
        prefetch: bool,
    }
    let mut up_free = SimInstant::EPOCH;
    let mut dev_free = SimInstant::EPOCH;
    let mut down_free = SimInstant::EPOCH;
    let mut arrivals: HashMap<(u64, u64), SimInstant> = HashMap::new();
    let mut inflight: HashMap<(u64, u64), InFlightPage> = HashMap::new();
    let mut todo: Vec<VecDeque<usize>> =
        (0..sessions).map(|_| (0..pages_per_session).collect()).collect();
    let mut outstanding = vec![0usize; sessions];
    let mut batch: Vec<(usize, usize, bool)> = Vec::new();
    let mut next_rid = 1u64;
    let mut last_delivered = SimInstant::EPOCH;
    let mut delivered = 0u64;
    let mut audio_pages = 0u64;
    let mut audio_lat: Vec<SimDuration> = Vec::new();
    let mut offered = 0u64;
    let mut prefetch_served = 0u64;
    let mut busy_retries = 0u64;
    let mut premature_retries = 0u64;
    // Demand pages turned away with `Busy` park here (keyed by the
    // rejected request id) until their kernel `RetryDue` timer fires;
    // their window slot stays held so the session does not overdrive the
    // server while it waits.
    let mut kernel = Kernel::new();
    let mut deferred: HashMap<u64, (usize, usize, SimInstant)> = HashMap::new();
    let mut retry_batch: Vec<(usize, usize, SimInstant)> = Vec::new();
    let drain_due_retries =
        |kernel: &mut Kernel,
         deferred: &mut HashMap<u64, (usize, usize, SimInstant)>,
         retry_batch: &mut Vec<(usize, usize, SimInstant)>| {
            while let Some(event) = kernel.take_ready() {
                if let KernelEvent::RetryDue { request_id, .. } = event {
                    if let Some(entry) = deferred.remove(&request_id) {
                        retry_batch.push(entry);
                    }
                }
            }
        };
    let mut rounds = 0u32;
    while todo.iter().any(|q| !q.is_empty()) || outstanding.iter().any(|&o| o > 0) {
        rounds += 1;
        if rounds > 100_000 {
            return Err(MinosError::Internal("overload workload failed to converge".into()));
        }
        kernel.advance_to(up_free.max(down_free));
        drain_due_retries(&mut kernel, &mut deferred, &mut retry_batch);
        for s in 0..sessions {
            while outstanding[s] < OVERLOAD_WINDOW {
                let Some(page) = todo[s].pop_front() else {
                    break;
                };
                outstanding[s] += 1;
                batch.push((s, page, false));
                for j in 1..=OVERLOAD_PREFETCH_FACTOR {
                    // Stride-scattered speculation: never adjacent to the
                    // demand span, so runs cannot coalesce it into a
                    // single cheap device pass.
                    batch.push((s, (page + j * 7) % pages_per_session, true));
                }
            }
        }
        if batch.is_empty() && retry_batch.is_empty() && !deferred.is_empty() {
            // Every live page is parked on a retry timer and the server is
            // drained: nothing can move until a timer fires, so jump
            // simulated time to the next deadline. Intermediate
            // `next_deadline` values may be cascade ticks that ready
            // nothing — keep stepping until a retry surfaces.
            while retry_batch.is_empty() {
                let Some(deadline) = kernel.next_deadline() else {
                    return Err(MinosError::Internal(
                        "deferred retries with no armed timer".into(),
                    ));
                };
                kernel.advance_to(deadline);
                drain_due_retries(&mut kernel, &mut deferred, &mut retry_batch);
            }
            // The wait was real wall-clock idleness for the client side.
            up_free = up_free.max(kernel.now());
        }
        for (s, page, due) in retry_batch.drain(..) {
            let span = plans[s].1[page];
            let class = if s == 0 { Priority::Audio } else { Priority::Demand };
            let frame = Frame::request_with_priority(
                s as u64 + 1,
                next_rid,
                class,
                ServerRequest::FetchSpan { span },
            );
            next_rid += 1;
            offered += 1;
            busy_retries += 1;
            // The retry may not leave before the server's hint elapses —
            // the uplink timeline is pushed out to the due instant if it
            // would otherwise be free earlier.
            let leave = up_free.max(due);
            if leave < due {
                premature_retries += 1;
            }
            let arrival = leave + link.transfer(frame.wire_size());
            up_free = arrival;
            arrivals.insert((frame.conn_id, frame.request_id), arrival);
            inflight.insert(
                (frame.conn_id, frame.request_id),
                InFlightPage { span, page, submitted: leave, prefetch: false },
            );
            server.enqueue(frame)?;
        }
        for (s, page, prefetch) in batch.drain(..) {
            let span = plans[s].1[page];
            let class = if prefetch {
                Priority::Prefetch
            } else if s == 0 {
                Priority::Audio
            } else {
                Priority::Demand
            };
            let frame = Frame::request_with_priority(
                s as u64 + 1,
                next_rid,
                class,
                ServerRequest::FetchSpan { span },
            );
            next_rid += 1;
            offered += 1;
            let submitted = up_free;
            let arrival = up_free + link.transfer(frame.wire_size());
            up_free = arrival;
            arrivals.insert((frame.conn_id, frame.request_id), arrival);
            inflight.insert(
                (frame.conn_id, frame.request_id),
                InFlightPage { span, page, submitted, prefetch },
            );
            server.enqueue(frame)?;
        }
        // Deadline-aware service: the audio connection drains first, then
        // the server's own round-robin rotation.
        while let Some((frame, charge)) = server.poll_conn(1).or_else(|| server.poll_timed()) {
            let key = (frame.conn_id, frame.request_id);
            let arrival = arrivals.remove(&key).unwrap_or(up_free);
            let done = arrival.max(dev_free) + charge;
            dev_free = done;
            let at = done.max(down_free) + link.transfer(frame.wire_size());
            down_free = at;
            last_delivered = last_delivered.max(at);
            let Some(meta) = inflight.remove(&key) else {
                continue;
            };
            let s = frame.conn_id as usize - 1;
            let FramePayload::Response(response) = frame.payload else {
                continue;
            };
            match response {
                ServerResponse::Span(bytes) => {
                    if meta.prefetch {
                        // Speculative bytes cost real device and downlink
                        // time; the workload discards the contents but
                        // hands the buffer back to the server's pool.
                        prefetch_served += 1;
                        server.recycle_payload(bytes);
                        continue;
                    }
                    verify(plans[s].0, meta.span, &bytes)?;
                    server.recycle_payload(bytes);
                    outstanding[s] -= 1;
                    delivered += 1;
                    if s == 0 {
                        audio_pages += 1;
                        audio_lat.push(at.since(meta.submitted));
                    }
                }
                ServerResponse::Busy { retry_after } => {
                    if meta.prefetch {
                        continue;
                    }
                    // Honor the hint: the turned-away demand page parks on
                    // a retry timer and resubmits only after `retry_after`
                    // has elapsed past the reply's delivery. Its window
                    // slot stays held — the session must not use the
                    // rejection as licence to offer even more load.
                    kernel.arm(
                        at + retry_after,
                        KernelEvent::RetryDue { request_id: key.1, attempt: 0 },
                    );
                    deferred.insert(key.1, (s, meta.page, at + retry_after));
                }
                other => {
                    return Err(MinosError::Internal(format!("unexpected response {other:?}")));
                }
            }
        }
    }
    let audio_p99 = p99(&mut audio_lat);
    let stats = server.service_stats();
    Ok(OverloadReport {
        elapsed: last_delivered.since(SimInstant::EPOCH),
        pages: delivered,
        audio_pages,
        audio_p99,
        audio_worst: audio_lat.last().copied().unwrap_or(SimDuration::ZERO),
        offered,
        prefetch_served,
        shed: stats.shed,
        busy_rejections: stats.busy_rejections,
        queue_high_water: stats.queue_high_water,
        bytes: link.stats().bytes,
        payload_allocs: stats.payload_allocs,
        busy_retries,
        premature_retries,
    })
}

/// Runs the E12 workload: `sessions` concurrent page-sequential readers,
/// each fetching `pages_per_session` pages of `page_len` bytes from its
/// own archived record, over one shared Ethernet-class link and one
/// optical-disk server. Every delivered page is verified byte-for-byte
/// against the stored pattern.
pub fn simulate_page_workload(
    sessions: usize,
    pages_per_session: usize,
    page_len: u64,
    mode: TransportMode,
) -> Result<WorkloadReport> {
    if sessions == 0 || pages_per_session == 0 || page_len == 0 {
        return Err(MinosError::Internal("workload needs sessions, pages, and bytes".into()));
    }
    let mut server = ObjectServer::new();
    // Stock the payload pool up front so cold-start leases hit the free
    // list: payload_allocs then measures steady state, not warmup.
    server.prewarm_payloads(BufferPool::DEFAULT_RETAIN_CAP, page_len as usize);
    let mut plans: Vec<(u64, Vec<ByteSpan>)> = Vec::with_capacity(sessions);
    for s in 0..sessions {
        let data: Vec<u8> =
            (0..pages_per_session as u64 * page_len).map(|i| (i % 251) as u8).collect();
        let (record, _) = server.archiver_mut().store(ObjectId::new(s as u64 + 1), &data)?;
        plans.push((record.span.start, page_spans(record.span, pages_per_session)));
    }
    let mut link = Link::ethernet();
    let verify = |base: u64, span: ByteSpan, bytes: &[u8]| -> Result<()> {
        let expect: Vec<u8> =
            (span.start - base..span.end - base).map(|i| (i % 251) as u8).collect();
        if bytes != expect {
            return Err(MinosError::Internal(format!("wrong bytes for {span}")));
        }
        Ok(())
    };

    match mode {
        TransportMode::Blocking => {
            let mut now = SimInstant::EPOCH;
            let mut delivered = 0u64;
            for page in 0..pages_per_session {
                for (conn0, (base, spans)) in plans.iter().enumerate() {
                    let span = spans[page];
                    let frame = Frame::request(
                        conn0 as u64 + 1,
                        delivered + 1,
                        ServerRequest::FetchSpan { span },
                    );
                    now = now + link.transfer(frame.wire_size());
                    let (response, took) = server.handle(&ServerRequest::FetchSpan { span });
                    now = now + took;
                    let reply = Frame::response(frame.conn_id, frame.request_id, response);
                    now = now + link.transfer(reply.wire_size());
                    let FramePayload::Response(ServerResponse::Span(bytes)) = reply.payload else {
                        return Err(MinosError::Internal(format!("no span bytes for {span}")));
                    };
                    verify(*base, span, &bytes)?;
                    server.recycle_payload(bytes);
                    delivered += 1;
                }
            }
            Ok(WorkloadReport {
                elapsed: now.since(SimInstant::EPOCH),
                pages: delivered,
                bytes: link.stats().bytes,
                payload_allocs: server.service_stats().payload_allocs,
            })
        }
        TransportMode::Pipelined { window } => {
            let window = window.max(1);
            let mut up_free = SimInstant::EPOCH;
            let mut dev_free = SimInstant::EPOCH;
            let mut down_free = SimInstant::EPOCH;
            let mut arrivals: HashMap<(u64, u64), SimInstant> = HashMap::new();
            let mut requested: HashMap<(u64, u64), ByteSpan> = HashMap::new();
            let mut next_page = vec![0usize; sessions];
            let mut next_rid = 1u64;
            let mut last_delivered = SimInstant::EPOCH;
            let mut delivered = 0u64;
            while next_page.iter().any(|&p| p < pages_per_session) {
                for (conn0, (_, spans)) in plans.iter().enumerate() {
                    let from = next_page[conn0];
                    let to = (from + window).min(pages_per_session);
                    for span in &spans[from..to] {
                        let frame = Frame::request(
                            conn0 as u64 + 1,
                            next_rid,
                            ServerRequest::FetchSpan { span: *span },
                        );
                        next_rid += 1;
                        let up = link.transfer(frame.wire_size());
                        let arrival = up_free + up;
                        up_free = arrival;
                        arrivals.insert((frame.conn_id, frame.request_id), arrival);
                        requested.insert((frame.conn_id, frame.request_id), *span);
                        server.enqueue(frame)?;
                    }
                    next_page[conn0] = to;
                }
                while let Some((frame, charge)) = server.poll_timed() {
                    let key = (frame.conn_id, frame.request_id);
                    let arrival = arrivals.remove(&key).unwrap_or(up_free);
                    let done = arrival.max(dev_free) + charge;
                    dev_free = done;
                    let down = link.transfer(frame.wire_size());
                    let at = done.max(down_free) + down;
                    down_free = at;
                    last_delivered = last_delivered.max(at);
                    let FramePayload::Response(ServerResponse::Span(bytes)) = frame.payload else {
                        return Err(MinosError::Internal(format!(
                            "unexpected response frame {}/{}",
                            frame.conn_id, frame.request_id
                        )));
                    };
                    let (base, _) = plans.get(frame.conn_id as usize - 1).ok_or_else(|| {
                        MinosError::Internal(format!("unknown connection {}", frame.conn_id))
                    })?;
                    let span = requested.remove(&key).ok_or_else(|| {
                        MinosError::Internal(format!("unrequested response {key:?}"))
                    })?;
                    verify(*base, span, &bytes)?;
                    server.recycle_payload(bytes);
                    delivered += 1;
                }
            }
            Ok(WorkloadReport {
                elapsed: last_delivered.since(SimInstant::EPOCH),
                pages: delivered,
                bytes: link.stats().bytes,
                payload_allocs: server.service_stats().payload_allocs,
            })
        }
    }
}

/// Audio page period for [`simulate_sched_workload`]'s audio sessions.
const SCHED_AUDIO_PERIOD: SimDuration = SimDuration::from_millis(250);

/// Reading dwell between page turns for the workload's text sessions.
const SCHED_TEXT_DWELL: SimDuration = SimDuration::from_secs(1);

/// Every eighth active session in [`simulate_sched_workload`] is
/// audio-paced; the rest are text readers.
const SCHED_AUDIO_STRIDE: usize = 8;

/// What one [`simulate_sched_workload`] run measured — the E15 report:
/// how the event kernel's work scales with *active* sessions while idle
/// sessions cost nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedReport {
    /// Sessions in the fleet, idle dwellers included.
    pub sessions: u64,
    /// Sessions actually turning pages.
    pub active: u64,
    /// Of the active, sessions paced by an audio playback deadline.
    pub audio_sessions: u64,
    /// Pages delivered (active sessions × pages per session).
    pub pages: u64,
    /// Of those, pages delivered to audio-paced sessions.
    pub audio_pages: u64,
    /// Kernel events fired over the whole run — the work actually done,
    /// which scales with `active`, never with `sessions`.
    pub events: u64,
    /// Timers armed over the whole run.
    pub timers_armed: u64,
    /// Wakes that found nothing to do.
    pub spurious_wakes: u64,
    /// Most events ever pending delivery at once.
    pub ready_high_water: u64,
    /// 99th-percentile audio page service latency (deadline to delivery).
    pub audio_p99: SimDuration,
    /// Simulated time until the last page landed.
    pub sim_elapsed: SimDuration,
}

/// Runs the E15 workload: a fleet of `sessions` connected sessions of
/// which only `active` are doing anything — every
/// [`SCHED_AUDIO_STRIDE`]th active session turns a page each
/// [`SCHED_AUDIO_PERIOD`] on an audio playback deadline, the rest dwell
/// [`SCHED_TEXT_DWELL`] between page turns. Each page turn is one
/// request/response through shared uplink, device, and downlink
/// timelines (the E14 resource model), with the response's arrival armed
/// back into the [`Kernel`] as a completion wake.
///
/// The run loop is pure discrete-event simulation: it jumps from armed
/// deadline to armed deadline via [`Kernel::next_deadline`], so the
/// `sessions - active` idle dwellers — who have no timer armed — are
/// never visited. Total events fired is a function of `active` alone;
/// that invariant is the experiment's headline and is pinned by the
/// `exp_sched` smoke gate.
pub fn simulate_sched_workload(
    sessions: usize,
    active: usize,
    pages_per_session: usize,
    page_len: u64,
) -> Result<SchedReport> {
    if sessions == 0 || pages_per_session == 0 || page_len == 0 {
        return Err(MinosError::Internal("workload needs sessions, pages, and bytes".into()));
    }
    let active = active.min(sessions);
    let mut kernel = Kernel::new();
    let mut link = Link::ethernet();
    // The shared resource timelines: one uplink, one storage device, one
    // downlink — the same serialization model the E14 workload charges.
    let mut up_free = SimInstant::EPOCH;
    let mut dev_free = SimInstant::EPOCH;
    let mut down_free = SimInstant::EPOCH;
    // Device charge for one page: optical seek-free streaming at the
    // archive's sustained rate, folded into a single per-page figure.
    let device_charge = SimDuration::from_micros(200 + page_len / 4);

    struct ActiveSession {
        remaining: usize,
        period: SimDuration,
        audio: bool,
        /// When the in-flight page's deadline fired, for latency.
        fired_at: SimInstant,
    }
    let mut states: Vec<ActiveSession> = (0..active)
        .map(|i| ActiveSession {
            remaining: pages_per_session,
            period: if i % SCHED_AUDIO_STRIDE == 0 { SCHED_AUDIO_PERIOD } else { SCHED_TEXT_DWELL },
            audio: i % SCHED_AUDIO_STRIDE == 0,
            fired_at: SimInstant::EPOCH,
        })
        .collect();
    let audio_sessions = states.iter().filter(|s| s.audio).count() as u64;
    // Arm each active session's first page deadline. Idle sessions arm
    // nothing: they exist only as the fleet headcount.
    for (i, s) in states.iter().enumerate() {
        let event = if s.audio {
            KernelEvent::AudioDeadline { session: i as u64 }
        } else {
            KernelEvent::DeadlineFired { key: i as u64 }
        };
        kernel.arm(SimInstant::EPOCH + s.period, event);
    }
    let mut pages = 0u64;
    let mut audio_pages = 0u64;
    let mut audio_lat: Vec<SimDuration> = Vec::new();
    let frame_wire = Frame::request(
        1,
        1,
        ServerRequest::FetchSpan { span: ByteSpan { start: 0, end: page_len } },
    )
    .wire_size();
    while let Some(at) = kernel.next_deadline() {
        kernel.advance_to(at);
        while let Some(event) = kernel.take_ready() {
            let session = match event {
                KernelEvent::AudioDeadline { session } => session as usize,
                KernelEvent::DeadlineFired { key } => key as usize,
                KernelEvent::ResponseLanded { conn, .. } => {
                    // The page landed: count it and, if the session has
                    // pages left, arm its next dwell/playback deadline.
                    let i = conn as usize;
                    let Some(state) = states.get_mut(i) else {
                        kernel.note_spurious();
                        continue;
                    };
                    state.remaining -= 1;
                    pages += 1;
                    if state.audio {
                        audio_pages += 1;
                        audio_lat.push(kernel.now().since(state.fired_at));
                    }
                    if state.remaining > 0 {
                        let next = if state.audio {
                            KernelEvent::AudioDeadline { session: conn }
                        } else {
                            KernelEvent::DeadlineFired { key: conn }
                        };
                        kernel.arm(kernel.now() + state.period, next);
                    }
                    continue;
                }
                _ => {
                    kernel.note_spurious();
                    continue;
                }
            };
            // A page deadline fired: issue the request through the shared
            // resources and arm the delivery as a completion wake.
            let Some(state) = states.get_mut(session) else {
                kernel.note_spurious();
                continue;
            };
            state.fired_at = kernel.now();
            let arrival = kernel.now().max(up_free) + link.transfer(frame_wire);
            up_free = arrival;
            let done = arrival.max(dev_free) + device_charge;
            dev_free = done;
            let delivered = done.max(down_free) + link.transfer(frame_wire + page_len);
            down_free = delivered;
            kernel.arm(
                delivered,
                KernelEvent::ResponseLanded { conn: session as u64, request_id: 0 },
            );
        }
    }
    let audio_p99 = p99(&mut audio_lat);
    let stats = kernel.stats();
    Ok(SchedReport {
        sessions: sessions as u64,
        active: active as u64,
        audio_sessions,
        pages,
        audio_pages,
        events: stats.events_fired,
        timers_armed: stats.timers_armed,
        spurious_wakes: stats.spurious_wakes,
        ready_high_water: stats.ready_high_water,
        audio_p99,
        sim_elapsed: kernel.now().since(SimInstant::EPOCH),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_corpus::objects::archived_form;
    use minos_corpus::{audio_xray_report, medical_report, subway_map_object};

    #[test]
    fn p99_is_the_nearest_rank_sample() {
        let ms = SimDuration::from_millis;
        // 1..=n ms, unsorted: the rank is ceil(0.99 n), one-based.
        let samples = |n: u64| -> Vec<SimDuration> { (1..=n).rev().map(ms).collect() };
        assert_eq!(p99(&mut samples(0)), SimDuration::ZERO);
        assert_eq!(p99(&mut samples(1)), ms(1));
        assert_eq!(p99(&mut samples(100)), ms(99));
        assert_eq!(p99(&mut samples(101)), ms(100));
    }

    fn corpus_server() -> ObjectServer {
        let mut server = ObjectServer::new();
        let report = medical_report(ObjectId::new(1), 42);
        server.publish(report.clone(), &archived_form(&report)).unwrap();
        let dictation = audio_xray_report(ObjectId::new(2), 7);
        server.publish(dictation.clone(), &archived_form(&dictation)).unwrap();
        let (parent, overlays) =
            subway_map_object(ObjectId::new(3), ObjectId::new(4), ObjectId::new(5), 11);
        server.publish(parent.clone(), &archived_form(&parent)).unwrap();
        for o in overlays {
            let a = archived_form(&o);
            server.publish(o, &a).unwrap();
        }
        server
    }

    fn baseline_store() -> HashMap<ObjectId, MultimediaObject> {
        let mut map = HashMap::new();
        let report = medical_report(ObjectId::new(1), 42);
        map.insert(report.id, report);
        let dictation = audio_xray_report(ObjectId::new(2), 7);
        map.insert(dictation.id, dictation);
        let (parent, overlays) =
            subway_map_object(ObjectId::new(3), ObjectId::new(4), ObjectId::new(5), 11);
        map.insert(parent.id, parent);
        for o in overlays {
            map.insert(o.id, o);
        }
        map
    }

    #[test]
    fn scheduled_session_matches_standalone_events() {
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);
        let (mut baseline, base_open) =
            BrowsingSession::open(baseline_store(), ObjectId::new(3), config, page).unwrap();

        let mut sched = SessionScheduler::new(corpus_server(), Link::ethernet());
        let (key, open_events) = sched.open(ObjectId::new(3), config, page).unwrap();
        assert_eq!(open_events, base_open);

        for cmd in [
            BrowseCommand::SelectRelevant(0),
            BrowseCommand::NextPage,
            BrowseCommand::ReturnFromRelevant,
            BrowseCommand::SelectRelevant(1),
            BrowseCommand::ReturnFromRelevant,
        ] {
            let expect = baseline.apply(cmd.clone()).unwrap();
            let got = sched.apply(key, cmd).unwrap();
            assert_eq!(got, expect);
        }
        assert_eq!(sched.session(key).unwrap().object().id, ObjectId::new(3));
        // The scheduled run actually moved bytes for the shared link.
        assert!(sched.link_stats().bytes > 0);
    }

    #[test]
    fn concurrent_sessions_stay_isolated() {
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);
        let mut sched = SessionScheduler::new(corpus_server(), Link::ethernet());
        let (map_key, _) = sched.open(ObjectId::new(3), config, page).unwrap();
        let (report_key, _) = sched.open(ObjectId::new(1), config, page).unwrap();
        let (audio_key, _) = sched.open(ObjectId::new(2), config, page).unwrap();
        assert_eq!(sched.len(), 3);

        sched.apply(map_key, BrowseCommand::SelectRelevant(0)).unwrap();
        sched.apply(report_key, BrowseCommand::NextPage).unwrap();
        sched.tick(SimDuration::from_secs(8));
        sched.apply(audio_key, BrowseCommand::Interrupt).unwrap();

        assert_eq!(sched.session(map_key).unwrap().object().id, ObjectId::new(4));
        assert_eq!(sched.session(report_key).unwrap().object().id, ObjectId::new(1));
        assert!(sched.session(audio_key).unwrap().audio().is_some());
        // The audio tick produced playback events for that session only.
        assert!(!sched.drain_events(audio_key).unwrap().is_empty());
        assert!(sched.drain_events(report_key).unwrap().is_empty());
    }

    #[test]
    fn audio_sessions_are_served_first() {
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);
        let mut sched = SessionScheduler::new(corpus_server(), Link::ethernet());
        let (visual_a, _) = sched.open(ObjectId::new(1), config, page).unwrap();
        let (audio, _) = sched.open(ObjectId::new(2), config, page).unwrap();
        let (visual_b, _) = sched.open(ObjectId::new(3), config, page).unwrap();

        // Whatever the rotation, the audio session leads every tick.
        for _ in 0..4 {
            let order = sched.service_order();
            assert_eq!(order[0], audio, "audio deadline beats the rotation");
            sched.tick(SimDuration::from_millis(100));
        }
        // Across a full rotation, each visual session leads the non-audio
        // tail at least once — the rotation cannot starve either.
        let mut heads = Vec::new();
        for _ in 0..3 {
            heads.push(sched.service_order()[1]);
            sched.tick(SimDuration::from_millis(100));
        }
        assert!(heads.contains(&visual_a) && heads.contains(&visual_b), "rotation is fair");
    }

    #[test]
    fn prefetched_relevant_objects_cost_no_demand_wait() {
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);
        let mut sched = SessionScheduler::new(corpus_server(), Link::ethernet());
        let (key, _) = sched.open(ObjectId::new(3), config, page).unwrap();
        // Opening announced the visible indicators; ticks land their
        // transfers while the user dwells on the map.
        for _ in 0..4 {
            sched.tick(SimDuration::from_secs(1));
        }
        let waited_before = sched.session(key).unwrap().store().waited();
        sched.apply(key, BrowseCommand::SelectRelevant(0)).unwrap();
        let waited_after = sched.session(key).unwrap().store().waited();
        assert_eq!(sched.session(key).unwrap().object().id, ObjectId::new(4));
        assert_eq!(waited_after, waited_before, "the overlay had already landed");
    }

    #[test]
    fn faulty_connection_leaves_other_sessions_untouched() {
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);
        let run = |plan: Option<FaultPlan>| {
            let mut sched = SessionScheduler::new(corpus_server(), Link::ethernet());
            let (report_key, _) = sched.open(ObjectId::new(1), config, page).unwrap();
            let (audio_key, _) = sched.open(ObjectId::new(2), config, page).unwrap();
            // The faulty session opens last: its overlay prefetches are
            // still queued at the server when the plan attaches, so their
            // response frames really cross the fault layer.
            let (map_key, _) = sched.open(ObjectId::new(3), config, page).unwrap();
            if let Some(plan) = plan {
                sched.inject_faults(map_key, plan).unwrap();
            }
            sched.apply(report_key, BrowseCommand::NextPage).unwrap();
            sched.tick(SimDuration::from_secs(2));
            sched.apply(map_key, BrowseCommand::SelectRelevant(0)).unwrap();
            sched.tick(SimDuration::from_secs(2));
            let map_obj = sched.session(map_key).unwrap().object().id;
            let faults = sched.fault_stats(map_key).unwrap();
            let report_events = sched.drain_events(report_key).unwrap();
            let audio_events = sched.drain_events(audio_key).unwrap();
            (map_obj, faults, report_events, audio_events)
        };
        let (clean_obj, _, clean_report, clean_audio) = run(None);
        let (faulty_obj, faults, faulty_report, faulty_audio) =
            run(Some(FaultPlan::dropping(21, 0.3)));
        // The injected session's frames were really lost, yet its demand
        // fetch retried through the losses and landed the right overlay...
        assert!(faults.dropped > 0, "the plan dropped frames: {faults:?}");
        assert_eq!(faulty_obj, ObjectId::new(4));
        assert_eq!(faulty_obj, clean_obj);
        // ...and the other sessions' event streams are untouched by a
        // neighbor's faulty connection.
        assert_eq!(faulty_report, clean_report);
        assert_eq!(faulty_audio, clean_audio);
    }

    #[test]
    fn dropped_prefetches_degrade_to_demand_fetches() {
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);
        let mut sched = SessionScheduler::new(corpus_server(), Link::ethernet());
        let (key, _) = sched.open(ObjectId::new(3), config, page).unwrap();
        // Every frame vanishes while the user dwells on the map: the
        // overlay prefetches announced at open are all lost in flight.
        sched.inject_faults(key, FaultPlan::dropping(5, 1.0)).unwrap();
        for _ in 0..3 {
            sched.tick(SimDuration::from_secs(1));
        }
        assert!(sched.fault_stats(key).unwrap().dropped > 0, "prefetch responses were lost");
        // The link heals. Selection must still work: the lost prefetch
        // degrades to a demand fetch — the stale pending entry it left
        // behind must not suppress the resubmission — and the user pays a
        // demand wait, never gets a stale page or a session abort.
        sched.inject_faults(key, FaultPlan::none()).unwrap();
        let waited_before = sched.session(key).unwrap().store().waited();
        sched.apply(key, BrowseCommand::SelectRelevant(0)).unwrap();
        assert_eq!(sched.session(key).unwrap().object().id, ObjectId::new(4));
        let waited_after = sched.session(key).unwrap().store().waited();
        assert!(waited_after > waited_before, "the demand miss paid the transfer wait");
    }

    #[test]
    fn faulty_workload_retries_to_byte_identical_completion() {
        let clean = simulate_faulty_page_workload(16, 4_096, 8, FaultPlan::none()).unwrap();
        assert_eq!(clean.pages, 16);
        assert_eq!(clean.failed, 0);
        assert_eq!(clean.transport, TransportStats::default());
        let faulty =
            simulate_faulty_page_workload(16, 4_096, 8, FaultPlan::corrupting(42, 0.1)).unwrap();
        assert_eq!(faulty.pages, 16, "every page recovered: {:?}", faulty.transport);
        assert_eq!(faulty.failed, 0);
        assert!(faulty.faults.corrupted > 0, "{:?}", faulty.faults);
        assert!(faulty.transport.retries > 0, "{:?}", faulty.transport);
        assert!(faulty.elapsed >= clean.elapsed, "recovery is never free");
    }

    #[test]
    fn workload_reports_are_verified_and_complete() {
        let blocking = simulate_page_workload(2, 4, 4_096, TransportMode::Blocking).unwrap();
        assert_eq!(blocking.pages, 8);
        assert!(blocking.elapsed > SimDuration::ZERO);
        let piped =
            simulate_page_workload(2, 4, 4_096, TransportMode::Pipelined { window: 4 }).unwrap();
        assert_eq!(piped.pages, 8);
        assert!(piped.elapsed < blocking.elapsed);
        // Pipelining reorders transfers; it never inflates them. (The
        // workload charges response frames individually, so byte counts
        // match the blocking run exactly.)
        assert!(piped.bytes <= blocking.bytes, "pipelining must not inflate transfer");
    }

    #[test]
    fn pipelining_doubles_aggregate_throughput_at_sixteen_sessions() {
        // The E12 headline, pinned as a test: 16 concurrent page readers,
        // 8 KB pages, window 8 — pipelined throughput at least doubles.
        let blocking = simulate_page_workload(16, 8, 8_192, TransportMode::Blocking).unwrap();
        let piped =
            simulate_page_workload(16, 8, 8_192, TransportMode::Pipelined { window: 8 }).unwrap();
        let ratio = piped.pages_per_sec() / blocking.pages_per_sec();
        assert!(ratio >= 2.0, "pipelined/blocking ratio {ratio:.2}");
    }

    #[test]
    fn pipelined_workload_stays_under_one_allocation_per_page() {
        // The zero-copy pin: 8 sessions each streaming 64 pages at window
        // 8, every consumed page recycled — steady state serves pooled
        // buffers, so fresh allocations amortize to (well) under one per
        // page after the cold first round.
        let report =
            simulate_page_workload(8, 64, 8_192, TransportMode::Pipelined { window: 8 }).unwrap();
        assert_eq!(report.pages, 8 * 64);
        assert_eq!(
            report.payload_allocs, 0,
            "the prewarmed pool serves every page without a fresh allocation"
        );
        assert!(
            report.allocations_per_page() <= 1.0,
            "allocations per page {:.3} ({} allocs / {} pages)",
            report.allocations_per_page(),
            report.payload_allocs,
            report.pages
        );
        // The pin holds under admission-controlled overload too, with the
        // 4x speculative fan-out riding the same pooled buffers.
        let overload = simulate_overload_workload(16, 6, 4_096, ServiceConfig::default()).unwrap();
        assert!(
            overload.allocations_per_page() <= 1.0,
            "overload allocations per page {:.3} ({} allocs / {} pages)",
            overload.allocations_per_page(),
            overload.payload_allocs,
            overload.pages
        );
    }

    #[test]
    fn admission_control_sheds_prefetch_and_keeps_demand_whole() {
        let caps = ServiceConfig { per_conn_cap: 8, global_cap: 32, ..ServiceConfig::default() };
        let admitted = simulate_overload_workload(16, 6, 4_096, caps).unwrap();
        let unbounded =
            simulate_overload_workload(16, 6, 4_096, ServiceConfig::unbounded()).unwrap();
        // Every demand page lands byte-identical in both runs — shedding
        // costs speculation, never the user's page.
        assert_eq!(admitted.pages, 16 * 6);
        assert_eq!(unbounded.pages, 16 * 6);
        assert_eq!(admitted.audio_pages, 6);
        // The overload is real: the admission control had prefetches to
        // shed, and it only ever shed prefetches.
        assert!(admitted.shed > 0, "{admitted:?}");
        assert_eq!(admitted.busy_rejections, 0, "demand never turned away: {admitted:?}");
        assert_eq!(unbounded.shed, 0);
        assert!(admitted.prefetch_served < unbounded.prefetch_served);
        // The queue really is bounded, and the audio tail is the payoff:
        // shedding keeps the listener's p99 latency below the unbounded
        // collapse, and demand goodput above it.
        assert!(admitted.queue_high_water <= 32, "{admitted:?}");
        assert!(unbounded.queue_high_water > 32, "{unbounded:?}");
        assert!(
            admitted.audio_p99 < unbounded.audio_p99,
            "admitted {:?} vs unbounded {:?}",
            admitted.audio_p99,
            unbounded.audio_p99
        );
        assert!(admitted.elapsed < unbounded.elapsed);
        assert!(admitted.goodput_pages_per_sec() > unbounded.goodput_pages_per_sec());
    }

    #[test]
    fn busy_resubmissions_wait_out_the_retry_hint() {
        // A per-connection cap of 1 guarantees demand-class rejections:
        // the second windowed demand page finds its connection's queue
        // full of un-sheddable demand work and is turned away with a
        // `Busy { retry_after }` hint.
        let tight = ServiceConfig { per_conn_cap: 1, global_cap: 64, ..ServiceConfig::default() };
        let report = simulate_overload_workload(8, 6, 4_096, tight).unwrap();
        assert_eq!(report.pages, 8 * 6, "every turned-away page eventually lands");
        assert!(report.busy_rejections > 0, "the cap actually rejected demand: {report:?}");
        assert!(report.busy_retries > 0, "rejected pages came back as retries: {report:?}");
        // The pin: no resubmission ever left the client before the
        // server's hint elapsed. The retry timer gates the uplink.
        assert_eq!(report.premature_retries, 0, "{report:?}");
    }

    #[test]
    fn anticipation_suspends_under_admission_pressure() {
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);
        let mut sched = SessionScheduler::new(corpus_server(), Link::ethernet());
        // One queued frame already counts as pressure under this cap, so
        // opening the map may announce both overlays but issue at most one
        // anticipatory fetch before suspending.
        sched.set_service_config(ServiceConfig {
            per_conn_cap: 1,
            global_cap: 1,
            ..ServiceConfig::default()
        });
        let (key, _) = sched.open(ObjectId::new(3), config, page).unwrap();
        for _ in 0..4 {
            sched.tick(SimDuration::from_secs(1));
        }
        // Suspension means no prefetch was submitted-and-shed: the server
        // never had to reject anything.
        assert_eq!(sched.service_stats().shed, 0);
        assert_eq!(sched.service_stats().busy_rejections, 0);
        // The first overlay's prefetch went out before pressure and
        // landed; the second was suspended and degrades to a demand miss.
        let waited_before = sched.session(key).unwrap().store().waited();
        sched.apply(key, BrowseCommand::SelectRelevant(0)).unwrap();
        assert_eq!(sched.session(key).unwrap().object().id, ObjectId::new(4));
        assert_eq!(sched.session(key).unwrap().store().waited(), waited_before);
        sched.apply(key, BrowseCommand::ReturnFromRelevant).unwrap();
        sched.apply(key, BrowseCommand::SelectRelevant(1)).unwrap();
        assert_eq!(sched.session(key).unwrap().object().id, ObjectId::new(5));
        assert!(
            sched.session(key).unwrap().store().waited() > waited_before,
            "the suspended prefetch degraded to a demand wait"
        );
    }

    #[test]
    fn sched_workload_cost_is_invariant_in_idle_sessions() {
        // The E15 invariant: a fleet 150x larger costs exactly the same
        // kernel work when the active set is the same — idle sessions arm
        // nothing and are never visited.
        let small = simulate_sched_workload(64, 32, 4, 4_096).unwrap();
        let large = simulate_sched_workload(10_000, 32, 4, 4_096).unwrap();
        assert_eq!(small.pages, 32 * 4);
        assert_eq!(small.audio_sessions, 4);
        assert_eq!(small.events, large.events);
        assert_eq!(small.timers_armed, large.timers_armed);
        assert_eq!(small.sim_elapsed, large.sim_elapsed);
        assert_eq!(small.audio_p99, large.audio_p99);
        assert_eq!(large.spurious_wakes, 0, "every wake did real work");
        assert_eq!(large.sessions, 10_000);
        assert!(large.audio_pages > 0);
        assert!(large.audio_p99 > SimDuration::ZERO);
    }

    #[test]
    fn kernel_and_legacy_ticks_produce_identical_event_streams() {
        // The in-module equivalence smoke (the fuzzed golden-stream
        // harness lives in tests/command_fuzz.rs): same sessions, same
        // commands, same ticks — byte-identical events and transfer
        // accounting in both modes.
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);
        let run = |legacy: bool| {
            let mut sched = if legacy {
                SessionScheduler::legacy(corpus_server(), Link::ethernet())
            } else {
                SessionScheduler::new(corpus_server(), Link::ethernet())
            };
            let (map_key, open_map) = sched.open(ObjectId::new(3), config, page).unwrap();
            let (audio_key, open_audio) = sched.open(ObjectId::new(2), config, page).unwrap();
            let (report_key, open_report) = sched.open(ObjectId::new(1), config, page).unwrap();
            let mut events = vec![open_map, open_audio, open_report];
            for _ in 0..3 {
                sched.tick(SimDuration::from_secs(1));
            }
            events.push(sched.apply(map_key, BrowseCommand::SelectRelevant(0)).unwrap());
            events.push(sched.apply(report_key, BrowseCommand::NextPage).unwrap());
            sched.tick(SimDuration::from_secs(2));
            events.push(sched.apply(audio_key, BrowseCommand::Interrupt).unwrap());
            sched.tick(SimDuration::from_secs(2));
            for key in [map_key, audio_key, report_key] {
                events.push(sched.drain_events(key).unwrap());
            }
            (events, sched.link_stats(), sched.elapsed(), sched.kernel_stats())
        };
        let (kernel_events, kernel_link, kernel_elapsed, kernel_stats) = run(false);
        let (legacy_events, legacy_link, legacy_elapsed, legacy_stats) = run(true);
        assert_eq!(kernel_events, legacy_events);
        assert_eq!(kernel_link, legacy_link);
        assert_eq!(kernel_elapsed, legacy_elapsed);
        // Only the kernel path goes through the event kernel.
        assert!(kernel_stats.events_fired > 0);
        assert_eq!(legacy_stats, KernelStats::default());
    }

    #[test]
    fn audio_sessions_tag_their_demand_class() {
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);
        let mut sched = SessionScheduler::new(corpus_server(), Link::ethernet());
        let (visual, _) = sched.open(ObjectId::new(1), config, page).unwrap();
        let (audio, _) = sched.open(ObjectId::new(2), config, page).unwrap();
        assert_eq!(sched.session(visual).unwrap().store().demand_class(), Priority::Demand);
        assert_eq!(sched.session(audio).unwrap().store().demand_class(), Priority::Audio);
    }

    #[test]
    fn zero_elapsed_reports_rate_as_zero() {
        // Pinned: a degenerate zero-length run reports zero throughput,
        // never a division-by-zero NaN or infinity.
        let report =
            WorkloadReport { elapsed: SimDuration::ZERO, pages: 5, bytes: 1, payload_allocs: 0 };
        assert_eq!(report.pages_per_sec(), 0.0);
        let empty =
            WorkloadReport { elapsed: SimDuration::ZERO, pages: 0, bytes: 0, payload_allocs: 3 };
        assert_eq!(empty.allocations_per_page(), 0.0);
        let faulty = FaultyWorkloadReport {
            elapsed: SimDuration::ZERO,
            pages: 5,
            failed: 0,
            bytes: 1,
            transport: TransportStats::default(),
            faults: FaultStats::default(),
        };
        assert_eq!(faulty.pages_per_sec(), 0.0);
        let overload = OverloadReport {
            elapsed: SimDuration::ZERO,
            pages: 5,
            audio_pages: 5,
            audio_p99: SimDuration::ZERO,
            audio_worst: SimDuration::ZERO,
            offered: 20,
            prefetch_served: 0,
            shed: 0,
            busy_rejections: 0,
            queue_high_water: 0,
            bytes: 1,
            payload_allocs: 0,
            busy_retries: 0,
            premature_retries: 0,
        };
        assert_eq!(overload.goodput_pages_per_sec(), 0.0);
    }
}

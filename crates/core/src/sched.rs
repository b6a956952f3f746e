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
//! Inside the scheduler, [`SessionScheduler::inject_faults`] scopes a
//! [`FaultPlan`] to one session's connection: its lost prefetches degrade
//! to demand fetches with a bounded retry budget, while every other
//! session's event stream stays untouched.
//!
//! Admission control has a client half here too: when the server queue is
//! under admission pressure, [`HubStore::note_upcoming`] suspends
//! anticipation rather than submitting prefetches the server would shed —
//! the hint degrades to a later demand miss, never to wire noise.
//!
//! Ticks are driven by the discrete-event [`Kernel`]: only sessions with
//! an armed audio deadline and connections with a completion wake are
//! visited, so an idle session costs nothing per tick. The experiments'
//! page-reader workloads live in [`crate::workload`].

use crate::command::{BrowseCommand, BrowseEvent};
use crate::kernel::{Kernel, KernelEvent, KernelStats};
use crate::session::{BrowsingSession, ObjectStore};
use minos_net::{
    FaultPlan, FaultRng, FaultStats, Frame, FramePayload, Link, LinkStats, Priority, ServerRequest,
    ServerResponse,
};
use minos_object::MultimediaObject;
use minos_server::{ObjectServer, ServiceConfig, ServiceStats};
use minos_text::PaginateConfig;
use minos_types::{MinosError, ObjectId, Result, SimClock, SimDuration, SimInstant};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
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

/// An [`ObjectStore`] backed by a scheduler `Hub`: demand fetches pump
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
    /// Objects the server answered with an error. The answer is final, so
    /// the next demand fetch of the object fails at it instead of retrying.
    refused: HashSet<ObjectId>,
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
            refused: HashSet::new(),
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

    /// Moves landed responses for this connection into the object cache,
    /// noting server errors as refusals. A `Busy` turn-away is dropped: the
    /// request is simply outstanding again.
    fn collect(&mut self) {
        let mut hub = self.hub.borrow_mut();
        let Some(landed) = hub.landed.remove(&self.conn_id) else {
            return;
        };
        for (rid, response, delivered) in landed {
            let Some(id) = self.pending.remove(&rid) else {
                continue;
            };
            match response {
                ServerResponse::Object(_) => {
                    if let Some(object) = hub.server.resident_object(id).cloned() {
                        self.cache.insert(id, (object, delivered));
                    }
                }
                ServerResponse::Error(_) => {
                    self.refused.insert(id);
                }
                _ => {}
            }
        }
    }
}

/// Demand-fetch attempts before a [`HubStore`] gives up on an object: the
/// initial submission plus resubmissions of requests whose frames (or
/// response frames) were lost on a faulty connection or turned away
/// `Busy`. A server error ends the fetch at once.
const FETCH_ATTEMPTS: usize = 4;

impl ObjectStore for HubStore {
    fn fetch(&mut self, id: ObjectId) -> Result<MultimediaObject> {
        self.collect();
        let mut attempts = 0;
        while !self.cache.contains_key(&id)
            && !self.refused.contains(&id)
            && attempts < FETCH_ATTEMPTS
        {
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
        self.refused.remove(&id);
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
        // The kernel first catches up with the tick instant, so the
        // deadlines, due now, go straight onto its due list instead of
        // being filed a tick ahead and cascading down the wheel.
        let mut audio_wake: Vec<usize> = Vec::new();
        {
            let mut hub = self.hub.borrow_mut();
            let now = hub.clock.now();
            hub.kernel.advance_to(now);
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

#[cfg(test)]
mod tests {
    use super::*;
    use minos_corpus::objects::archived_form;
    use minos_corpus::{audio_xray_report, medical_report, subway_map_object};

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
    fn an_unknown_object_fails_after_one_round_trip() {
        let mut sched = SessionScheduler::new(ObjectServer::new(), Link::ethernet());
        let opened =
            sched.open(ObjectId::new(99), PaginateConfig::default(), SimDuration::from_secs(5));
        assert!(matches!(opened, Err(MinosError::UnknownObject(_))), "{:?}", opened.err());
        // The server's error answers the request: nothing is resubmitted.
        assert_eq!(sched.service_stats().served, 1);
        assert_eq!(sched.link_stats().messages, 2, "one request up, one error down");
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
    fn idle_sessions_cost_the_kernel_nothing() {
        // The E15 claim, pinned where it lives: once a few hundred idle
        // text sessions have settled, the same ticks and commands fire
        // exactly the kernel work they fire without them — an idle
        // session arms no deadline and is never woken.
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);
        let run = |idle: usize| {
            let mut sched = SessionScheduler::new(corpus_server(), Link::ethernet());
            let (map, _) = sched.open(ObjectId::new(3), config, page).unwrap();
            let (audio, _) = sched.open(ObjectId::new(2), config, page).unwrap();
            let (report, _) = sched.open(ObjectId::new(1), config, page).unwrap();
            for _ in 0..idle {
                sched.open(ObjectId::new(1), config, page).unwrap();
            }
            // Let every open's fetches and anticipations land.
            for _ in 0..3 {
                sched.tick(SimDuration::from_secs(1));
            }
            let before = sched.kernel_stats();
            sched.apply(map, BrowseCommand::SelectRelevant(0)).unwrap();
            sched.tick(SimDuration::from_secs(1));
            sched.apply(report, BrowseCommand::NextPage).unwrap();
            for _ in 0..4 {
                sched.tick(SimDuration::from_millis(500));
            }
            sched.apply(audio, BrowseCommand::Interrupt).unwrap();
            sched.tick(SimDuration::from_secs(1));
            let after = sched.kernel_stats();
            (
                after.events_fired - before.events_fired,
                after.timers_armed - before.timers_armed,
                after.spurious_wakes - before.spurious_wakes,
            )
        };
        let active_only = run(0);
        assert!(active_only.0 > 0, "the active sessions did kernel work: {active_only:?}");
        assert_eq!(run(300), active_only, "(events, timers armed, spurious wakes)");
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

    /// `(at_us, verb, event)` of every record in a drained kernel trace.
    fn trace_records(json: &str) -> Vec<(u64, String, String)> {
        let body = json.trim_start_matches('[').trim_end_matches(']');
        if body.is_empty() {
            return Vec::new();
        }
        body.split("},{")
            .map(|rec| {
                let field = |name: &str| {
                    let key = format!("\"{name}\":");
                    let rest = &rec[rec.find(&key).expect("trace field") + key.len()..];
                    let end = rest.find([',', '}']).unwrap_or(rest.len());
                    rest[..end].trim_matches('"').to_string()
                };
                (field("at_us").parse().unwrap(), field("verb"), field("event"))
            })
            .collect()
    }

    #[test]
    fn each_tick_posts_and_fires_its_wakes_at_the_tick_instant() {
        // The scheduler kernel's observability for a fixed script: every
        // wake a tick posts fires at that tick's instant, audio deadlines
        // first, then connection wakes, each group's arms before its fires.
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);
        let mut sched = SessionScheduler::new(corpus_server(), Link::ethernet());
        let (map, _) = sched.open(ObjectId::new(3), config, page).unwrap();
        let (audio, _) = sched.open(ObjectId::new(2), config, page).unwrap();
        let (report, _) = sched.open(ObjectId::new(1), config, page).unwrap();
        assert_eq!(sched.drain_kernel_trace(), "[]", "opening posts nothing");
        let script = [
            (report, BrowseCommand::NextPage),
            (map, BrowseCommand::SelectRelevant(0)),
            (report, BrowseCommand::NextPage),
            (map, BrowseCommand::ReturnFromRelevant),
            (report, BrowseCommand::PreviousPage),
            (map, BrowseCommand::SelectRelevant(1)),
        ];
        let ticks = 12;
        let (mut audio_posts, mut conn_posts) = (0u64, 0u64);
        for step in 0..ticks {
            if let Some((key, command)) = script.get(step) {
                sched.apply(*key, command.clone()).unwrap();
            }
            assert!(sched.session(audio).unwrap().audio().is_some(), "audio stays audio");
            let at = sched.elapsed().as_micros();
            sched.tick(SimDuration::from_millis(500));
            let records = trace_records(&sched.drain_kernel_trace());
            assert!(records.iter().all(|r| r.0 == at), "tick {step} off its instant: {records:?}");
            let count =
                |event: &str| records.iter().filter(|r| r.1 == "arm" && r.2 == event).count();
            let (a, c) = (count("AudioDeadline"), count("ResponseLanded"));
            assert_eq!(a, 1, "one audio session, one deadline per tick");
            let expected: Vec<(&str, &str)> = [
                ("arm", "AudioDeadline", a),
                ("fire", "AudioDeadline", a),
                ("arm", "ResponseLanded", c),
                ("fire", "ResponseLanded", c),
            ]
            .iter()
            .flat_map(|&(verb, event, n)| std::iter::repeat_n((verb, event), n))
            .collect();
            let got: Vec<(&str, &str)> =
                records.iter().map(|r| (r.1.as_str(), r.2.as_str())).collect();
            assert_eq!(got, expected, "tick {step}");
            audio_posts += a as u64;
            conn_posts += c as u64;
        }
        assert_eq!(audio_posts, ticks as u64);
        assert!(conn_posts > 0, "the script's fetches woke their connections");
        let stats = sched.kernel_stats();
        assert_eq!(stats.timers_armed, audio_posts + conn_posts);
        assert_eq!(stats.events_fired, stats.timers_armed, "every post fires, none is cancelled");
        // The spurious wakes are connection wakes whose responses an
        // earlier pump had already served, never an audio deadline.
        assert_eq!(
            stats,
            KernelStats {
                events_fired: 16,
                timers_armed: 16,
                spurious_wakes: 3,
                ready_high_water: 3
            }
        );
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
}

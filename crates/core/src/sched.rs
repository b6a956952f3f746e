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
//! Every session is one connection of a single [`Client`] over a fleet of
//! one, so its requests share the client's wire, device timeline, buffer
//! pool and clock, and are recovered the way every connection's are: a
//! lost frame is retransmitted at its deadline with backoff, and a `Busy`
//! reply parks the request on the server's hint.
//! [`SessionScheduler::inject_faults`] scopes a [`FaultPlan`] to one
//! session's connection, while every other session's event stream stays
//! untouched.
//!
//! Admission control has a client half here too: when the server queue is
//! under admission pressure, [`HubStore::note_upcoming`] suspends
//! anticipation rather than submitting prefetches the server would shed —
//! the hint degrades to a later demand miss, never to wire noise.
//!
//! Ticks are driven in event time by the scheduler's own discrete-event
//! [`Kernel`], keyed by a presentation clock: the sum of the tick lengths.
//! It is not the client's clock, because a fetch wait inside
//! [`SessionScheduler::apply`] moves the client's clock but plays no audio.
//! A connection is visited only when the server completed work for it. An
//! audio session is visited only when its next observable change falls
//! due, so a session costs nothing between its page crossings, anchor
//! entries and exits and its end. The experiments' page-reader workloads
//! live in [`crate::workload`].

use crate::audio::AudioEngine;
use crate::command::{BrowseCommand, BrowseEvent};
use crate::kernel::{Kernel, KernelEvent, KernelStats, TimerId};
use crate::session::{BrowsingSession, ObjectStore};
use crate::transport::{Client, Landed, Ticket};
use minos_net::{FaultPlan, FaultStats, Link, LinkStats, Priority, ServerRequest, ServerResponse};
use minos_object::MultimediaObject;
use minos_server::{ObjectServer, ServiceConfig, ServiceStats};
use minos_text::PaginateConfig;
use minos_types::{MinosError, ObjectId, Result, SimDuration, SimInstant};
use minos_voice::PlaybackState;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// The server's final word on one object.
enum Answer {
    /// The object's bytes finished arriving at this instant.
    Arrived(SimInstant),
    /// The server answered with an error: the next demand fetch of the
    /// object fails at it instead of asking again.
    Refused,
}

impl Answer {
    /// What `landed` says about its object — nothing when the client gave
    /// the request up itself, retries exhausted.
    fn of(landed: Landed) -> Option<Answer> {
        match landed.response {
            ServerResponse::Object(_) => Some(Answer::Arrived(landed.ready_at)),
            ServerResponse::Error(_) if !landed.expired => Some(Answer::Refused),
            _ => None,
        }
    }
}

/// Whether the server's inbound queue is under admission pressure: with
/// half the global headroom already spoken for, anticipatory traffic
/// should pause and leave the rest to demand fetches. Request frames still
/// on the wire count as queued, without being moved: the probe changes
/// nothing, so probing one hint target never disturbs another's prefetch.
fn under_pressure(client: &Client) -> bool {
    let server = &client.fleet.servers()[0];
    let cap = server.service_config().global_cap;
    cap != usize::MAX && 2 * (server.pending_frames() + client.in_transit(0)) >= cap
}

/// An [`ObjectStore`] over one connection of the scheduler's [`Client`]:
/// a demand fetch serves its own connection first, then everyone else's;
/// `note_upcoming` hints become prefetch requests whose responses land
/// during subsequent scheduler ticks, hidden behind every session's dwell.
///
/// The server's resident object stands in for the workstation-side decode
/// of the fetched bytes, and it is shared, not copied:
/// [`ObjectStore::fetch_shared`] hands out the server's own `Rc`, so a
/// session entering an object holds no second copy of its text and images.
pub struct HubStore {
    client: Rc<RefCell<Client>>,
    conn_id: u64,
    /// Service class of this session's demand fetches (audio-driven
    /// sessions upgrade to [`Priority::Audio`]; prefetch hints always go
    /// out as [`Priority::Prefetch`]).
    demand_class: Priority,
    /// Requests on the wire, by object.
    pending: HashMap<ObjectId, Ticket>,
    /// Answers collected and not yet read, by object.
    answers: HashMap<ObjectId, Answer>,
    waited: SimDuration,
}

impl HubStore {
    fn new(client: Rc<RefCell<Client>>, conn_id: u64) -> Self {
        HubStore {
            client,
            conn_id,
            demand_class: Priority::Demand,
            pending: HashMap::new(),
            answers: HashMap::new(),
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

    /// Takes this connection's landed responses out of the client without
    /// moving the clock. A request the client gave up on is simply no
    /// longer pending: a later demand fetch asks again.
    fn collect(&mut self) {
        let mut client = self.client.borrow_mut();
        let answers = &mut self.answers;
        self.pending.retain(|&id, &mut ticket| {
            let Some(landed) = client.take_landed(ticket) else {
                return true;
            };
            answers.extend(Answer::of(landed).map(|answer| (id, answer)));
            false
        });
    }
}

impl ObjectStore for HubStore {
    fn fetch(&mut self, id: ObjectId) -> Result<MultimediaObject> {
        self.fetch_shared(id).map(|object| MultimediaObject::clone(&object))
    }

    /// Waits for the object's bytes to arrive, then hands out the server's
    /// resident object.
    fn fetch_shared(&mut self, id: ObjectId) -> Result<Rc<MultimediaObject>> {
        self.collect();
        let mut client = self.client.borrow_mut();
        let started = client.kernel.now();
        if !self.answers.contains_key(&id) {
            // A prefetch still on its way becomes the demand fetch.
            let ticket = match self.pending.remove(&id) {
                Some(ticket) => ticket,
                None => client.submit_on(
                    (self.conn_id, self.demand_class),
                    ServerRequest::FetchObject { id },
                ),
            };
            let landed = client.collect(ticket)?;
            self.answers.extend(Answer::of(landed).map(|answer| (id, answer)));
        }
        let arrived = match self.answers.remove(&id) {
            Some(Answer::Arrived(at)) => at,
            // Only the server's refusal says the object is unknown; a
            // request lost on the wire until the client gave it up says
            // nothing about it.
            Some(Answer::Refused) => return Err(MinosError::UnknownObject(id.to_string())),
            None => return Err(MinosError::Protocol(format!("fetch of {id} went unanswered"))),
        };
        let object = client.fleet.servers()[0].resident_shared(id);
        let object = object.ok_or_else(|| MinosError::UnknownObject(id.to_string()))?;
        client.kernel.advance_to(arrived);
        self.waited += client.kernel.now().saturating_since(started);
        Ok(object)
    }

    fn note_upcoming(&mut self, targets: &[ObjectId]) {
        self.collect();
        let mut client = self.client.borrow_mut();
        for &id in targets {
            // An answer on hand settles the object, a refusal as much as
            // an arrival, until the next demand fetch reads it.
            if self.answers.contains_key(&id) || self.pending.contains_key(&id) {
                continue;
            }
            // Deadline-aware shedding, client half: with the server's
            // queue under admission pressure, anticipation is suspended
            // rather than submitted-and-shed. The hint degrades to a
            // later demand miss, never to wire noise the server must
            // reject.
            if under_pressure(&client) {
                return;
            }
            let prefetch = ServerRequest::FetchObject { id };
            let ticket = client.submit_on((self.conn_id, Priority::Prefetch), prefetch);
            self.pending.insert(id, ticket);
        }
    }
}

/// A handle to one session slot in a [`SessionScheduler`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionKey(usize);

/// The session in slot `index` travels on connection `index + 1`.
fn conn_of(index: usize) -> u64 {
    index as u64 + 1
}

/// The slot whose session travels on connection `conn`.
fn slot_of(conn: u64) -> Option<usize> {
    usize::try_from(conn).ok()?.checked_sub(1)
}

/// Where slot `index` falls in the deadline-aware service order of a
/// tick whose rotation starts at `cursor`: audio-driven sessions first,
/// because a late audio page is a dropout, then rotation distance from
/// the cursor, so no visual session starves.
fn service_rank(slots: &[Slot], cursor: usize, index: usize) -> (bool, usize) {
    (!slots[index].is_audio(), (slots.len() + index - cursor) % slots.len())
}

struct Slot {
    session: BrowsingSession<HubStore>,
    events: Vec<BrowseEvent>,
    /// The presentation instant the session was last brought up to: a
    /// playing session still owes the time since then.
    synced: SimInstant,
    /// The armed wake for a playing session's next observable change, and
    /// its instant in presentation time.
    wake: Option<(SimInstant, TimerId)>,
}

impl Slot {
    /// Whether the session is audio-driven: it is served first. Only
    /// [`SessionScheduler::apply`] can switch a session's driving mode; a
    /// tick only advances its playback.
    fn is_audio(&self) -> bool {
        self.session.audio().is_some()
    }

    /// Brings the session up to `now`, with exactly the events per-tick
    /// stepping would have produced. A playing session plays the time owed
    /// in one tick: no change fell due in it, or its wake would have
    /// caught it up at the first tick end after. Any other session owes
    /// nothing: an idle tick reports nothing.
    fn catch_up(&mut self, now: SimInstant) {
        let playing = self.session.audio().map(AudioEngine::state) == Some(PlaybackState::Playing);
        if playing && now > self.synced {
            let events = self.session.tick(now.since(self.synced));
            self.events.extend(events);
        }
        self.synced = now;
    }

    /// Arms slot `index`'s wake for its next observable change, if it
    /// moved: the old wake is cancelled and a new one armed, in
    /// presentation time. The session must be caught up.
    fn rearm(&mut self, kernel: &mut Kernel, index: usize) {
        let due = self.session.audio().and_then(|audio| {
            let change = audio.next_change()?;
            Some(self.synced + change.saturating_since(audio.position()))
        });
        if self.wake.map(|(at, _)| at) == due {
            return;
        }
        if let Some((_, timer)) = self.wake.take() {
            kernel.cancel(timer);
        }
        let event = KernelEvent::AudioDeadline { session: index as u64 };
        self.wake = due.map(|at| (at, kernel.arm(at, event)));
    }
}

/// N concurrent browsing sessions multiplexed over one simulated link and
/// one object server.
///
/// Each [`SessionScheduler::tick`] advances session presentations by the
/// same slice of presentation time and then serves the shared service
/// loop. Service order is round-robin with a rotating head — no session
/// can starve — except that audio-driven sessions always go first: their
/// transfers have real-time deadlines, a text reader's do not.
///
/// The tick runs in event time. The scheduler keeps one presentation
/// instant (the sum of the tick lengths), and each slot records the
/// instant it was last brought up to. An audio session is in one of two
/// states:
/// - *playing*: one [`Kernel`] timer is armed at the presentation instant
///   of its next observable change ([`AudioEngine::next_change`]), the end
///   of the part among them. At the first tick end at or after it, one
///   tick over the time owed catches the session up;
/// - *idle* (interrupted or finished): nothing is armed and nothing is
///   owed, since a tick of an idle part reports nothing. The end was
///   reported once, by the tick that reached it.
///
/// [`SessionScheduler::apply`], [`SessionScheduler::session`] and
/// [`SessionScheduler::drain_events`] catch a session up first, so every
/// event and position is what per-tick stepping would show. The kernel
/// also wakes exactly the connections the server completed work for, in
/// the same deadline-aware order a full rotation scan would produce, so an
/// idle session costs nothing per tick. Golden-stream fixtures recorded
/// from that full scan, and re-recorded with only the repeated
/// `PlaybackFinished` events removed when the end came to be reported
/// once, pin the tick to the byte.
///
/// The transport costs nothing on a quiet tick either. When the shared
/// [`Client`] is quiet through the tick's end (no request in its table,
/// no frame in transit, no work queued, served or woken at the server, no
/// retransmit or `Busy` deadline due, no restart unnoticed), the tick
/// moves only the client's kernel, which is its clock, and the rotation
/// cursor: the service pump would find nothing to do. Most ticks of a
/// browsing group are quiet, because a session fetches only when its user
/// enters an object or its indicators change.
pub struct SessionScheduler {
    client: Rc<RefCell<Client>>,
    /// The tick's kernel, keyed by presentation time: audio sessions' next
    /// changes and connections' completion wakes flow through it, so only
    /// sessions with a fired wake or a landed response are ever visited.
    /// The client's retransmit timers run on the client's own kernel.
    kernel: Kernel,
    /// The presentation clock: the sum of the tick lengths.
    now: SimInstant,
    slots: Vec<Slot>,
    /// Connection ids woken this tick, kept so a tick allocates nothing.
    woken: Vec<u64>,
    cursor: usize,
}

/// The error for a key that names no slot.
fn no_slot(key: SessionKey) -> MinosError {
    MinosError::Internal(format!("no session slot {}", key.0))
}

impl SessionScheduler {
    /// A scheduler over `server` reached through `link`.
    pub fn new(server: ObjectServer, link: Link) -> Self {
        SessionScheduler {
            client: Rc::new(RefCell::new(Client::new(server, link))),
            kernel: Kernel::new(),
            now: SimInstant::EPOCH,
            slots: Vec::new(),
            woken: Vec::new(),
            cursor: 0,
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
        let index = self.slots.len();
        let store = HubStore::new(Rc::clone(&self.client), conn_of(index));
        let (mut session, events) = BrowsingSession::open(store, id, config, audio_page_len)?;
        if session.audio().is_some() {
            // A voice-driven session's transfers have playback deadlines:
            // tag its demand fetches audio-class so the server's shed
            // policy can never reject them.
            session.store_mut().set_demand_class(Priority::Audio);
        }
        let mut slot = Slot { session, events: Vec::new(), synced: self.now, wake: None };
        slot.rearm(&mut self.kernel, index);
        self.slots.push(slot);
        Ok((SessionKey(index), events))
    }

    /// Replaces the shared server's admission-control knobs (queue caps
    /// and the busy retry hint) for every session.
    pub fn set_service_config(&mut self, config: ServiceConfig) {
        self.client.borrow_mut().fleet.servers_mut()[0].set_service_config(config);
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
    /// The session is caught up first and its wake re-armed after.
    pub fn apply(&mut self, key: SessionKey, command: BrowseCommand) -> Result<Vec<BrowseEvent>> {
        let slot = self.slots.get_mut(key.0).ok_or_else(|| no_slot(key))?;
        slot.catch_up(self.now);
        let events = slot.session.apply(command);
        slot.rearm(&mut self.kernel, key.0);
        events
    }

    /// The session behind `key` (menus, positions, objects), caught up
    /// with the presentation clock.
    pub fn session(&mut self, key: SessionKey) -> Result<&BrowsingSession<HubStore>> {
        let slot = self.slots.get_mut(key.0).ok_or_else(|| no_slot(key))?;
        slot.catch_up(self.now);
        Ok(&slot.session)
    }

    /// The deadline-aware service order for the next tick: a rotating
    /// round-robin of all sessions, audio-driven sessions first.
    pub fn service_order(&self) -> Vec<SessionKey> {
        let mut order: Vec<usize> = (0..self.slots.len()).collect();
        order.sort_by_key(|&i| service_rank(&self.slots, self.cursor, i));
        order.into_iter().map(SessionKey).collect()
    }

    /// Advances every session's presentation by `dt` and serves the shared
    /// service loop in deadline-aware order. Events produced by the tick
    /// accumulate per session; drain them with
    /// [`SessionScheduler::drain_events`].
    ///
    /// The presentation clock moves by `dt`, and only the audio sessions
    /// whose next change fell due are caught up and re-armed; every other
    /// playing session is left owing the time. A client quiet through `dt`
    /// from now only has its clock moved. Otherwise the tick visits only
    /// the connections with a completion wake, in the deadline-aware
    /// relative order of a full scan. Last, the client's clock moves by `dt`,
    /// retransmitting whatever falls due on the way, and every response
    /// that has landed goes into its session's store.
    pub fn tick(&mut self, dt: SimDuration) {
        self.now = self.now + dt;
        self.kernel.advance_to(self.now);
        while let Some(event) = self.kernel.take_ready() {
            let KernelEvent::AudioDeadline { session } = event else {
                self.kernel.note_spurious();
                continue;
            };
            let index = session as usize;
            if let Some(slot) = self.slots.get_mut(index) {
                slot.wake = None;
                slot.catch_up(self.now);
                slot.rearm(&mut self.kernel, index);
            }
        }
        let n = self.slots.len();
        let mut client = self.client.borrow_mut();
        let at = client.kernel.now() + dt;
        if client.is_quiet_through(at) {
            client.idle_to(at);
        } else if n == 0 {
            client.advance_to(at);
        } else {
            drop(client);
            self.pump(at);
        }
        if n > 0 {
            self.cursor = (self.cursor + 1) % n;
        }
    }

    /// The tick's transport half, for a client with work due by `at`:
    /// serves the connections with a completion wake, in the deadline-aware
    /// relative order of a full scan, moves the client to `at`, and takes
    /// every landed response into its session's store.
    fn pump(&mut self, at: SimInstant) {
        let n = self.slots.len();
        let cursor = self.cursor;
        // Completion wakes: every connection the server enqueued or
        // finished work for since the last drain, routed through the
        // kernel so the trace and counters see them. Frames still on the
        // wire enter the queue first: their arrival is a wake.
        let mut client = self.client.borrow_mut();
        client.enqueue_pending(0);
        // request_id 0 marks a connection-level wake: it covers every
        // response in the connection's ready batch.
        for conn in client.fleet.servers_mut()[0].take_woken() {
            self.kernel.post(self.now, KernelEvent::ResponseLanded { conn, request_id: 0 });
        }
        self.kernel.advance_to(self.now);
        let woken = &mut self.woken;
        woken.clear();
        while let Some(event) = self.kernel.take_ready() {
            match event {
                KernelEvent::ResponseLanded { conn, .. } => woken.push(conn),
                _ => self.kernel.note_spurious(),
            }
        }
        // The woken subset in the total order a full scan serves. A wake
        // whose connection has nothing left to serve (an earlier fetch
        // served it) is spurious.
        woken.sort_by_key(|&conn| match slot_of(conn).filter(|&i| i < n) {
            Some(i) => service_rank(&self.slots, cursor, i),
            None => (true, usize::MAX),
        });
        for _ in 0..client.dispatch(woken) {
            self.kernel.note_spurious();
        }
        // Marks recorded during the pump refer to responses the pump
        // itself delivered; drop them so they don't wake next tick.
        let _ = client.fleet.servers_mut()[0].take_woken();
        client.advance_to(at);
        // Every landed response goes into its session's store now, so the
        // client's request table keeps only requests still on their way.
        woken.clear();
        woken.extend(client.landed_conns());
        drop(client);
        for &conn in woken.iter() {
            if let Some(slot) = slot_of(conn).and_then(|i| self.slots.get_mut(i)) {
                slot.session.store_mut().collect();
            }
        }
    }

    /// The event kernel's counters: events fired, timers armed, spurious
    /// wakes, and the ready queue's high-water mark.
    pub fn kernel_stats(&self) -> KernelStats {
        self.kernel.stats()
    }

    /// Drains the kernel's trace ring as a JSON array (see
    /// [`Kernel::drain_trace_json`]).
    pub fn drain_kernel_trace(&mut self) -> String {
        self.kernel.drain_trace_json()
    }

    /// Takes the events `key`'s session produced during ticks since the
    /// last drain.
    pub fn drain_events(&mut self, key: SessionKey) -> Result<Vec<BrowseEvent>> {
        let slot = self.slots.get_mut(key.0).ok_or_else(|| no_slot(key))?;
        slot.catch_up(self.now);
        Ok(std::mem::take(&mut slot.events))
    }

    /// Total simulated time across the whole scheduled group.
    pub fn elapsed(&self) -> SimDuration {
        self.client.borrow().elapsed()
    }

    /// Shared-link transfer statistics.
    pub fn link_stats(&self) -> LinkStats {
        self.client.borrow().link_stats()
    }

    /// Makes `key`'s connection misbehave according to `plan` from now on
    /// (a clean plan heals the connection). Every other session's frames
    /// stay untouched: faults are scoped to one connection's traffic, never
    /// to the shared link itself.
    pub fn inject_faults(&mut self, key: SessionKey, plan: FaultPlan) -> Result<()> {
        self.slots.get(key.0).ok_or_else(|| no_slot(key))?;
        self.client.borrow_mut().set_faults(conn_of(key.0), plan);
        Ok(())
    }

    /// What the fault layer did to `key`'s connection so far (zeros for a
    /// connection that was never injected).
    pub fn fault_stats(&self, key: SessionKey) -> Result<FaultStats> {
        self.slots.get(key.0).ok_or_else(|| no_slot(key))?;
        Ok(self.client.borrow().conn_faults(conn_of(key.0)))
    }

    /// The shared server's service-loop accounting.
    pub fn service_stats(&self) -> ServiceStats {
        self.client.borrow().fleet.servers()[0].service_stats().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_corpus::objects::archived_form;
    use minos_corpus::{audio_xray_report, medical_report, subway_map_object};
    use minos_object::Anchor;

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
    fn probing_hint_targets_moves_no_frames() {
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);
        let mut sched = SessionScheduler::new(corpus_server(), Link::ethernet());
        // Opening the map announces both overlays; the admission probe
        // before the second prefetch must leave the first on the wire.
        sched.open(ObjectId::new(3), config, page).unwrap();
        let client = sched.client.borrow();
        assert_eq!(client.in_transit(0), 2, "both prefetch frames still in transit");
        assert_eq!(client.fleet.servers()[0].pending_frames(), 0, "nothing queued yet");
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
    fn lost_frames_leave_no_stale_request_in_the_client() {
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);
        let mut sched = SessionScheduler::new(corpus_server(), Link::ethernet());
        let (key, _) = sched.open(ObjectId::new(3), config, page).unwrap();
        sched.inject_faults(key, FaultPlan::dropping(21, 0.5)).unwrap();
        // At this loss rate a selection can exhaust its retries and fail;
        // succeeded or not, no command may leave a request behind.
        for _ in 0..20 {
            let _ = sched.apply(key, BrowseCommand::SelectRelevant(0));
            let _ = sched.apply(key, BrowseCommand::ReturnFromRelevant);
            sched.tick(SimDuration::from_secs(1));
        }
        assert!(sched.fault_stats(key).unwrap().dropped > 0, "the plan dropped frames");
        // Long enough for every prefetch still retransmitting to land or
        // run out of retries: the ticks collect both outcomes.
        for _ in 0..15 {
            sched.tick(SimDuration::from_secs(1));
        }
        let client = sched.client.borrow();
        assert_eq!(client.fleet.servers()[0].pending_frames(), 0);
        assert_eq!(client.in_flight(), 0, "requests still open");
        assert_eq!(client.landed_conns().count(), 0, "responses left uncollected");
        assert_eq!(client.settled_slots(), 0, "slots kept after their responses landed");
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
    fn a_fetch_lost_on_the_wire_is_a_protocol_error_not_an_unknown_object() {
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);
        let mut sched = SessionScheduler::new(corpus_server(), Link::ethernet());
        let (key, _) = sched.open(ObjectId::new(3), config, page).unwrap();
        sched.inject_faults(key, FaultPlan::dropping(5, 1.0)).unwrap();
        // Every attempt is lost, yet the server holds the object.
        let before = sched.elapsed();
        let selected = sched.apply(key, BrowseCommand::SelectRelevant(0));
        assert!(matches!(selected, Err(MinosError::Protocol(_))), "{:?}", selected.err());
        let client = sched.client.borrow();
        assert!(client.fleet.servers()[0].resident_object(ObjectId::new(4)).is_some());
        // The client found each loss at its deadline: 500 ms, doubling to
        // the 4 s cap, over the first send and four retransmits.
        let deadlines = SimDuration::from_millis(500 + 1_000 + 2_000 + 4_000 + 4_000);
        let waited = sched.elapsed() - before;
        assert!(waited >= deadlines, "gave up after {waited:?}");
    }

    #[test]
    fn an_idle_sessions_landed_prefetch_leaves_the_request_table() {
        // The map session opens, announces its two overlays and then
        // idles while the others browse. The client's request ids are one
        // space across connections and its table pops only from the
        // oldest, so an overlay left uncollected would pin the table
        // behind it; each tick takes it into the map's store instead.
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);
        let mut sched = SessionScheduler::new(corpus_server(), Link::ethernet());
        let (map, _) = sched.open(ObjectId::new(3), config, page).unwrap();
        let (report, _) = sched.open(ObjectId::new(1), config, page).unwrap();
        let (audio, _) = sched.open(ObjectId::new(2), config, page).unwrap();
        for step in 0..6 {
            let key = if step % 2 == 0 { report } else { audio };
            let command =
                if key == report { BrowseCommand::NextPage } else { BrowseCommand::Interrupt };
            let _ = sched.apply(key, command);
            sched.tick(SimDuration::from_secs(1));
        }
        let map_store = sched.session(map).unwrap().store();
        assert!(map_store.pending.is_empty(), "the overlays are still on the wire");
        assert_eq!(map_store.answers.len(), 2, "both overlays landed in the idle store");
        {
            let client = sched.client.borrow();
            assert_eq!(client.landed_conns().count(), 0, "a landed response left in the table");
            assert_eq!(client.settled_slots(), 0, "the table keeps only unlanded requests");
        }
        let waited = sched.session(map).unwrap().store().waited();
        sched.apply(map, BrowseCommand::SelectRelevant(0)).unwrap();
        assert_eq!(sched.session(map).unwrap().store().waited(), waited, "the overlay was local");
    }

    #[test]
    fn a_refused_object_is_not_prefetched_again() {
        // The server does not hold the University overlay: the open's
        // prefetch of it lands a refusal, which settles the object until a
        // demand fetch reads it. Paging the map, whose indicators stay
        // visible, asks the server for nothing more.
        let mut server = ObjectServer::new();
        let (map, overlays) =
            subway_map_object(ObjectId::new(3), ObjectId::new(4), ObjectId::new(5), 11);
        for object in std::iter::once(map).chain(overlays.into_iter().take(1)) {
            let archived = archived_form(&object);
            server.publish(object, &archived).unwrap();
        }
        let config = PaginateConfig::default();
        let mut sched = SessionScheduler::new(server, Link::ethernet());
        let (key, _) = sched.open(ObjectId::new(3), config, SimDuration::from_secs(5)).unwrap();
        for _ in 0..4 {
            sched.tick(SimDuration::from_secs(1));
        }
        let (enqueued, messages) = (sched.service_stats().enqueued, sched.link_stats().messages);
        for _ in 0..10 {
            let _ = sched.apply(key, BrowseCommand::NextPage);
            sched.tick(SimDuration::from_secs(1));
        }
        assert_eq!(sched.service_stats().enqueued, enqueued, "a settled object was prefetched");
        assert_eq!(sched.link_stats().messages, messages);
        // The refusal kept is the demand fetch's answer.
        let entered = sched.apply(key, BrowseCommand::SelectRelevant(1));
        assert!(matches!(entered, Err(MinosError::UnknownObject(_))), "{entered:?}");
        assert_eq!(sched.link_stats().messages, messages, "the refusal was on hand");
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
        // sessions have settled, the same ticks and commands fire exactly
        // the kernel work they fire without them — an idle session arms no
        // deadline and is never woken. Idle means a text reader, an
        // interrupted voice session or a finished one alike.
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);
        let run = |idle: usize| {
            let mut sched = SessionScheduler::new(corpus_server(), Link::ethernet());
            let (map, _) = sched.open(ObjectId::new(3), config, page).unwrap();
            let (audio, _) = sched.open(ObjectId::new(2), config, page).unwrap();
            let (report, _) = sched.open(ObjectId::new(1), config, page).unwrap();
            let mut voices = Vec::new();
            for i in 0..idle {
                let object = if i % 3 == 0 { 1 } else { 2 };
                let (key, _) = sched.open(ObjectId::new(object), config, page).unwrap();
                // One voice session in two is interrupted at once; the other
                // plays its last page and finishes while the opens settle.
                let command = match i % 3 {
                    0 => continue,
                    1 => BrowseCommand::Interrupt,
                    _ => BrowseCommand::AdvancePages(100),
                };
                sched.apply(key, command).unwrap();
                voices.push(key);
            }
            // Let every open's fetches and anticipations land and every
            // idle voice session finish.
            for _ in 0..6 {
                sched.tick(SimDuration::from_secs(1));
            }
            for &key in &voices {
                let state = sched.session(key).unwrap().audio().unwrap().state();
                assert_ne!(state, PlaybackState::Playing, "an idle voice session still plays");
            }
            let before = sched.kernel_stats();
            sched.apply(map, BrowseCommand::SelectRelevant(0)).unwrap();
            sched.tick(SimDuration::from_secs(1));
            sched.apply(report, BrowseCommand::NextPage).unwrap();
            // The active voice session crosses into its third page here.
            for _ in 0..6 {
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
        // The in-module equivalence smoke (the fuzzed golden streams live
        // in tests/command_fuzz.rs): same sessions, same commands, same
        // ticks — byte-identical events, transfer accounting and simulated
        // time to the fixture recorded from the full-rotation scan the
        // event-driven tick replaced. Its voice session is interrupted
        // before its end, so reporting the end once left it unchanged.
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);
        let mut sched = SessionScheduler::new(corpus_server(), Link::ethernet());
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
        let mut record: String = events.iter().map(|e| format!("{e:?}\n")).collect();
        record.push_str(&format!(
            "link {:?}\nelapsed_us {}\n",
            sched.link_stats(),
            sched.elapsed().as_micros()
        ));
        assert_eq!(record, include_str!("../../../tests/fixtures/sched_tick_stream.txt"));
        // The tick goes through the event kernel.
        assert!(sched.kernel_stats().events_fired > 0);
    }

    #[test]
    fn ticks_around_transport_work_produce_the_recorded_stream() {
        // Short ticks around every kind of transport work a tick can find
        // on the client, pinned to a fixture recorded from the tick that
        // ran the whole transport pump every time: prefetches still on the
        // wire across several ticks, the University overlay unknown to the
        // server (its prefetch lands an error), frames lost on a dropping
        // connection and retransmitted at deadlines inside idle ticks,
        // server restarts, and a full queue under caps of one, where a
        // demand fetch sheds a queued prefetch that comes back `Busy` and
        // is resubmitted later.
        let mut server = ObjectServer::new();
        let report = medical_report(ObjectId::new(1), 42);
        let dictation = audio_xray_report(ObjectId::new(2), 7);
        let (map, overlays) =
            subway_map_object(ObjectId::new(3), ObjectId::new(4), ObjectId::new(5), 11);
        for object in [report, dictation, map].into_iter().chain(overlays.into_iter().take(1)) {
            let archived = archived_form(&object);
            server.publish(object, &archived).unwrap();
        }
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);
        let tick = SimDuration::from_millis(20);
        let mut sched = SessionScheduler::new(server, Link::ethernet());
        let mut record = String::new();
        let mut note = |what: &str, events: &dyn std::fmt::Debug| {
            record.push_str(&format!("{what} {events:?}\n"));
        };
        let (map, events) = sched.open(ObjectId::new(3), config, page).unwrap();
        note("open map", &events);
        let (audio, events) = sched.open(ObjectId::new(2), config, page).unwrap();
        note("open audio", &events);
        let (report, events) = sched.open(ObjectId::new(1), config, page).unwrap();
        note("open report", &events);
        let ticks = |sched: &mut SessionScheduler, n: usize| {
            for _ in 0..n {
                sched.tick(tick);
            }
        };
        ticks(&mut sched, 40);
        note("select hospitals", &sched.apply(map, BrowseCommand::SelectRelevant(0)));
        note("return", &sched.apply(map, BrowseCommand::ReturnFromRelevant));
        note("select university", &sched.apply(map, BrowseCommand::SelectRelevant(1)));
        ticks(&mut sched, 10);
        // Every frame of the map's connection is lost: the prefetch its
        // return announces retransmits at each deadline, inside ticks
        // where nothing else happens, until the client gives it up.
        sched.inject_faults(map, FaultPlan::dropping(9, 1.0)).unwrap();
        note("select hospitals", &sched.apply(map, BrowseCommand::SelectRelevant(0)));
        note("return", &sched.apply(map, BrowseCommand::ReturnFromRelevant));
        ticks(&mut sched, 300);
        note("map faults", &sched.fault_stats(map).unwrap());
        // Half the frames are lost: some prefetches land, some retry.
        sched.inject_faults(map, FaultPlan::dropping(9, 0.5)).unwrap();
        note("select hospitals", &sched.apply(map, BrowseCommand::SelectRelevant(0)));
        note("return", &sched.apply(map, BrowseCommand::ReturnFromRelevant));
        ticks(&mut sched, 120);
        note("map faults", &sched.fault_stats(map).unwrap());
        sched.inject_faults(map, FaultPlan::none()).unwrap();
        note("next page", &sched.apply(report, BrowseCommand::NextPage));
        ticks(&mut sched, 40);
        // The server restarts while nothing is in flight, and again while
        // the map's prefetch is on the wire: the next tick re-handshakes,
        // and replays what the restart lost.
        sched.client.borrow_mut().fleet.servers_mut()[0].restart();
        ticks(&mut sched, 5);
        note("select hospitals", &sched.apply(map, BrowseCommand::SelectRelevant(0)));
        note("return", &sched.apply(map, BrowseCommand::ReturnFromRelevant));
        sched.client.borrow_mut().fleet.servers_mut()[0].restart();
        ticks(&mut sched, 20);
        note("transport", &sched.client.borrow().transport_stats());
        // Caps of one: the return's prefetch is queued when a new
        // session's demand fetch arrives, and is shed for it.
        sched.set_service_config(ServiceConfig {
            per_conn_cap: 1,
            global_cap: 1,
            ..ServiceConfig::default()
        });
        note("select hospitals", &sched.apply(map, BrowseCommand::SelectRelevant(0)));
        note("return", &sched.apply(map, BrowseCommand::ReturnFromRelevant));
        let (second_map, events) = sched.open(ObjectId::new(3), config, page).unwrap();
        note("open second map", &events);
        ticks(&mut sched, 40);
        note("select hospitals", &sched.apply(second_map, BrowseCommand::SelectRelevant(0)));
        note("interrupt", &sched.apply(audio, BrowseCommand::Interrupt));
        ticks(&mut sched, 40);
        for key in [map, audio, report, second_map] {
            note("drained", &sched.drain_events(key).unwrap());
        }
        note("service", &sched.service_stats());
        record.push_str(&format!(
            "link {:?}\nelapsed_us {}\n",
            sched.link_stats(),
            sched.elapsed().as_micros()
        ));
        assert_eq!(record, include_str!("../../../tests/fixtures/sched_transport_stream.txt"));
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
    fn audio_wakes_fire_only_at_observable_changes() {
        // The scheduler kernel's observability for a fixed script. The
        // voice session's wakes fire only where a tick end would sample
        // something new: its page crossings, the x-ray anchor's entry and
        // exit, and its end. Each fires at the first tick end at or after
        // it and re-arms the next. Connection wakes arm and fire at the
        // tick instant, after the audio.
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);
        let mut sched = SessionScheduler::new(corpus_server(), Link::ethernet());
        let (map, _) = sched.open(ObjectId::new(3), config, page).unwrap();
        let (audio, _) = sched.open(ObjectId::new(2), config, page).unwrap();
        let (report, _) = sched.open(ObjectId::new(1), config, page).unwrap();
        let dictation = audio_xray_report(ObjectId::new(2), 7);
        let end = dictation.voice_segments[0].duration().as_micros();
        let Anchor::VoiceSegment { span, .. } = dictation.messages[0].anchor else {
            panic!("the x-ray is anchored to a voice span");
        };
        let page_us = page.as_micros();
        let mut changes: Vec<u64> = (1..).map(|p| p * page_us).take_while(|&t| t < end).collect();
        changes.extend([span.start.as_micros(), span.end.as_micros(), end]);
        changes.sort_unstable();
        let next_change = |after: u64| changes.iter().copied().find(|&t| t > after);
        let first = next_change(0).unwrap();
        assert_eq!(
            trace_records(&sched.drain_kernel_trace()),
            [(first, "arm".to_string(), "AudioDeadline".to_string())],
            "opening arms only the voice session's first change"
        );
        let script = [
            (report, BrowseCommand::NextPage),
            (map, BrowseCommand::SelectRelevant(0)),
            (report, BrowseCommand::NextPage),
            (map, BrowseCommand::ReturnFromRelevant),
            (report, BrowseCommand::PreviousPage),
            (map, BrowseCommand::SelectRelevant(1)),
        ];
        let tick = SimDuration::from_millis(500);
        let ticks = end.div_ceil(tick.as_micros()) + 4;
        let (mut at, mut synced) = (0u64, 0u64);
        let (mut audio_fires, mut conn_posts) = (Vec::new(), 0);
        for step in 0..ticks {
            if let Some((key, command)) = script.get(step as usize) {
                sched.apply(*key, command.clone()).unwrap();
            }
            assert!(sched.session(audio).unwrap().audio().is_some(), "audio stays audio");
            sched.tick(tick);
            at += tick.as_micros();
            let records = trace_records(&sched.drain_kernel_trace());
            // The voice session is due when a change lies in the time it
            // played since its last wake; the wake re-arms the next one.
            let mut expected = Vec::new();
            if let Some(due) = next_change(synced).filter(|&t| t <= at) {
                expected.push((due, "fire", "AudioDeadline"));
                expected.extend(next_change(at).map(|next| (next, "arm", "AudioDeadline")));
                audio_fires.push(due);
                synced = at;
            }
            let c = records.iter().filter(|r| r.1 == "arm" && r.2 == "ResponseLanded").count();
            expected.extend(std::iter::repeat_n((at, "arm", "ResponseLanded"), c));
            expected.extend(std::iter::repeat_n((at, "fire", "ResponseLanded"), c));
            let got: Vec<(u64, &str, &str)> =
                records.iter().map(|r| (r.0, r.1.as_str(), r.2.as_str())).collect();
            assert_eq!(got, expected, "tick {step}");
            conn_posts += c as u64;
        }
        assert_eq!(audio_fires.len(), 10, "7 page crossings, the anchor's entry and exit, the end");
        assert_eq!(audio_fires.last(), Some(&end));
        assert!(conn_posts > 0, "the script's fetches woke their connections");
        // Per-tick polling posted 77 audio deadlines here, one per tick.
        // The spurious wakes are connection wakes whose responses an
        // earlier pump had already served.
        assert_eq!(
            sched.kernel_stats(),
            KernelStats {
                events_fired: 14,
                timers_armed: 14,
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

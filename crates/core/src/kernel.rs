//! The discrete-event simulation kernel: a timer heap, a ready queue of
//! typed wake events, and a ring-buffered trace log.
//!
//! The paper's presentation manager interleaves many concurrent text and
//! voice sessions against shared devices. Polling every session per tick
//! makes simulated wall-time grow with N even when almost all sessions
//! are idle; the kernel inverts that: consumers *arm* deadlines
//! (retransmit timers, voice sessions' next changes, page dwells) and the
//! simulation advances directly from one armed instant to the next, so an
//! idle session costs zero work and per-event cost is independent of N.
//!
//! Timers fire in deadline order and, at one instant, in the order they
//! were armed. A timer armed for a later instant goes into a binary heap
//! keyed by (deadline, arm order); one armed for the current instant or
//! earlier joins a FIFO of due timers instead, so the wakes a consumer
//! posts for the instant it is at cost one push and one pop. Arming a
//! future timer costs O(log n) in the timers pending, which stay few: a
//! client keeps one retransmit timer for all of its connections, armed for
//! the earliest deadline, and one heartbeat per member. Cancelling a timer
//! takes it out of the due list or the heap at once, in O(n) over those
//! few, so every timer pending is live and the heap's top is always the
//! exact next deadline.
//!
//! The kernel's clock is its consumer's clock: a client moves simulated
//! time only through [`Kernel::advance_to`], so every timer it passes
//! fires onto the ready queue on the way.
//!
//! Beside the kernel's clock sits the `Timeline`, the one rule for a
//! serially-reusable resource (a wire direction, a device): a booking
//! starts at the later of its ready instant and the instant the resource
//! frees.

use minos_types::{SimDuration, SimInstant};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt::Write as _;

/// Handle to an armed timer, returned by [`Kernel::arm`] and accepted by
/// [`Kernel::cancel`]. Ids are never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// A typed kernel event: why a consumer is being woken.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelEvent {
    /// A server response finished arriving for connection `conn`.
    ResponseLanded {
        /// The connection the response belongs to.
        conn: u64,
        /// The request the response answers.
        request_id: u64,
    },
    /// A generic consumer deadline keyed by the consumer's own `key`.
    DeadlineFired {
        /// Consumer-chosen correlation key.
        key: u64,
    },
    /// A connection's retransmit timer expired: the earliest deadline of
    /// its in-flight requests, when the timer was armed, has passed.
    RetryDue {
        /// The request whose deadline the timer was armed for.
        request_id: u64,
        /// That request's attempt count when the timer was armed.
        attempt: u32,
    },
    /// An audio session's next observable change is due: a page crossing,
    /// a message anchor's entry or exit, or the end of its part.
    AudioDeadline {
        /// Scheduler slot index of the session.
        session: u64,
    },
    /// A paced session's dwell elapsed — a text reader's reading time or
    /// an audio session's playback period: its next page is due.
    PageDue {
        /// Consumer-chosen session tag.
        session: u64,
    },
    /// A fleet member has request frames due to arrive: the service pump
    /// should visit that member (and drain its wake list) at this instant.
    ServerWake {
        /// Fleet index of the member to pump.
        member: u64,
    },
    /// The health monitor's heartbeat interval elapsed for a member: a
    /// `Ping` is due (and the previous one's silence is a miss).
    HealthTick {
        /// Fleet index of the member to ping.
        member: u64,
    },
    /// A throttled repair-queue slot opened: the re-replication pump may
    /// start the next repair task.
    RepairDue {
        /// Repair-queue task tag (consumer-chosen).
        task: u64,
    },
    /// A hedge delay expired with the original request still in flight: a
    /// speculative duplicate should be fired at a sibling replica.
    HedgeFire {
        /// The outstanding request being hedged.
        request_id: u64,
    },
}

/// Kernel counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Events delivered onto the ready queue.
    pub events_fired: u64,
    /// Timers armed over the kernel's lifetime.
    pub timers_armed: u64,
    /// Wakes that found nothing to do, as consumers note them via
    /// [`Kernel::note_spurious`]: the event fired, but the state it
    /// referred to had already moved on.
    pub spurious_wakes: u64,
    /// High-water mark of the ready-queue depth.
    pub ready_high_water: u64,
}

/// One armed timer: its deadline in ticks of 1 µs ([`SimInstant::as_micros`]
/// maps 1:1 onto ticks, so deadlines fire at their exact instant), its id,
/// and the event it delivers. Ids grow in arm order and are unique, so the
/// tuple's order is firing order and the event never decides it.
type Timer = (u64, u64, KernelEvent);

/// One trace record: when (ticks), what happened, and to which event.
#[derive(Clone, Copy, Debug)]
struct TraceRecord {
    at: u64,
    verb: &'static str,
    event: KernelEvent,
}

/// Ring-buffered structured event trace riding on the kernel's event
/// stream; the oldest records are dropped when the ring is full, and the
/// whole ring drains as a JSON array for offline stall analysis.
#[derive(Default)]
struct TraceLog {
    ring: VecDeque<TraceRecord>,
}

/// Trace-ring capacity: enough for a stall window, small enough that a
/// 10k-session run never grows it.
const TRACE_CAP: usize = 1024;

impl TraceLog {
    /// Appends one record, evicting the oldest once the ring holds
    /// [`TRACE_CAP`].
    fn record(&mut self, at: u64, verb: &'static str, event: KernelEvent) {
        if self.ring.len() == TRACE_CAP {
            self.ring.pop_front();
        }
        self.ring.push_back(TraceRecord { at, verb, event });
    }

    /// Drains the ring as one JSON array (oldest record first). The ring
    /// holds at most [`TRACE_CAP`] records, so one line's worth of bytes is
    /// reserved per record.
    fn drain_json(&mut self) -> String {
        let mut out = String::with_capacity(self.ring.len() * 64 + 2);
        out.push('[');
        let mut first = true;
        while let Some(rec) = self.ring.pop_front() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{{\"at_us\":{},\"verb\":\"{}\",", rec.at, rec.verb);
            event_json(&rec.event, &mut out);
            out.push('}');
        }
        out.push(']');
        out
    }
}

/// Writes the `"event"` discriminant plus the variant's fields.
fn event_json(event: &KernelEvent, out: &mut String) {
    let _ = match event {
        KernelEvent::ResponseLanded { conn, request_id } => {
            write!(out, "\"event\":\"ResponseLanded\",\"conn\":{conn},\"request_id\":{request_id}")
        }
        KernelEvent::DeadlineFired { key } => {
            write!(out, "\"event\":\"DeadlineFired\",\"key\":{key}")
        }
        KernelEvent::RetryDue { request_id, attempt } => {
            write!(out, "\"event\":\"RetryDue\",\"request_id\":{request_id},\"attempt\":{attempt}")
        }
        KernelEvent::AudioDeadline { session } => {
            write!(out, "\"event\":\"AudioDeadline\",\"session\":{session}")
        }
        KernelEvent::PageDue { session } => {
            write!(out, "\"event\":\"PageDue\",\"session\":{session}")
        }
        KernelEvent::ServerWake { member } => {
            write!(out, "\"event\":\"ServerWake\",\"member\":{member}")
        }
        KernelEvent::HealthTick { member } => {
            write!(out, "\"event\":\"HealthTick\",\"member\":{member}")
        }
        KernelEvent::RepairDue { task } => {
            write!(out, "\"event\":\"RepairDue\",\"task\":{task}")
        }
        KernelEvent::HedgeFire { request_id } => {
            write!(out, "\"event\":\"HedgeFire\",\"request_id\":{request_id}")
        }
    };
}

/// The event kernel: a timer heap, a due FIFO, a ready queue, a trace
/// ring, and the counter block. Consumers arm deadlines, advance simulated
/// time, and drain the ready queue; nothing idle is ever visited.
#[derive(Default)]
pub struct Kernel {
    /// Current time in ticks.
    now: u64,
    /// Timers armed for after `now`, earliest deadline (then first armed)
    /// on top.
    future: BinaryHeap<Reverse<Timer>>,
    /// Timers armed for `now` or earlier, in arm order: they fire on the
    /// next advance, ahead of every timer in `future`.
    due: VecDeque<Timer>,
    ready: VecDeque<KernelEvent>,
    trace: TraceLog,
    stats: KernelStats,
    next_timer: u64,
}

impl Kernel {
    /// A fresh kernel at tick 0 with nothing armed.
    pub fn new() -> Self {
        Kernel::default()
    }

    /// Current kernel time.
    pub fn now(&self) -> SimInstant {
        SimInstant::from_micros(self.now)
    }

    /// Arms a timer delivering `event` at `at` (immediately, if `at` has
    /// already passed) and returns a handle for cancellation.
    pub fn arm(&mut self, at: SimInstant, event: KernelEvent) -> TimerId {
        let id = self.next_timer;
        self.next_timer += 1;
        self.stats.timers_armed += 1;
        let deadline = at.as_micros();
        self.trace.record(deadline, "arm", event);
        if deadline <= self.now {
            self.due.push_back((deadline, id, event));
        } else {
            self.future.push(Reverse((deadline, id, event)));
        }
        TimerId(id)
    }

    /// [`Kernel::arm`] without keeping the cancellation handle — for
    /// events that always want delivering, like a landed response.
    pub fn post(&mut self, at: SimInstant, event: KernelEvent) {
        let _ = self.arm(at, event);
    }

    /// Cancels an armed timer: it leaves the due list or the heap at once
    /// and never fires. Cancelling a fired (or unknown) timer is a no-op.
    pub fn cancel(&mut self, id: TimerId) {
        if let Some(at) = self.due.iter().position(|&(_, armed, _)| armed == id.0) {
            self.due.remove(at);
        } else {
            self.future.retain(|Reverse((_, armed, _))| *armed != id.0);
        }
    }

    /// The earliest instant at which anything is to be handled: `now` when
    /// timers are already due or a fired event waits on the ready queue,
    /// otherwise the earliest armed deadline.
    pub fn next_deadline(&self) -> Option<SimInstant> {
        if !self.due.is_empty() || !self.ready.is_empty() {
            return Some(self.now());
        }
        self.future.peek().map(|Reverse((deadline, ..))| SimInstant::from_micros(*deadline))
    }

    /// Advances kernel time to `at` (never backwards), firing every timer
    /// whose deadline is reached onto the ready queue: the due list first,
    /// then the heap in (deadline, arm order).
    pub fn advance_to(&mut self, at: SimInstant) {
        self.now = self.now.max(at.as_micros());
        while let Some(timer) = self.due.pop_front() {
            self.fire(timer);
        }
        loop {
            let Some(top) = self.future.peek_mut().filter(|top| top.0 .0 <= self.now) else {
                break;
            };
            let Reverse(timer) = PeekMut::pop(top);
            self.fire(timer);
        }
    }

    /// Delivers one reached timer onto the ready queue.
    fn fire(&mut self, (deadline, _, event): Timer) {
        self.stats.events_fired += 1;
        self.trace.record(deadline, "fire", event);
        self.admit_ready(event);
    }

    /// Admits one fired event onto the ready queue. The queue is drained
    /// in lockstep by the consumer each advance; its high-water mark is
    /// the capacity signal [`KernelStats`] reports.
    fn admit_ready(&mut self, event: KernelEvent) {
        self.ready.push_back(event);
        let depth = self.ready.len() as u64;
        self.stats.ready_high_water = self.stats.ready_high_water.max(depth);
    }

    /// Pops the next ready event, oldest deadline first.
    pub fn take_ready(&mut self) -> Option<KernelEvent> {
        self.ready.pop_front()
    }

    /// Notes a consumer-detected spurious wake: the event fired but the
    /// state it referred to had already moved on.
    pub fn note_spurious(&mut self) {
        self.stats.spurious_wakes += 1;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Drains the trace ring as a JSON array of `{at_us, verb, event, …}`
    /// records (oldest first; `verb` is `arm` or `fire`).
    pub fn drain_trace_json(&mut self) -> String {
        self.trace.drain_json()
    }
}

/// A serially-reusable resource — one direction of the wire, one device —
/// kept as the instant it next frees. A booking starts once it is ready
/// and the resource is free, and holds the resource until it ends, so
/// bookings queue behind each other in the order they are made.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Timeline {
    free: SimInstant,
}

impl Timeline {
    /// Books the resource for `took`, starting at the later of `ready` and
    /// the instant it frees. Returns the booking's start and end.
    pub(crate) fn book(
        &mut self,
        ready: SimInstant,
        took: SimDuration,
    ) -> (SimInstant, SimInstant) {
        let start = ready.max(self.free);
        self.free = start + took;
        (start, self.free)
    }

    /// The instant the last booking ends.
    pub(crate) fn free_at(&self) -> SimInstant {
        self.free
    }

    /// Frees the resource at `at`, whatever it was booked for: a restarted
    /// member's device drops the work its old incarnation had queued.
    pub(crate) fn release(&mut self, at: SimInstant) {
        self.free = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn ev(key: u64) -> KernelEvent {
        KernelEvent::DeadlineFired { key }
    }

    /// Drives the kernel to `target`, collecting (deadline-bounded) fired
    /// events in order via the next_deadline/advance loop consumers use.
    /// Every instant `next_deadline` names must deliver an event.
    fn run_to(kernel: &mut Kernel, target: u64) -> Vec<(u64, KernelEvent)> {
        let mut fired = Vec::new();
        let target = SimInstant::from_micros(target);
        while let Some(at) = kernel.next_deadline() {
            if at > target {
                break;
            }
            let before = fired.len();
            kernel.advance_to(at);
            while let Some(event) = kernel.take_ready() {
                fired.push((kernel.now().as_micros(), event));
            }
            assert_ne!(before, fired.len(), "nothing fired at {at:?}");
        }
        kernel.advance_to(target);
        while let Some(event) = kernel.take_ready() {
            fired.push((kernel.now().as_micros(), event));
        }
        fired
    }

    #[test]
    fn timers_fire_at_their_exact_deadline_in_order() {
        let mut k = Kernel::new();
        // Deadlines from 5 µs to 0.3 s, plus a same-tick pair.
        for (at, key) in [(5u64, 0u64), (70, 1), (70, 2), (5_000, 3), (300_000, 4)] {
            k.arm(SimInstant::from_micros(at), ev(key));
        }
        let fired = run_to(&mut k, 1_000_000);
        let got: Vec<(u64, u64)> = fired
            .iter()
            .map(|(at, e)| match e {
                KernelEvent::DeadlineFired { key } => (*at, *key),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(got, vec![(5, 0), (70, 1), (70, 2), (5_000, 3), (300_000, 4)]);
        assert_eq!(k.stats().events_fired, 5);
        assert_eq!(k.stats().timers_armed, 5);
        assert_eq!(k.stats().spurious_wakes, 0);
    }

    #[test]
    fn timers_armed_for_one_instant_fire_in_arm_order() {
        // A is armed 4,100 µs ahead, B only 10 µs ahead, for the same
        // instant: A was armed first, so it fires first.
        let mut k = Kernel::new();
        k.arm(SimInstant::from_micros(4_100), ev(1));
        k.advance_to(SimInstant::from_micros(4_090));
        k.arm(SimInstant::from_micros(4_100), ev(2));
        k.advance_to(SimInstant::from_micros(4_100));
        assert_eq!(k.take_ready(), Some(ev(1)));
        assert_eq!(k.take_ready(), Some(ev(2)));
        assert_eq!(k.take_ready(), None);
    }

    #[test]
    fn fires_exactly_as_a_sorted_map_reference_under_fuzz() {
        // LCG-driven arms and advances, compared against a BTreeMap
        // reference: the same events at the same instants, in (deadline,
        // arm order).
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut k = Kernel::new();
        let mut reference: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut now = 0u64;
        let mut next_key = 0u64;
        let mut fired: Vec<(u64, u64)> = Vec::new();
        for _ in 0..2_000 {
            if rng() % 4 != 0 {
                // Deltas up to 2^25 µs (33.5 s), and arms for the current
                // instant (0).
                let delta = match rng() % 5 {
                    0 => rng() % 64,
                    1 => rng() % 4_096,
                    2 => rng() % 262_144,
                    3 => rng() % (1 << 25),
                    _ => 0,
                };
                let key = next_key;
                next_key += 1;
                k.arm(SimInstant::from_micros(now + delta), ev(key));
                reference.entry(now + delta).or_default().push(key);
            } else {
                now += rng() % 100_000;
                for (at, e) in run_to(&mut k, now) {
                    match e {
                        KernelEvent::DeadlineFired { key } => fired.push((at, key)),
                        other => panic!("unexpected {other:?}"),
                    }
                }
                let mut expected: Vec<(u64, u64)> = Vec::new();
                let rest = reference.split_off(&(now + 1));
                for (at, keys) in &reference {
                    for key in keys {
                        expected.push((*at, *key));
                    }
                }
                reference = rest;
                assert_eq!(fired, expected, "at tick {now}");
                fired.clear();
            }
        }
        assert!(k.stats().events_fired > 100, "fuzz actually fired");
    }

    #[test]
    fn a_cancelled_timer_leaves_at_once() {
        let mut k = Kernel::new();
        let keep = k.arm(SimInstant::from_micros(100), ev(1));
        let early = k.arm(SimInstant::from_micros(50), ev(2));
        // Armed for the current instant: it waits on the due list.
        let due = k.arm(SimInstant::EPOCH, ev(3));
        k.cancel(due);
        k.cancel(early);
        assert_eq!(k.next_deadline(), Some(SimInstant::from_micros(100)));
        let fired = run_to(&mut k, 200);
        assert_eq!(fired, vec![(100, ev(1))]);
        assert_eq!(k.stats().events_fired, 1);
        assert_eq!(k.stats().spurious_wakes, 0);
        // Cancelling a fired or unknown timer is a no-op.
        let later = k.arm(SimInstant::from_micros(300), ev(4));
        k.cancel(keep);
        k.cancel(early);
        k.cancel(TimerId(u64::MAX));
        assert_eq!(k.next_deadline(), Some(SimInstant::from_micros(300)));
        k.cancel(later);
        assert_eq!(k.next_deadline(), None);
        assert_eq!(k.stats().events_fired, 1);
        assert_eq!(k.stats().spurious_wakes, 0);
    }

    #[test]
    fn a_fired_event_waiting_on_the_ready_queue_is_due_now() {
        let mut k = Kernel::new();
        k.arm(SimInstant::from_micros(10), ev(1));
        k.advance_to(SimInstant::from_micros(20));
        assert_eq!(k.next_deadline(), Some(SimInstant::from_micros(20)));
        assert_eq!(k.take_ready(), Some(ev(1)));
        assert_eq!(k.next_deadline(), None);
    }

    #[test]
    fn past_deadlines_fire_on_the_next_advance() {
        let mut k = Kernel::new();
        k.advance_to(SimInstant::from_micros(500));
        // Time never rewinds: an earlier instant leaves the clock where it is.
        k.advance_to(SimInstant::from_micros(100));
        assert_eq!(k.now(), SimInstant::from_micros(500));
        k.arm(SimInstant::from_micros(10), ev(7));
        assert_eq!(k.next_deadline(), Some(SimInstant::from_micros(500)));
        k.advance_to(SimInstant::from_micros(500));
        assert_eq!(k.take_ready(), Some(ev(7)));
    }

    #[test]
    fn beyond_horizon_deadlines_still_fire_exactly() {
        let mut k = Kernel::new();
        let far = 30_000_000u64; // 30 s: a long deadline
        k.arm(SimInstant::from_micros(far), ev(9));
        assert!(run_to(&mut k, far - 1).is_empty());
        let fired = run_to(&mut k, far);
        assert_eq!(fired, vec![(far, ev(9))]);
    }

    #[test]
    fn idle_kernel_reports_no_deadline_and_jumps_free() {
        let mut k = Kernel::new();
        assert_eq!(k.next_deadline(), None);
        k.advance_to(SimInstant::from_micros(u64::MAX / 2));
        assert_eq!(k.stats(), KernelStats::default());
        assert_eq!(k.next_deadline(), None);
    }

    #[test]
    fn ready_high_water_tracks_batched_fires() {
        let mut k = Kernel::new();
        for i in 0..5 {
            k.arm(SimInstant::from_micros(50), ev(i));
        }
        k.advance_to(SimInstant::from_micros(50));
        assert_eq!(k.stats().ready_high_water, 5);
        while k.take_ready().is_some() {}
        k.note_spurious();
        assert_eq!(
            k.stats(),
            KernelStats {
                events_fired: 5,
                timers_armed: 5,
                spurious_wakes: 1,
                ready_high_water: 5
            }
        );
    }

    #[test]
    fn trace_ring_drains_as_json_and_drops_oldest() {
        let mut k = Kernel::new();
        k.arm(SimInstant::from_micros(5), KernelEvent::RetryDue { request_id: 42, attempt: 1 });
        k.advance_to(SimInstant::from_micros(5));
        let json = k.drain_trace_json();
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"verb\":\"arm\""), "{json}");
        assert!(json.contains("\"verb\":\"fire\""), "{json}");
        assert!(json.contains("\"event\":\"RetryDue\",\"request_id\":42,\"attempt\":1"), "{json}");
        assert_eq!(k.drain_trace_json(), "[]");
        // Overflow: one arm more than the ring holds drops the oldest.
        for i in 0..=TRACE_CAP as u64 {
            k.arm(SimInstant::from_micros(100 + i), ev(i));
        }
        let json = k.drain_trace_json();
        assert_eq!(json.matches("\"verb\":\"arm\"").count(), TRACE_CAP);
        assert!(!json.contains("\"key\":0}"), "the oldest record was dropped");
    }

    #[test]
    fn every_event_variant_serialises_its_fields() {
        let mut k = Kernel::new();
        let at = SimInstant::from_micros(1);
        k.post(at, KernelEvent::ResponseLanded { conn: 3, request_id: 8 });
        k.post(at, KernelEvent::DeadlineFired { key: 11 });
        k.post(at, KernelEvent::AudioDeadline { session: 2 });
        k.post(at, KernelEvent::RetryDue { request_id: 6, attempt: 2 });
        k.post(at, KernelEvent::PageDue { session: 5 });
        k.post(at, KernelEvent::ServerWake { member: 4 });
        k.post(at, KernelEvent::HealthTick { member: 1 });
        k.post(at, KernelEvent::RepairDue { task: 9 });
        k.post(at, KernelEvent::HedgeFire { request_id: 12 });
        let json = k.drain_trace_json();
        for needle in [
            "\"event\":\"ResponseLanded\",\"conn\":3,\"request_id\":8",
            "\"event\":\"DeadlineFired\",\"key\":11",
            "\"event\":\"AudioDeadline\",\"session\":2",
            "\"event\":\"RetryDue\",\"request_id\":6,\"attempt\":2",
            "\"event\":\"PageDue\",\"session\":5",
            "\"event\":\"ServerWake\",\"member\":4",
            "\"event\":\"HealthTick\",\"member\":1",
            "\"event\":\"RepairDue\",\"task\":9",
            "\"event\":\"HedgeFire\",\"request_id\":12",
        ] {
            assert!(json.contains(needle), "{json}");
        }
    }

    #[test]
    fn timeline_books_queue_and_release() {
        let at = |us| SimInstant::EPOCH + SimDuration::from_micros(us);
        let took = SimDuration::from_micros(10);
        let mut line = Timeline::default();
        // A free resource starts a booking when it is ready.
        assert_eq!(line.book(at(5), took), (at(5), at(15)));
        // Back-to-back bookings queue: the next starts when the last ends.
        assert_eq!(line.book(at(7), took), (at(15), at(25)));
        assert_eq!(line.book(at(8), took), (at(25), at(35)));
        assert_eq!(line.free_at(), at(35));
        // A booking ready after the resource frees starts when ready.
        assert_eq!(line.book(at(50), took), (at(50), at(60)));
        // Release frees the resource early: the queued work is dropped.
        line.release(at(52));
        assert_eq!(line.free_at(), at(52));
        assert_eq!(line.book(at(51), took), (at(52), at(62)));
    }
}

//! The discrete-event simulation kernel: a hierarchical timer wheel, a
//! ready queue of typed wake events, and a ring-buffered trace log.
//!
//! The paper's presentation manager interleaves many concurrent text and
//! voice sessions against shared devices. Polling every session per tick
//! makes simulated wall-time grow with N even when almost all sessions
//! are idle; the kernel inverts that: consumers *arm* deadlines
//! (retransmit timers, audio buffer deadlines, prefetch windows) and the
//! simulation advances directly from one armed instant to the next, so an
//! idle session costs zero work and per-event cost is independent of N.
//!
//! The wheel is hierarchical — `LEVELS` levels of `SLOTS` slots at a
//! 1 µs tick resolution, with a per-level occupancy bitmap — so arming,
//! cancelling, and finding the next armed instant are all O(1) in the
//! number of idle timers. Deadlines beyond the wheel horizon (≈16.8
//! simulated seconds) are parked at the horizon and re-filed on each
//! cascade until their true deadline is in range.

use crate::idhash::IdSet;
use minos_types::SimInstant;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Bits per wheel level: each level has `1 << SLOT_BITS` slots.
const SLOT_BITS: u32 = 6;

/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;

/// Wheel levels. Level 0 resolves single ticks (1 µs); level `L` spans
/// `64^L` ticks per slot. Four levels cover ≈16.8 s before clamping.
const LEVELS: usize = 4;

/// Handle to an armed timer, returned by [`Kernel::arm`] and accepted by
/// [`Kernel::cancel`]. Ids are never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// A typed kernel event: why a consumer is being woken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
    /// An audio session's next buffer deadline: the device must be fed.
    AudioDeadline {
        /// Scheduler slot index of the session.
        session: u64,
    },
    /// A prefetch anticipation window opened for a session.
    PrefetchWindowOpen {
        /// Consumer-chosen session tag.
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
    /// Wakes that found nothing to do: cancelled timers that reached
    /// their deadline, plus staleness noted by consumers via
    /// [`Kernel::note_spurious`].
    pub spurious_wakes: u64,
    /// High-water mark of the ready-queue depth.
    pub ready_high_water: u64,
}

/// One armed timer: its id, absolute deadline in ticks, and the event it
/// delivers.
struct TimerEntry {
    id: u64,
    deadline: u64,
    event: KernelEvent,
}

/// The hierarchical timer wheel. Time is measured in ticks of 1 µs —
/// [`SimInstant::as_micros`] maps 1:1 onto ticks, so deadlines fire at
/// their exact instant, never rounded early or late.
struct TimerWheel {
    /// `LEVELS * SLOTS` slot vectors, level-major.
    slots: Vec<Vec<TimerEntry>>,
    /// Per-level occupancy bitmap: bit `s` set iff slot `s` is non-empty.
    occupied: [u64; LEVELS],
    /// Current tick.
    current: u64,
    /// Entries whose deadline has been reached, in firing order.
    due: VecDeque<TimerEntry>,
}

/// Bits of `mask` strictly above bit `idx` (empty when `idx` is the top).
fn mask_above(mask: u64, idx: u32) -> u64 {
    if idx >= 63 {
        0
    } else {
        mask & (!0u64 << (idx + 1))
    }
}

impl TimerWheel {
    fn new() -> Self {
        TimerWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            current: 0,
            due: VecDeque::new(),
        }
    }

    /// Largest placeable delta: one full top-level rotation minus a tick.
    /// Entries further out are parked here and re-filed on cascade.
    fn horizon_bound() -> u64 {
        (1u64 << (SLOT_BITS * LEVELS as u32)) - 1
    }

    /// Files `entry` by its deadline relative to `current`: already-due
    /// entries go straight onto the due list, everything else into the
    /// shallowest level whose slot span bounds its (horizon-clamped)
    /// delta. Slot occupancy is capacity-tracked by the level bitmaps.
    fn place(&mut self, entry: TimerEntry) {
        if entry.deadline <= self.current {
            self.due.push_back(entry);
            return;
        }
        let delta = (entry.deadline - self.current).min(Self::horizon_bound());
        let effective = self.current + delta;
        let bits = 64 - u64::from(delta.leading_zeros());
        let level = ((bits - 1) / u64::from(SLOT_BITS)) as usize;
        let slot = ((effective >> (SLOT_BITS * level as u32)) & 63) as usize;
        self.occupied[level] |= 1u64 << slot;
        self.slots[level * SLOTS + slot].push(entry);
    }

    /// Earliest tick at which the wheel itself needs attention: the exact
    /// deadline for level-0 entries, the cascade (flush) tick for higher
    /// levels. A lower bound on the earliest armed deadline — always
    /// strictly greater than `current` — which [`TimerWheel::advance_to`]
    /// uses to jump over idle regions without scanning slots.
    fn next_wheel_tick(&self) -> Option<u64> {
        let mut best: Option<u64> = None;
        // Level 0: slot index == deadline tick modulo the window, so the
        // candidate is exact. Bits above the current index belong to this
        // window; bits at or below it to the next.
        let occ = self.occupied[0];
        if occ != 0 {
            let idx = (self.current & 63) as u32;
            let window = self.current & !63;
            let high = mask_above(occ, idx);
            let cand = if high != 0 {
                window + u64::from(high.trailing_zeros())
            } else {
                window + 64 + u64::from(occ.trailing_zeros())
            };
            best = Some(cand);
        }
        // Higher levels: the candidate is the slot's flush tick, where its
        // entries cascade down (or fire).
        for level in 1..LEVELS {
            let occ = self.occupied[level];
            if occ == 0 {
                continue;
            }
            let shift = SLOT_BITS * level as u32;
            let span = 1u64 << shift;
            let window = self.current & !((span << SLOT_BITS) - 1);
            let idx = ((self.current >> shift) & 63) as u32;
            let high = mask_above(occ, idx);
            let cand = if high != 0 {
                window + u64::from(high.trailing_zeros()) * span
            } else {
                window + (span << SLOT_BITS) + u64::from(occ.trailing_zeros()) * span
            };
            best = Some(best.map_or(cand, |b| b.min(cand)));
        }
        best
    }

    /// Drains one slot and re-files (or fires) every entry it held. The
    /// slot gets its emptied vector back, capacity and all: a flushed
    /// slot's entries always re-file into a lower level (or, parked at the
    /// horizon, into a different top-level slot), never into itself, so
    /// the slot stays empty while they are placed.
    fn flush_slot(&mut self, level: usize, slot: usize) {
        if self.occupied[level] & (1u64 << slot) == 0 {
            return;
        }
        self.occupied[level] &= !(1u64 << slot);
        let index = level * SLOTS + slot;
        let mut drained = std::mem::take(&mut self.slots[index]);
        for entry in drained.drain(..) {
            self.place(entry);
        }
        debug_assert!(self.slots[index].is_empty(), "a flush re-filed into its own slot");
        self.slots[index] = drained;
    }

    /// Advances the wheel to `target` ticks, moving every entry whose
    /// deadline is reached onto the due list. The walk jumps directly
    /// from one armed tick to the next — idle spans cost one bitmap scan
    /// regardless of their length.
    fn advance_to(&mut self, target: u64) {
        while self.current < target {
            let next = match self.next_wheel_tick() {
                Some(t) if t <= target => t,
                _ => {
                    self.current = target;
                    return;
                }
            };
            self.current = next;
            // Cascade every level whose slot boundary this tick crosses,
            // deepest first so re-filed entries land in slots that are
            // themselves flushed at this same tick.
            for level in (1..LEVELS).rev() {
                let shift = SLOT_BITS * level as u32;
                if self.current & ((1u64 << shift) - 1) == 0 {
                    self.flush_slot(level, ((self.current >> shift) & 63) as usize);
                }
            }
            self.flush_slot(0, (self.current & 63) as usize);
        }
    }
}

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
struct TraceLog {
    ring: VecDeque<TraceRecord>,
    cap: usize,
    dropped: u64,
}

/// Default trace-ring capacity: enough for a stall window, small enough
/// that a 10k-session run never grows it.
const TRACE_CAP: usize = 1024;

impl TraceLog {
    fn new() -> Self {
        TraceLog { ring: VecDeque::new(), cap: TRACE_CAP, dropped: 0 }
    }

    /// Appends one record, evicting the oldest past the ring's `cap`.
    fn record(&mut self, at: u64, verb: &'static str, event: KernelEvent) {
        if self.cap == 0 {
            return;
        }
        while self.ring.len() >= self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TraceRecord { at, verb, event });
    }

    /// Drains the ring as one JSON array (oldest record first). The output
    /// is bounded by the ring's `cap`: at most that many records survive
    /// eviction, so one line's worth of bytes is reserved per slot.
    fn drain_json(&mut self) -> String {
        let mut out = String::with_capacity(self.cap.min(self.ring.len()) * 64 + 2);
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
        KernelEvent::PrefetchWindowOpen { session } => {
            write!(out, "\"event\":\"PrefetchWindowOpen\",\"session\":{session}")
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

/// The event kernel: a timer wheel, a ready queue, a trace ring, and the
/// counter block. Consumers arm deadlines, advance simulated time, and
/// drain the ready queue; nothing idle is ever visited.
pub struct Kernel {
    wheel: TimerWheel,
    /// Ids currently armed (in a slot or on the due list, not yet fired).
    armed_ids: IdSet,
    /// Armed ids whose timer was cancelled: dropped (and counted
    /// spurious) when their deadline fires.
    cancelled: IdSet,
    ready: VecDeque<KernelEvent>,
    trace: TraceLog,
    stats: KernelStats,
    next_timer: u64,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

impl Kernel {
    /// A fresh kernel at tick 0 with nothing armed.
    pub fn new() -> Self {
        Kernel {
            wheel: TimerWheel::new(),
            armed_ids: IdSet::default(),
            cancelled: IdSet::default(),
            ready: VecDeque::new(),
            trace: TraceLog::new(),
            stats: KernelStats::default(),
            next_timer: 1,
        }
    }

    /// Current kernel time.
    pub fn now(&self) -> SimInstant {
        SimInstant::from_micros(self.wheel.current)
    }

    /// Arms a timer delivering `event` at `at` (immediately, if `at` has
    /// already passed) and returns a handle for cancellation.
    pub fn arm(&mut self, at: SimInstant, event: KernelEvent) -> TimerId {
        let id = self.next_timer;
        self.next_timer += 1;
        self.stats.timers_armed += 1;
        self.armed_ids.insert(id);
        self.trace.record(at.as_micros(), "arm", event);
        self.wheel.place(TimerEntry { id, deadline: at.as_micros(), event });
        TimerId(id)
    }

    /// [`Kernel::arm`] without keeping the cancellation handle — for
    /// events that always want delivering, like a landed response.
    pub fn post(&mut self, at: SimInstant, event: KernelEvent) {
        let _ = self.arm(at, event);
    }

    /// Cancels an armed timer. The entry stays in its slot until its
    /// deadline, where it is dropped and counted as a spurious wake.
    /// Cancelling a fired (or unknown) timer is a no-op.
    pub fn cancel(&mut self, id: TimerId) {
        if self.armed_ids.remove(&id.0) {
            self.cancelled.insert(id.0);
        }
    }

    /// The earliest instant at which anything can fire: `now` when events
    /// are already due, otherwise a lower bound on the earliest armed
    /// deadline (exact for near deadlines; for far ones it may name an
    /// intermediate cascade tick where nothing fires yet — callers loop
    /// `next_deadline`/`advance_to` and tolerate empty drains).
    pub fn next_deadline(&self) -> Option<SimInstant> {
        if !self.wheel.due.is_empty() {
            return Some(self.now());
        }
        self.wheel.next_wheel_tick().map(SimInstant::from_micros)
    }

    /// Advances kernel time to `at` (never backwards), firing every timer
    /// whose deadline is reached onto the ready queue in deadline order.
    pub fn advance_to(&mut self, at: SimInstant) {
        self.wheel.advance_to(at.as_micros());
        while let Some(entry) = self.wheel.due.pop_front() {
            if self.cancelled.remove(&entry.id) {
                self.stats.spurious_wakes += 1;
                self.trace.record(entry.deadline, "spurious", entry.event);
                continue;
            }
            self.armed_ids.remove(&entry.id);
            self.stats.events_fired += 1;
            self.trace.record(entry.deadline, "fire", entry.event);
            self.admit_ready(entry.event);
        }
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

    /// Whether any timer is still armed (a cancelled-but-unfired timer
    /// does not count).
    pub fn has_armed(&self) -> bool {
        !self.armed_ids.is_empty()
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
    /// records (oldest first; `verb` ∈ `arm`/`fire`/`spurious`).
    pub fn drain_trace_json(&mut self) -> String {
        self.trace.drain_json()
    }

    /// Trace records evicted by the ring since the last drain.
    pub fn trace_dropped(&self) -> u64 {
        self.trace.dropped
    }

    /// Resizes the trace ring (0 disables tracing entirely).
    pub fn set_trace_capacity(&mut self, cap: usize) {
        self.trace.cap = cap;
        while self.trace.ring.len() > cap {
            self.trace.ring.pop_front();
            self.trace.dropped += 1;
        }
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
    fn run_to(kernel: &mut Kernel, target: u64) -> Vec<(u64, KernelEvent)> {
        let mut fired = Vec::new();
        let target = SimInstant::from_micros(target);
        while let Some(at) = kernel.next_deadline() {
            if at > target {
                break;
            }
            kernel.advance_to(at);
            while let Some(event) = kernel.take_ready() {
                fired.push((kernel.now().as_micros(), event));
            }
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
        // One deadline per wheel level, plus a same-tick pair.
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
    fn wheel_matches_a_sorted_map_reference_under_fuzz() {
        // LCG-driven arms and advances, compared against a BTreeMap
        // reference: same fire times, same per-deadline event sets.
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
                // Deltas spanning every level, including past-due (0) and
                // beyond-horizon arms.
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
                // Same deadlines in the same order; within one deadline
                // the wheel may interleave differently, so compare sets.
                let tail = fired.len() - expected.len();
                let got = &fired[tail..];
                let mut got_sorted = got.to_vec();
                got_sorted.sort_unstable();
                let mut expected_sorted = expected.clone();
                expected_sorted.sort_unstable();
                assert_eq!(got_sorted, expected_sorted, "at tick {now}");
                assert!(got.windows(2).all(|w| w[0].0 <= w[1].0), "deadline order");
            }
        }
        assert!(k.stats().events_fired > 100, "fuzz actually fired");
    }

    #[test]
    fn cancelled_timers_are_spurious_not_delivered() {
        let mut k = Kernel::new();
        let keep = k.arm(SimInstant::from_micros(100), ev(1));
        let drop_ = k.arm(SimInstant::from_micros(100), ev(2));
        k.cancel(drop_);
        let fired = run_to(&mut k, 200);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, ev(1));
        assert_eq!(k.stats().spurious_wakes, 1);
        assert_eq!(k.stats().events_fired, 1);
        // Cancelling after the fire is a no-op.
        k.cancel(keep);
        k.cancel(drop_);
        assert_eq!(k.stats().spurious_wakes, 1);
        assert!(!k.has_armed());
    }

    #[test]
    fn past_deadlines_fire_on_the_next_advance() {
        let mut k = Kernel::new();
        k.advance_to(SimInstant::from_micros(500));
        k.arm(SimInstant::from_micros(10), ev(7));
        assert_eq!(k.next_deadline(), Some(SimInstant::from_micros(500)));
        k.advance_to(SimInstant::from_micros(500));
        assert_eq!(k.take_ready(), Some(ev(7)));
    }

    #[test]
    fn beyond_horizon_deadlines_still_fire_exactly() {
        let mut k = Kernel::new();
        let far = 30_000_000u64; // 30 s, past the ~16.8 s horizon
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
        assert_eq!(k.stats().events_fired, 0);
        assert!(!k.has_armed());
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
        k.set_trace_capacity(3);
        k.arm(SimInstant::from_micros(5), KernelEvent::RetryDue { request_id: 42, attempt: 1 });
        k.advance_to(SimInstant::from_micros(5));
        let json = k.drain_trace_json();
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"verb\":\"arm\""), "{json}");
        assert!(json.contains("\"verb\":\"fire\""), "{json}");
        assert!(json.contains("\"event\":\"RetryDue\",\"request_id\":42,\"attempt\":1"), "{json}");
        assert_eq!(k.drain_trace_json(), "[]");
        // Overflow: 4 arms into a 3-slot ring drop the oldest.
        for i in 0..4 {
            k.arm(SimInstant::from_micros(100 + i), ev(i));
        }
        assert_eq!(k.trace_dropped(), 1);
        let json = k.drain_trace_json();
        assert!(!json.contains("\"key\":0"), "{json}");
        assert!(json.contains("\"key\":3"), "{json}");
    }

    #[test]
    fn every_event_variant_serialises_its_fields() {
        let mut k = Kernel::new();
        let at = SimInstant::from_micros(1);
        k.post(at, KernelEvent::ResponseLanded { conn: 3, request_id: 8 });
        k.post(at, KernelEvent::DeadlineFired { key: 11 });
        k.post(at, KernelEvent::AudioDeadline { session: 2 });
        k.post(at, KernelEvent::PrefetchWindowOpen { session: 6 });
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
            "\"event\":\"PrefetchWindowOpen\",\"session\":6",
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
    fn a_cascaded_slot_keeps_its_capacity() {
        let mut k = Kernel::new();
        // Delta 100 files at level 1, slot 1; crossing tick 64 cascades
        // it into level 0, and tick 100 fires it.
        k.arm(SimInstant::from_micros(100), ev(1));
        let level1 = SLOTS + 1;
        let capacity = k.wheel.slots[level1].capacity();
        assert!(capacity > 0);
        k.advance_to(SimInstant::from_micros(64));
        assert!(k.wheel.slots[level1].is_empty());
        assert_eq!(k.wheel.slots[level1].capacity(), capacity, "the cascade kept the vector");
        assert_eq!(k.wheel.slots[36].len(), 1, "re-filed at level 0, slot 100 % 64");
        let level0 = k.wheel.slots[36].capacity();
        k.advance_to(SimInstant::from_micros(100));
        assert_eq!(k.take_ready(), Some(ev(1)));
        assert!(k.wheel.slots[36].is_empty());
        assert_eq!(k.wheel.slots[36].capacity(), level0, "firing kept the vector too");
    }
}

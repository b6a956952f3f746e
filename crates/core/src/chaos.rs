//! The chaos-schedule orchestrator — E17.
//!
//! A [`ChaosSchedule`] is a seeded, declarative list of failures —
//! crashes, restarts, gray slowdowns, partitions, latent bit rot — that
//! replays identically across the bench harness and the tests. The
//! orchestrator ([`simulate_chaos_workload`]) drives the self-healing
//! fleet through the schedule:
//!
//! * kernel-timer heartbeats feed the [`HealthMonitor`]; a member that
//!   stops echoing walks `Up → Suspect → Down`, its in-flight pages are
//!   re-aimed at live siblings, and every replica it held is owed to the
//!   [`RepairQueue`];
//! * the repair queue drains one task per [`KernelEvent::RepairDue`]
//!   timer — the serial spacing is the throttle that keeps rebuild
//!   traffic (charged to the real device and link timelines) from
//!   starving foreground audio;
//! * a low-rate scrub pass walks one member per [`KernelEvent::DeadlineFired`]
//!   tick; any page failing its publish-time CRC — found by the scrub or
//!   by an ordinary read — is healed from a verified sibling before the
//!   page is re-served (read-repair);
//! * an audio-class page submitted to a member the detector has marked
//!   [`MemberHealth::Slow`] arms a [`KernelEvent::HedgeFire`] timer: if
//!   the original answer has not landed when the hedge delay expires, a
//!   speculative duplicate goes to a sibling and the first valid answer
//!   wins, the loser suppressed.
//!
//! The run ends only after every page delivered byte-identical, the
//! repair queue drained, and a final frozen-media sweep healed every
//! remaining rotten page — the [`ChaosReport`] pins all of it.

use crate::fleet::{Fleet, HealthMonitor, MemberHealth, RepairQueue, RepairTask, Replica};
use crate::kernel::{Kernel, KernelEvent};
use crate::sched::p99;
use minos_net::{
    crc32, BufferPool, Frame, FramePayload, Link, Priority, ServerRequest, ServerResponse,
};
use minos_server::ServiceConfig;
use minos_types::{ByteSpan, MinosError, ObjectId, Result, SimDuration, SimInstant};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// One declared failure in a [`ChaosSchedule`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosEvent {
    /// The member crashes at `at`: it stops answering anything (its
    /// volatile queues are stranded; its media survives) until a
    /// matching [`ChaosEvent::RestartAt`].
    CrashAt {
        /// Fleet index of the crashing member.
        member: usize,
        /// Crash instant.
        at: SimInstant,
    },
    /// The member restarts at `at`: its epoch bumps, its volatile queues
    /// clear, and it answers again.
    RestartAt {
        /// Fleet index of the restarting member.
        member: usize,
        /// Restart instant.
        at: SimInstant,
    },
    /// Gray failure: between `from` and `to` the member still answers,
    /// but every service and heartbeat charge is multiplied by `factor`.
    SlowBetween {
        /// Fleet index of the slow member.
        member: usize,
        /// Window start (inclusive).
        from: SimInstant,
        /// Window end (exclusive).
        to: SimInstant,
        /// Latency multiplier (≥ 1).
        factor: u64,
    },
    /// Between `from` and `to` the member is unreachable from the
    /// workstation side: requests queue but neither they nor responses
    /// cross until the partition heals.
    PartitionBetween {
        /// Fleet index of the partitioned member.
        member: usize,
        /// Window start (inclusive).
        from: SimInstant,
        /// Window end (exclusive).
        to: SimInstant,
    },
    /// Latent media decay on the member's optical disk, applied at run
    /// start: each read flips a bit within the read span with
    /// probability `rate_ppm` per million.
    BitRot {
        /// Fleet index of the decaying member.
        member: usize,
        /// Per-read flip probability in parts per million.
        rate_ppm: u32,
    },
}

impl ChaosEvent {
    /// The fleet member the event targets.
    pub fn member(&self) -> usize {
        match *self {
            ChaosEvent::CrashAt { member, .. }
            | ChaosEvent::RestartAt { member, .. }
            | ChaosEvent::SlowBetween { member, .. }
            | ChaosEvent::PartitionBetween { member, .. }
            | ChaosEvent::BitRot { member, .. } => member,
        }
    }
}

/// Injection accounting of one schedule, cleared wholesale by
/// [`ChaosSchedule::reset_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Crash events admitted.
    pub crashes: u64,
    /// Restart events admitted.
    pub restarts: u64,
    /// Gray-slowdown windows admitted.
    pub slow_windows: u64,
    /// Partition windows admitted.
    pub partitions: u64,
    /// Members given a latent bit-rot rate.
    pub rot_members: u64,
}

/// A seeded, declarative failure schedule.
///
/// Events are declared in chronological order per member (queries fold
/// the list in declaration order) and replay identically for equal
/// seeds — the same schedule drives the E17 bench rows and the
/// integration tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosSchedule {
    seed: u64,
    events: Vec<ChaosEvent>,
    stats: ChaosStats,
}

impl ChaosSchedule {
    /// An empty schedule deriving all randomness (bit-rot draws) from
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosSchedule { seed, events: Vec::new(), stats: ChaosStats::default() }
    }

    /// The schedule's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The declared events, in declaration order.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Admits one event; the schedule is bounded by its declaration —
    /// events only enter through the typed builders below.
    fn admit_event(&mut self, event: ChaosEvent) {
        match event {
            ChaosEvent::CrashAt { .. } => self.stats.crashes += 1,
            ChaosEvent::RestartAt { .. } => self.stats.restarts += 1,
            ChaosEvent::SlowBetween { .. } => self.stats.slow_windows += 1,
            ChaosEvent::PartitionBetween { .. } => self.stats.partitions += 1,
            ChaosEvent::BitRot { .. } => self.stats.rot_members += 1,
        }
        self.events.push(event);
    }

    /// Declares a crash of `member` at `at`.
    pub fn crash_at(mut self, member: usize, at: SimInstant) -> Self {
        self.admit_event(ChaosEvent::CrashAt { member, at });
        self
    }

    /// Declares a restart of `member` at `at`.
    pub fn restart_at(mut self, member: usize, at: SimInstant) -> Self {
        self.admit_event(ChaosEvent::RestartAt { member, at });
        self
    }

    /// Declares a gray slowdown of `member` by `factor` between `from`
    /// and `to`.
    pub fn slow_between(
        mut self,
        member: usize,
        from: SimInstant,
        to: SimInstant,
        factor: u64,
    ) -> Self {
        self.admit_event(ChaosEvent::SlowBetween { member, from, to, factor: factor.max(1) });
        self
    }

    /// Declares a partition of `member` between `from` and `to`.
    pub fn partition_between(mut self, member: usize, from: SimInstant, to: SimInstant) -> Self {
        self.admit_event(ChaosEvent::PartitionBetween { member, from, to });
        self
    }

    /// Declares latent bit rot on `member`'s media at `rate_ppm` flips
    /// per million reads.
    pub fn bit_rot(mut self, member: usize, rate_ppm: u32) -> Self {
        self.admit_event(ChaosEvent::BitRot { member, rate_ppm });
        self
    }

    /// Whether `member` is crashed (and not yet restarted) at `now`.
    pub fn is_down(&self, member: usize, now: SimInstant) -> bool {
        let mut down = false;
        for event in &self.events {
            match *event {
                ChaosEvent::CrashAt { member: m, at } if m == member && at <= now => down = true,
                ChaosEvent::RestartAt { member: m, at } if m == member && at <= now => {
                    down = false;
                }
                _ => {}
            }
        }
        down
    }

    /// Whether `member` is partitioned from the workstation at `now`.
    pub fn is_partitioned(&self, member: usize, now: SimInstant) -> bool {
        self.events.iter().any(|event| {
            matches!(*event, ChaosEvent::PartitionBetween { member: m, from, to }
                if m == member && from <= now && now < to)
        })
    }

    /// The latency multiplier in force on `member` at `now` (1 outside
    /// every declared window; the largest covering window wins).
    pub fn slow_factor(&self, member: usize, now: SimInstant) -> u64 {
        self.events
            .iter()
            .filter_map(|event| match *event {
                ChaosEvent::SlowBetween { member: m, from, to, factor }
                    if m == member && from <= now && now < to =>
                {
                    Some(factor)
                }
                _ => None,
            })
            .max()
            .unwrap_or(1)
    }

    /// The latent bit-rot rate declared for `member`, in flips per
    /// million reads (0 when the media is clean).
    pub fn rot_rate_ppm(&self, member: usize) -> u32 {
        self.events
            .iter()
            .filter_map(|event| match *event {
                ChaosEvent::BitRot { member: m, rate_ppm } if m == member => Some(rate_ppm),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Injection accounting.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// Clears the injection accounting (the declared events survive).
    pub fn reset_stats(&mut self) {
        self.stats = ChaosStats::default();
    }
}

/// Configuration of one [`simulate_chaos_workload`] run.
#[derive(Clone, Debug)]
pub struct ChaosWorkloadConfig {
    /// Fleet size.
    pub members: usize,
    /// Copies stored per object.
    pub replication: usize,
    /// Concurrent page-reader sessions.
    pub sessions: usize,
    /// Leading sessions that read at audio priority, are latency-tracked,
    /// and are eligible for hedged reads.
    pub audio_sessions: usize,
    /// Demand pages each session reads.
    pub pages_per_session: usize,
    /// Bytes per page (also the publish-time checksum granularity).
    pub page_len: u64,
    /// The failure schedule to replay.
    pub schedule: ChaosSchedule,
    /// Hedge delay for audio pages aimed at a `Slow` member; `None`
    /// disables hedging.
    pub hedge_delay: Option<SimDuration>,
    /// Heartbeat interval of the health monitor.
    pub heartbeat: SimDuration,
    /// Scrub cadence (one member per tick, round-robin); `None` disables
    /// the background scrub (read-repair still heals what reads surface).
    pub scrub_interval: Option<SimDuration>,
    /// Spacing between repair tasks — the re-replication throttle.
    pub repair_spacing: SimDuration,
    /// Admission-control policy applied to every member.
    pub service: ServiceConfig,
}

/// What one [`simulate_chaos_workload`] run measured — the E17 report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosReport {
    /// Wall-clock time until the last demand page was delivered.
    pub elapsed: SimDuration,
    /// Demand pages delivered byte-identical.
    pub pages: u64,
    /// Pages the run failed to deliver — pinned zero.
    pub lost_pages: u64,
    /// Bytes moved over the shared link (pages, heartbeats, repairs).
    pub bytes: u64,
    /// 99th-percentile submit-to-delivery latency of the audio pages.
    pub audio_p99: SimDuration,
    /// Speculative duplicates fired at siblings of `Slow` members.
    pub hedges_fired: u64,
    /// Hedges whose duplicate beat the original answer.
    pub hedge_wins: u64,
    /// Late answers discarded because the page was already delivered
    /// (hedge losers and post-partition stragglers).
    pub duplicates_suppressed: u64,
    /// Members the detector declared down.
    pub down_transitions: u64,
    /// Gray-failure (`Slow`) declarations the detector made.
    pub slow_transitions: u64,
    /// Restart epochs the heartbeats noticed and resynced.
    pub epoch_resyncs: u64,
    /// Pages re-aimed at a sibling after a down declaration or resync.
    pub replays: u64,
    /// Re-replication tasks completed.
    pub repairs_completed: u64,
    /// Bytes rebuilt by re-replication.
    pub repair_bytes: u64,
    /// Pages checksum-verified by scrub passes (in-run and final sweep).
    pub scrub_pages: u64,
    /// Corrupt pages scrub passes detected.
    pub scrub_detected: u64,
    /// Copies healed from a sibling (scrub heals and final sweep).
    pub scrub_heals: u64,
    /// Served pages whose CRC failed and were healed then re-served.
    pub read_repairs: u64,
    /// Bits the decaying media actually flipped.
    pub bit_rot_flips: u64,
    /// Corrupt pages remaining after the final heal sweep — pinned zero.
    pub final_corrupt_pages: u64,
    /// Deferred Busy resubmissions that left early — pinned zero.
    pub premature_busy_retries: u64,
    /// Whether every object ended the run with its full replication
    /// factor on distinct, live members.
    pub replication_ok: bool,
}

/// Demand-page window each session keeps in flight.
const SESSION_WINDOW: usize = 2;
/// The scrub timer's `DeadlineFired` correlation key (schedule events use
/// their index, far below this).
const SCRUB_KEY: u64 = u64::MAX;
/// Round budget before the run is declared wedged.
const MAX_ROUNDS: u32 = 500_000;

/// The per-session byte pattern — session-distinct so a page served from
/// the wrong object or offset can never verify.
fn chaos_pattern(session: usize, offset: u64) -> u8 {
    ((offset + session as u64 * 17) % 241) as u8
}

/// Whether the workstation can currently exchange frames with `member`.
fn reachable(schedule: &ChaosSchedule, member: usize, now: SimInstant) -> bool {
    !schedule.is_down(member, now) && !schedule.is_partitioned(member, now)
}

/// Runs the E17 chaos workload: the E16 fleet demand-page loop with the
/// schedule's failures injected and the self-healing machinery — health
/// heartbeats, proactive re-replication, scrub with read-repair, hedged
/// audio reads — switched on. See the module docs for the moving parts;
/// see [`ChaosReport`] for what is pinned.
pub fn simulate_chaos_workload(config: ChaosWorkloadConfig) -> Result<ChaosReport> {
    let ChaosWorkloadConfig {
        members,
        replication,
        sessions,
        audio_sessions,
        pages_per_session,
        page_len,
        schedule,
        hedge_delay,
        heartbeat,
        scrub_interval,
        repair_spacing,
        service,
    } = config;
    if sessions == 0 || pages_per_session == 0 || page_len == 0 {
        return Err(MinosError::Internal("workload needs sessions, pages, and bytes".into()));
    }
    if heartbeat == SimDuration::ZERO {
        return Err(MinosError::Internal("the chaos harness requires a heartbeat".into()));
    }
    if let Some(bad) = schedule.events().iter().find(|e| e.member() >= members) {
        return Err(MinosError::Internal(format!(
            "schedule event {bad:?} targets a member outside the fleet of {members}"
        )));
    }
    let audio_sessions = audio_sessions.min(sessions);
    let object_of = |s: usize| ObjectId::new(s as u64 + 1);

    let mut fleet = Fleet::new(members, replication)?;
    fleet.set_service_config(service);
    fleet.prewarm_payloads(BufferPool::DEFAULT_RETAIN_CAP, page_len as usize);
    for s in 0..sessions {
        let data: Vec<u8> =
            (0..pages_per_session as u64 * page_len).map(|i| chaos_pattern(s, i)).collect();
        fleet.publish_paged(object_of(s), &data, page_len)?;
    }
    // Latent decay starts with the run, seeded per member off the
    // schedule seed.
    for m in 0..members {
        let ppm = schedule.rot_rate_ppm(m);
        if ppm > 0 {
            let seed = schedule.seed() ^ (m as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            fleet
                .member_mut(m)
                .expect("rot members validated above")
                .archiver_mut()
                .device_mut()
                .set_bit_rot(seed, ppm as f64 / 1_000_000.0);
        }
    }

    let mut link = Link::ethernet();
    // Heartbeat round trip on an idle wire — the baseline a gray member's
    // multiplied echo is compared against.
    let base_rtt_us = {
        let ping = Frame::request(0, 0, ServerRequest::Ping { nonce: 0 });
        let pong = Frame::response(0, 0, ServerResponse::Pong { nonce: 0, epoch: 0 });
        (link.transfer_cost(ping.wire_size()) + link.transfer_cost(pong.wire_size())).as_micros()
    };

    /// One submitted demand page: who asked, which page, which member
    /// currently owes the answer, and the original submit instant (kept
    /// across replays, deferrals, and hedges — the p99 measures what the
    /// listener felt).
    struct InFlightPage {
        session: usize,
        page: usize,
        member: usize,
        issued: SimInstant,
    }

    let mut up_free = SimInstant::EPOCH;
    let mut down_free = SimInstant::EPOCH;
    let mut dev_free = vec![SimInstant::EPOCH; members];
    let mut kernel = Kernel::new();
    let mut health = HealthMonitor::new(members);
    let mut repairs = RepairQueue::new();
    let mut repair_idle = true;
    let mut arrivals: HashMap<u64, SimInstant> = HashMap::new();
    let mut inflight: HashMap<u64, InFlightPage> = HashMap::new();
    let mut deferred: HashMap<u64, SimInstant> = HashMap::new();
    // Hedge pairing: original ↔ speculative duplicate, both ways.
    let mut hedge_partner: HashMap<u64, u64> = HashMap::new();
    let mut hedge_of: HashMap<u64, u64> = HashMap::new();
    // Responses in flight down the wire: polling a member reserves the
    // timelines and parks the response here; it is consumed by a
    // `ResponseLanded` timer at its own delivery timestamp.
    let mut landing: HashMap<u64, (Frame, SimInstant)> = HashMap::new();
    let mut next_landing = 0u64;
    let mut dirty: Vec<BTreeSet<u64>> = (0..members).map(|_| BTreeSet::new()).collect();
    let mut epochs: Vec<u64> = (0..members).map(|m| fleet.epoch(m)).collect();
    let mut todo: Vec<VecDeque<usize>> =
        (0..sessions).map(|_| (0..pages_per_session).collect()).collect();
    let mut outstanding = vec![0usize; sessions];
    let mut session_free = vec![SimInstant::EPOCH; sessions];
    let mut next_rid = 1u64;
    let mut last_delivered = SimInstant::EPOCH;
    let mut delivered = 0u64;
    let mut replays = 0u64;
    let mut epoch_resyncs = 0u64;
    let mut hedges_fired = 0u64;
    let mut hedge_wins = 0u64;
    let mut duplicates_suppressed = 0u64;
    let mut scrub_pages = 0u64;
    let mut scrub_detected = 0u64;
    let mut scrub_heals = 0u64;
    let mut read_repairs = 0u64;
    let mut premature_busy_retries = 0u64;
    let mut scrub_cursor = 0usize;
    let mut audio_lat: Vec<SimDuration> = Vec::with_capacity(audio_sessions * pages_per_session);

    // Timers: heartbeats per member, the scrub cadence, restart events
    // (crashes and slowdowns are pure time queries), and a wake at every
    // partition heal so stranded frames drain.
    for m in 0..members {
        kernel.arm(SimInstant::EPOCH + heartbeat, KernelEvent::HealthTick { member: m as u64 });
    }
    if let Some(interval) = scrub_interval {
        kernel.arm(SimInstant::EPOCH + interval, KernelEvent::DeadlineFired { key: SCRUB_KEY });
    }
    for (idx, event) in schedule.events().iter().enumerate() {
        match *event {
            ChaosEvent::RestartAt { at, .. } => {
                kernel.arm(at, KernelEvent::DeadlineFired { key: idx as u64 });
            }
            ChaosEvent::PartitionBetween { member, to, .. } => {
                kernel.arm(to, KernelEvent::ServerWake { member: member as u64 });
            }
            _ => {}
        }
    }

    // Picks the live replica that should serve `page` of `s`'s object:
    // the block-spread holder when it is healthy, else the first live
    // holder after it on the ring.
    let pick_target = |fleet: &Fleet,
                       health: &HealthMonitor,
                       s: usize,
                       page: usize,
                       now: SimInstant|
     -> Option<Replica> {
        let placement = fleet.placement(object_of(s))?;
        let replicas = placement.replicas();
        let preferred = replicas[page * replicas.len() / pages_per_session];
        let mut candidate = preferred;
        for _ in 0..replicas.len() {
            if reachable(&schedule, candidate.member, now) && !health.is_down(candidate.member) {
                return Some(candidate);
            }
            candidate = placement.next_after(candidate.member);
        }
        Some(preferred)
    };

    let mut rounds = 0u32;
    while todo.iter().any(|q| !q.is_empty())
        || outstanding.iter().any(|&o| o > 0)
        || !repairs.is_empty()
        || !repair_idle
    {
        rounds += 1;
        if rounds > MAX_ROUNDS {
            return Err(MinosError::Internal("chaos workload failed to converge".into()));
        }
        // Submissions: each session tops its window back up; the window
        // is the admission bound (at most SESSION_WINDOW logical pages
        // per session in flight; hedges ride on their original's slot).
        let mut submitted = false;
        for s in 0..sessions {
            while outstanding[s] < SESSION_WINDOW {
                let Some(page) = todo[s].pop_front() else {
                    break;
                };
                outstanding[s] += 1;
                submitted = true;
                let rid = next_rid;
                next_rid += 1;
                let now = up_free.max(down_free);
                let target = pick_target(&fleet, &health, s, page, now)
                    .expect("published objects have placements");
                let span = ByteSpan::at(target.span.start + page as u64 * page_len, page_len);
                let priority = if s < audio_sessions { Priority::Audio } else { Priority::Demand };
                let frame = Frame::request_with_priority(
                    s as u64 + 1,
                    rid,
                    priority,
                    ServerRequest::FetchSpan { span },
                );
                // The page is asked for the instant its window slot freed
                // (the previous delivery), not at the idle uplink
                // frontier — the latency clock starts when the listener
                // started waiting.
                let issued = session_free[s];
                let arrival = up_free.max(issued) + link.transfer(frame.wire_size());
                up_free = arrival;
                arrivals.insert(rid, arrival);
                inflight
                    .insert(rid, InFlightPage { session: s, page, member: target.member, issued });
                fleet
                    .member_mut(target.member)
                    .expect("replica indices are in range")
                    .enqueue(frame)?;
                dirty[target.member].insert(s as u64 + 1);
                kernel.arm(arrival, KernelEvent::ServerWake { member: target.member as u64 });
                // An audio page aimed at a gray member gets a hedge timer:
                // if the answer has not landed by then, a duplicate goes
                // to a sibling.
                if let Some(delay) = hedge_delay {
                    if s < audio_sessions && health.state(target.member) == MemberHealth::Slow {
                        kernel.arm(issued + delay, KernelEvent::HedgeFire { request_id: rid });
                    }
                }
            }
        }

        let mut progressed = false;
        loop {
            // Release timers in deadline order: each handler must see a
            // clock near its own deadline, not the far edge of the last
            // bulk transfer — a heartbeat judged at a leaped-ahead clock
            // would warm its latency baseline inside a slow window and
            // never detect the gray member.
            let event = match kernel.take_ready() {
                Some(event) => event,
                None => {
                    let target = up_free.max(down_free);
                    match kernel.next_deadline() {
                        Some(deadline) if deadline <= target => {
                            kernel.advance_to(deadline);
                            continue;
                        }
                        _ => break,
                    }
                }
            };
            match event {
                KernelEvent::ServerWake { member } => {
                    let m = member as usize;
                    if m >= members || !reachable(&schedule, m, kernel.now()) {
                        kernel.note_spurious();
                        continue;
                    }
                    let mut conns: Vec<u64> = dirty[m].iter().copied().collect();
                    dirty[m].clear();
                    loop {
                        for conn in conns.drain(..) {
                            while let Some((frame, charge)) = fleet
                                .member_mut(m)
                                .expect("wake events name fleet members")
                                .poll_conn(conn)
                            {
                                progressed = true;
                                let rid = frame.request_id;
                                let arrival = arrivals.remove(&rid).unwrap_or(up_free);
                                // A gray member is slow at everything: its
                                // device charge scales with the window in
                                // force at service time.
                                let factor = schedule.slow_factor(m, arrival);
                                let charge = SimDuration::from_micros(
                                    charge.as_micros().saturating_mul(factor),
                                );
                                let done = arrival.max(dev_free[m]) + charge;
                                dev_free[m] = done;
                                // The wire charge rides on the device
                                // completion rather than a strict frontier:
                                // responses are reserved in poll order, and
                                // a frontier would force every later poll —
                                // including a hedge racing a slow member —
                                // to land after every earlier one. The
                                // devices are the bottleneck by an order of
                                // magnitude, so overlapping transfers cost
                                // nothing observable.
                                let at = done + link.transfer(frame.wire_size());
                                down_free = down_free.max(at);
                                // Deliver at the response's own timestamp,
                                // not at this wake: a hedge timer falling
                                // between the two must still see the page
                                // in flight, or a hedge could never race
                                // the member it hedges against.
                                let seq = next_landing;
                                next_landing += 1;
                                landing.insert(seq, (frame, at));
                                kernel.arm(
                                    at,
                                    KernelEvent::ResponseLanded { conn: m as u64, request_id: seq },
                                );
                            }
                        }
                        conns = fleet
                            .member_mut(m)
                            .expect("wake events name fleet members")
                            .take_woken();
                        if conns.is_empty() {
                            break;
                        }
                    }
                }
                KernelEvent::ResponseLanded { conn, request_id } => {
                    let m = conn as usize;
                    let Some((frame, at)) = landing.remove(&request_id) else {
                        kernel.note_spurious();
                        continue;
                    };
                    progressed = true;
                    let rid = frame.request_id;
                    last_delivered = last_delivered.max(at);
                    if !inflight.contains_key(&rid) {
                        // A hedge loser or a post-partition
                        // straggler: the page already landed
                        // through another path.
                        duplicates_suppressed += 1;
                        if let FramePayload::Response(ServerResponse::Span(bytes)) = frame.payload {
                            fleet
                                .member_mut(m)
                                .expect("wake events name fleet members")
                                .recycle_payload(bytes);
                        }
                        continue;
                    }
                    let meta = inflight.get(&rid).expect("checked above");
                    let (s, page, issued) = (meta.session, meta.page, meta.issued);
                    let FramePayload::Response(response) = frame.payload else {
                        continue;
                    };
                    match response {
                        ServerResponse::Span(bytes) => {
                            let want = fleet
                                .checksums(object_of(s))
                                .and_then(|c| c.crcs.get(page))
                                .copied();
                            let clean =
                                bytes.len() as u64 == page_len && want == Some(crc32(&bytes));
                            if clean {
                                let from = page as u64 * page_len;
                                if !bytes
                                    .iter()
                                    .enumerate()
                                    .all(|(i, &b)| b == chaos_pattern(s, from + i as u64))
                                {
                                    return Err(MinosError::Internal(format!(
                                        "session {s} page {page} passed its CRC \
                                                     with foreign bytes"
                                    )));
                                }
                                let was_hedge = hedge_of.contains_key(&rid);
                                let partner =
                                    hedge_partner.remove(&rid).or_else(|| hedge_of.remove(&rid));
                                if let Some(other) = partner {
                                    inflight.remove(&other);
                                    hedge_partner.remove(&other);
                                    hedge_of.remove(&other);
                                    if was_hedge {
                                        hedge_wins += 1;
                                    }
                                }
                                inflight.remove(&rid);
                                outstanding[s] -= 1;
                                session_free[s] = session_free[s].max(at);
                                delivered += 1;
                                if s < audio_sessions {
                                    audio_lat.push(at.saturating_since(issued));
                                }
                            } else {
                                // Read-repair: the stored copy
                                // rotted. Heal it from a
                                // verified sibling, then
                                // re-serve from the fresh span.
                                read_repairs += 1;
                                let object = object_of(s);
                                let receipt = fleet.heal_copy(object, m)?;
                                let start = at.max(dev_free[receipt.source]);
                                dev_free[receipt.source] = start + receipt.read_time;
                                let moved = dev_free[receipt.source] + link.transfer(receipt.bytes);
                                down_free = down_free.max(moved);
                                dev_free[m] = moved.max(dev_free[m]) + receipt.write_time;
                                let partner =
                                    hedge_partner.remove(&rid).or_else(|| hedge_of.remove(&rid));
                                inflight.remove(&rid);
                                if let Some(other) = partner {
                                    // The partner still owes the
                                    // page; let it race alone.
                                    hedge_partner.remove(&other);
                                    hedge_of.remove(&other);
                                } else {
                                    // Re-serve from the healed
                                    // copy under a fresh id.
                                    let retry = next_rid;
                                    next_rid += 1;
                                    let placement = fleet
                                        .placement(object)
                                        .expect("healed objects stay placed");
                                    let replica = placement
                                        .replicas()
                                        .iter()
                                        .find(|r| r.member == m)
                                        .copied()
                                        .expect("heal keeps the member");
                                    let span = ByteSpan::at(
                                        replica.span.start + page as u64 * page_len,
                                        page_len,
                                    );
                                    let frame = Frame::request_with_priority(
                                        s as u64 + 1,
                                        retry,
                                        if s < audio_sessions {
                                            Priority::Audio
                                        } else {
                                            Priority::Demand
                                        },
                                        ServerRequest::FetchSpan { span },
                                    );
                                    let arrival = up_free + link.transfer(frame.wire_size());
                                    up_free = arrival;
                                    arrivals.insert(retry, arrival);
                                    inflight.insert(
                                        retry,
                                        InFlightPage { session: s, page, member: m, issued },
                                    );
                                    fleet
                                        .member_mut(m)
                                        .expect("wake events name fleet members")
                                        .enqueue(frame)?;
                                    dirty[m].insert(s as u64 + 1);
                                    kernel
                                        .arm(arrival, KernelEvent::ServerWake { member: m as u64 });
                                }
                            }
                            fleet
                                .member_mut(m)
                                .expect("wake events name fleet members")
                                .recycle_payload(bytes);
                        }
                        ServerResponse::Busy { retry_after } => {
                            if hedge_of.contains_key(&rid) {
                                // A turned-away hedge just
                                // dies; the original still
                                // owes the page.
                                let original = hedge_of.remove(&rid);
                                if let Some(orig) = original {
                                    hedge_partner.remove(&orig);
                                }
                                inflight.remove(&rid);
                                continue;
                            }
                            let due = at + retry_after;
                            deferred.insert(rid, due);
                            kernel.arm(due, KernelEvent::RetryDue { request_id: rid, attempt: 0 });
                            // Rotate to a live sibling for the
                            // resubmit.
                            let now = kernel.now();
                            if let Some(next) = pick_target(&fleet, &health, s, page, now) {
                                let p = inflight
                                    .get_mut(&rid)
                                    .expect("meta was just read from inflight");
                                if next.member != p.member {
                                    p.member = next.member;
                                } else {
                                    let placement = fleet
                                        .placement(object_of(s))
                                        .expect("published objects have placements");
                                    p.member = placement.next_after(p.member).member;
                                }
                            }
                        }
                        other => {
                            return Err(MinosError::Internal(format!(
                                "unexpected response {other:?}"
                            )));
                        }
                    }
                }
                KernelEvent::RetryDue { request_id, .. } => {
                    let Some(due) = deferred.remove(&request_id) else {
                        kernel.note_spurious();
                        continue;
                    };
                    if !inflight.contains_key(&request_id) {
                        kernel.note_spurious();
                        continue;
                    }
                    progressed = true;
                    let p = inflight.get(&request_id).expect("checked above");
                    let (s, page, m) = (p.session, p.page, p.member);
                    let placement =
                        fleet.placement(object_of(s)).expect("published objects have placements");
                    let replica = placement
                        .replicas()
                        .iter()
                        .find(|r| r.member == m)
                        .copied()
                        .unwrap_or(placement.next_after(m));
                    let span = ByteSpan::at(replica.span.start + page as u64 * page_len, page_len);
                    let frame = Frame::request_with_priority(
                        s as u64 + 1,
                        request_id,
                        if s < audio_sessions { Priority::Audio } else { Priority::Demand },
                        ServerRequest::FetchSpan { span },
                    );
                    // The resubmission may not leave before the hint
                    // elapses.
                    let leave = up_free.max(due);
                    if leave < due {
                        premature_busy_retries += 1;
                    }
                    let arrival = leave + link.transfer(frame.wire_size());
                    up_free = arrival;
                    arrivals.insert(request_id, arrival);
                    if let Some(meta) = inflight.get_mut(&request_id) {
                        meta.member = replica.member;
                    }
                    fleet
                        .member_mut(replica.member)
                        .expect("replica indices are in range")
                        .enqueue(frame)?;
                    dirty[replica.member].insert(s as u64 + 1);
                    kernel.arm(arrival, KernelEvent::ServerWake { member: replica.member as u64 });
                }
                KernelEvent::HealthTick { member } => {
                    let m = member as usize;
                    if m >= members {
                        kernel.note_spurious();
                        continue;
                    }
                    let now = kernel.now();
                    health.note_ping(m);
                    let mut replay = false;
                    if reachable(&schedule, m, now) {
                        let factor = schedule.slow_factor(m, now);
                        let rtt =
                            SimDuration::from_micros(base_rtt_us.saturating_mul(factor).max(1));
                        health.note_pong(m, rtt);
                        if fleet.epoch(m) != epochs[m] {
                            // The heartbeat noticed a restart: adopt the
                            // new epoch and replay what died with the old
                            // incarnation.
                            epochs[m] = fleet.epoch(m);
                            epoch_resyncs += 1;
                            replay = true;
                        }
                    } else if health.note_miss(m) == MemberHealth::Down {
                        replay = true;
                        // Proactive re-replication: every copy the dead
                        // member held is owed a rebuild. Admission dedups,
                        // so re-declaring the same death is free.
                        for object in fleet.objects_on(m) {
                            if repairs.admit(RepairTask { object, lost: m }) && repair_idle {
                                repair_idle = false;
                                kernel
                                    .arm(now + repair_spacing, KernelEvent::RepairDue { task: 0 });
                            }
                        }
                    }
                    if replay {
                        progressed = true;
                        // Sorted so the replay order never depends on hash
                        // iteration — equal seeds must replay identically.
                        let mut lost: Vec<u64> = inflight
                            .iter()
                            .filter(|(rid, p)| p.member == m && !deferred.contains_key(rid))
                            .map(|(&rid, _)| rid)
                            .collect();
                        lost.sort_unstable();
                        for rid in lost {
                            let p = inflight.get(&rid).expect("rid collected from inflight");
                            let (s, page) = (p.session, p.page);
                            let Some(target) = pick_target(&fleet, &health, s, page, now) else {
                                continue;
                            };
                            if target.member == m {
                                // No live sibling: the page stays owed to
                                // this member until it heals.
                                continue;
                            }
                            replays += 1;
                            let span =
                                ByteSpan::at(target.span.start + page as u64 * page_len, page_len);
                            let frame = Frame::request_with_priority(
                                s as u64 + 1,
                                rid,
                                if s < audio_sessions { Priority::Audio } else { Priority::Demand },
                                ServerRequest::FetchSpan { span },
                            );
                            let arrival = up_free + link.transfer(frame.wire_size());
                            up_free = arrival;
                            arrivals.insert(rid, arrival);
                            if let Some(meta) = inflight.get_mut(&rid) {
                                meta.member = target.member;
                            }
                            fleet
                                .member_mut(target.member)
                                .expect("replica indices are in range")
                                .enqueue(frame)?;
                            dirty[target.member].insert(s as u64 + 1);
                            kernel.arm(
                                arrival,
                                KernelEvent::ServerWake { member: target.member as u64 },
                            );
                        }
                    }
                    kernel.arm(now + heartbeat, KernelEvent::HealthTick { member });
                }
                KernelEvent::HedgeFire { request_id } => {
                    let Some(p) = inflight.get(&request_id) else {
                        kernel.note_spurious();
                        continue;
                    };
                    if hedge_partner.contains_key(&request_id) || deferred.contains_key(&request_id)
                    {
                        kernel.note_spurious();
                        continue;
                    }
                    let (s, page, cur, issued) = (p.session, p.page, p.member, p.issued);
                    let now = kernel.now();
                    let Some(placement) = fleet.placement(object_of(s)).cloned() else {
                        kernel.note_spurious();
                        continue;
                    };
                    // Prefer a live sibling the detector does not consider
                    // gray; settle for any live sibling.
                    let mut pick: Option<Replica> = None;
                    let mut candidate = placement.next_after(cur);
                    for _ in 0..placement.replicas().len() {
                        if candidate.member != cur
                            && reachable(&schedule, candidate.member, now)
                            && !health.is_down(candidate.member)
                        {
                            if health.state(candidate.member) != MemberHealth::Slow {
                                pick = Some(candidate);
                                break;
                            }
                            pick.get_or_insert(candidate);
                        }
                        candidate = placement.next_after(candidate.member);
                    }
                    let Some(sibling) = pick else {
                        kernel.note_spurious();
                        continue;
                    };
                    progressed = true;
                    hedges_fired += 1;
                    let hedge_rid = next_rid;
                    next_rid += 1;
                    hedge_partner.insert(request_id, hedge_rid);
                    hedge_of.insert(hedge_rid, request_id);
                    let span = ByteSpan::at(sibling.span.start + page as u64 * page_len, page_len);
                    let frame = Frame::request_with_priority(
                        s as u64 + 1,
                        hedge_rid,
                        Priority::Audio,
                        ServerRequest::FetchSpan { span },
                    );
                    let arrival = up_free + link.transfer(frame.wire_size());
                    up_free = arrival;
                    arrivals.insert(hedge_rid, arrival);
                    inflight.insert(
                        hedge_rid,
                        InFlightPage { session: s, page, member: sibling.member, issued },
                    );
                    fleet
                        .member_mut(sibling.member)
                        .expect("replica indices are in range")
                        .enqueue(frame)?;
                    dirty[sibling.member].insert(s as u64 + 1);
                    kernel.arm(arrival, KernelEvent::ServerWake { member: sibling.member as u64 });
                }
                KernelEvent::RepairDue { .. } => {
                    let now = kernel.now();
                    let Some(task) = repairs.pop() else {
                        repair_idle = true;
                        kernel.note_spurious();
                        continue;
                    };
                    progressed = true;
                    let holders: Vec<usize> = fleet
                        .placement(task.object)
                        .map(|p| p.replicas().iter().map(|r| r.member).collect())
                        .unwrap_or_default();
                    let mut next_at = now;
                    if holders.contains(&task.lost) {
                        let exclude: Vec<usize> = (0..members)
                            .filter(|&x| schedule.is_down(x, now) || health.is_down(x))
                            .collect();
                        let sources: Vec<usize> = holders
                            .iter()
                            .copied()
                            .filter(|&h| h != task.lost && !exclude.contains(&h))
                            .collect();
                        let target = fleet.ring_successor(task.object, &exclude);
                        let mut done = false;
                        if let Some(target) = target {
                            for source in sources {
                                match fleet.repair_replica(task.object, task.lost, source, target) {
                                    Ok(receipt) => {
                                        // Charge the rebuild where it ran:
                                        // source read, shared wire, target
                                        // append.
                                        let start = now.max(dev_free[source]);
                                        dev_free[source] = start + receipt.read_time;
                                        let moved = dev_free[source] + link.transfer(receipt.bytes);
                                        down_free = down_free.max(moved);
                                        let finished =
                                            moved.max(dev_free[target]) + receipt.write_time;
                                        dev_free[target] = finished;
                                        next_at = finished;
                                        repairs.note_completed(receipt.bytes);
                                        done = true;
                                        break;
                                    }
                                    Err(MinosError::Corrupt(_)) => continue,
                                    Err(_) => break,
                                }
                            }
                        }
                        if !done {
                            repairs.note_failed();
                        }
                    }
                    if repairs.is_empty() {
                        repair_idle = true;
                    } else {
                        // The throttle: one task per spacing, measured
                        // from the previous task's completion.
                        kernel.arm(next_at + repair_spacing, KernelEvent::RepairDue { task: 0 });
                    }
                }
                KernelEvent::DeadlineFired { key } if key == SCRUB_KEY => {
                    let now = kernel.now();
                    let m = scrub_cursor % members;
                    scrub_cursor += 1;
                    let mut finished = now;
                    if reachable(&schedule, m, now) {
                        progressed = true;
                        let report = fleet.scrub_member(m)?;
                        scrub_pages += report.pages;
                        scrub_detected += report.corrupt.len() as u64;
                        dev_free[m] = now.max(dev_free[m]) + report.device_time;
                        let mut objects: Vec<ObjectId> =
                            report.corrupt.iter().map(|c| c.0).collect();
                        objects.dedup();
                        for object in objects {
                            let receipt = fleet.heal_copy(object, m)?;
                            scrub_heals += 1;
                            let start = dev_free[m].max(dev_free[receipt.source]);
                            dev_free[receipt.source] = start + receipt.read_time;
                            let moved = dev_free[receipt.source] + link.transfer(receipt.bytes);
                            down_free = down_free.max(moved);
                            dev_free[m] = moved.max(dev_free[m]) + receipt.write_time;
                        }
                        finished = dev_free[m];
                    }
                    if let Some(interval) = scrub_interval {
                        // Paced off completion, not a wall cadence: a pass
                        // costs real device time, and arming off `now`
                        // would let passes pile onto a device faster than
                        // it can serve them — the interval is the idle gap
                        // between passes.
                        kernel.arm(
                            finished.max(now) + interval,
                            KernelEvent::DeadlineFired { key: SCRUB_KEY },
                        );
                    }
                }
                KernelEvent::DeadlineFired { key } => {
                    match schedule.events().get(key as usize).copied() {
                        Some(ChaosEvent::RestartAt { member, .. }) => {
                            progressed = true;
                            fleet.restart_member(member)?;
                            // The epoch resync (and the replay of what the
                            // old incarnation stranded) happens at the next
                            // heartbeat echo.
                        }
                        _ => kernel.note_spurious(),
                    }
                }
                _ => kernel.note_spurious(),
            }
        }
        if !progressed && !submitted {
            // Nothing moved and nothing new went out: jump simulated time
            // to the next armed deadline (a heartbeat at the latest).
            let Some(deadline) = kernel.next_deadline() else {
                return Err(MinosError::Internal("chaos workload wedged with no timer".into()));
            };
            kernel.advance_to(deadline);
            up_free = up_free.max(kernel.now());
        }
    }

    // Final sweep: freeze the decay, scrub every member's media (a crash
    // loses volatile queues, never media), heal what is found, and prove
    // the archives clean end to end.
    let mut bit_rot_flips = 0u64;
    for m in 0..members {
        let device =
            fleet.member_mut(m).expect("sweep indices are in range").archiver_mut().device_mut();
        device.set_bit_rot(0, 0.0);
        bit_rot_flips += device.bit_rot_flips();
    }
    let mut final_corrupt_pages = 0u64;
    for m in 0..members {
        let sweep = fleet.scrub_member(m)?;
        scrub_pages += sweep.pages;
        scrub_detected += sweep.corrupt.len() as u64;
        let mut objects: Vec<ObjectId> = sweep.corrupt.iter().map(|c| c.0).collect();
        objects.dedup();
        for object in objects {
            fleet.heal_copy(object, m)?;
            scrub_heals += 1;
        }
        let recheck = fleet.scrub_member(m)?;
        final_corrupt_pages += recheck.corrupt.len() as u64;
    }
    let end = kernel.now();
    let want_copies = replication.min(members);
    let mut replication_ok = true;
    for s in 0..sessions {
        let Some(placement) = fleet.placement(object_of(s)) else {
            replication_ok = false;
            continue;
        };
        let holders: BTreeSet<usize> = placement.replicas().iter().map(|r| r.member).collect();
        if holders.len() < want_copies || holders.iter().any(|&h| schedule.is_down(h, end)) {
            replication_ok = false;
        }
    }
    let audio_p99 = p99(&mut audio_lat);
    let total_pages = sessions as u64 * pages_per_session as u64;
    let repair_stats = repairs.stats();
    let health_stats = health.stats();
    Ok(ChaosReport {
        elapsed: last_delivered.since(SimInstant::EPOCH),
        pages: delivered,
        lost_pages: total_pages.saturating_sub(delivered),
        bytes: link.stats().bytes,
        audio_p99,
        hedges_fired,
        hedge_wins,
        duplicates_suppressed,
        down_transitions: health_stats.down_transitions,
        slow_transitions: health_stats.slow_transitions,
        epoch_resyncs,
        replays,
        repairs_completed: repair_stats.completed,
        repair_bytes: repair_stats.bytes_rebuilt,
        scrub_pages,
        scrub_detected,
        scrub_heals,
        read_repairs,
        bit_rot_flips,
        final_corrupt_pages,
        premature_busy_retries,
        replication_ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_config(seed: u64) -> ChaosWorkloadConfig {
        ChaosWorkloadConfig {
            members: 3,
            replication: 2,
            sessions: 4,
            audio_sessions: 2,
            pages_per_session: 6,
            page_len: 2048,
            schedule: ChaosSchedule::new(seed),
            hedge_delay: Some(SimDuration::from_millis(5)),
            heartbeat: SimDuration::from_millis(2),
            scrub_interval: Some(SimDuration::from_millis(50)),
            repair_spacing: SimDuration::from_millis(2),
            service: ServiceConfig::default(),
        }
    }

    #[test]
    fn schedule_queries_fold_declared_windows() {
        let ms = SimDuration::from_millis;
        let at = |t: u64| SimInstant::EPOCH + ms(t);
        let schedule = ChaosSchedule::new(7)
            .crash_at(0, at(10))
            .restart_at(0, at(20))
            .slow_between(1, at(5), at(15), 8)
            .partition_between(2, at(1), at(3))
            .bit_rot(1, 1000);
        assert!(!schedule.is_down(0, at(9)));
        assert!(schedule.is_down(0, at(10)));
        assert!(schedule.is_down(0, at(19)));
        assert!(!schedule.is_down(0, at(20)));
        assert_eq!(schedule.slow_factor(1, at(4)), 1);
        assert_eq!(schedule.slow_factor(1, at(5)), 8);
        assert_eq!(schedule.slow_factor(1, at(15)), 1);
        assert!(schedule.is_partitioned(2, at(2)));
        assert!(!schedule.is_partitioned(2, at(3)));
        assert_eq!(schedule.rot_rate_ppm(1), 1000);
        assert_eq!(schedule.rot_rate_ppm(0), 0);
        let stats = schedule.stats();
        assert_eq!(
            (
                stats.crashes,
                stats.restarts,
                stats.slow_windows,
                stats.partitions,
                stats.rot_members
            ),
            (1, 1, 1, 1, 1)
        );
        let mut schedule = schedule;
        schedule.reset_stats();
        assert_eq!(schedule.stats(), ChaosStats::default());
        assert_eq!(schedule.events().len(), 5, "reset clears accounting, not events");
    }

    #[test]
    fn clean_schedule_delivers_everything_without_healing() {
        let report = simulate_chaos_workload(clean_config(1)).expect("clean run");
        assert_eq!(report.pages, 24);
        assert_eq!(report.lost_pages, 0);
        assert_eq!(report.read_repairs, 0);
        assert_eq!(report.bit_rot_flips, 0);
        assert_eq!(report.final_corrupt_pages, 0);
        assert_eq!(report.down_transitions, 0);
        assert_eq!(report.premature_busy_retries, 0);
        assert!(report.replication_ok, "{report:?}");
        assert!(report.audio_p99 > SimDuration::ZERO);
        // The scrub walked media even though nothing was wrong.
        assert!(report.scrub_pages > 0);
        assert_eq!(report.scrub_detected, 0);
    }

    #[test]
    fn chaos_runs_are_deterministic_for_equal_seeds() {
        let ms = SimDuration::from_millis;
        let schedule = |seed| {
            ChaosSchedule::new(seed)
                .bit_rot(0, 200_000)
                .crash_at(1, SimInstant::EPOCH + ms(30))
                .restart_at(1, SimInstant::EPOCH + ms(80))
        };
        let config = |seed| ChaosWorkloadConfig { schedule: schedule(seed), ..clean_config(seed) };
        let a = simulate_chaos_workload(config(5)).expect("run a");
        let b = simulate_chaos_workload(config(5)).expect("run b");
        assert_eq!(a, b, "equal seeds must replay identically");
        let c = simulate_chaos_workload(config(6)).expect("run c");
        assert_eq!(c.lost_pages, 0, "a different seed still loses nothing");
    }

    #[test]
    fn crash_without_restart_re_replicates_every_lost_copy() {
        let config = ChaosWorkloadConfig {
            members: 4,
            schedule: ChaosSchedule::new(3)
                .crash_at(1, SimInstant::EPOCH + SimDuration::from_millis(10)),
            ..clean_config(3)
        };
        let report = simulate_chaos_workload(config).expect("crash run");
        assert_eq!(report.lost_pages, 0, "{report:?}");
        assert!(report.down_transitions >= 1, "{report:?}");
        assert!(report.repairs_completed >= 1, "the dead member's copies move: {report:?}");
        assert!(report.replication_ok, "replication restored to k: {report:?}");
        assert_eq!(report.final_corrupt_pages, 0);
        assert_eq!(report.premature_busy_retries, 0);
    }

    #[test]
    fn schedule_validation_rejects_out_of_range_members() {
        let config = ChaosWorkloadConfig {
            schedule: ChaosSchedule::new(1).crash_at(9, SimInstant::EPOCH),
            ..clean_config(1)
        };
        assert!(simulate_chaos_workload(config).is_err());
        let config = ChaosWorkloadConfig { heartbeat: SimDuration::ZERO, ..clean_config(1) };
        assert!(simulate_chaos_workload(config).is_err());
    }
}

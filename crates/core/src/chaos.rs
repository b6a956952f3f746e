//! The fleet workload driver — E16 and E17 — and its chaos schedules.
//!
//! A [`ChaosSchedule`] is a seeded, declarative list of failures —
//! crashes, restarts, gray slowdowns, partitions, latent bit rot — that
//! replays identically across the bench harness and the tests.
//! [`simulate_chaos_workload`] is the one fleet page-reader driver: M
//! sessions demand-page against N members behind one shared link, and
//! the schedule (empty for the healthy E16 series) is injected while the
//! self-healing machinery runs:
//!
//! * kernel-timer heartbeats feed the [`HealthMonitor`]; a member that
//!   stops echoing walks `Up → Suspect → Down`, the pages it owed are
//!   replayed onto live siblings, and every replica it held is owed to
//!   the [`RepairQueue`]; an echo carrying a new restart epoch replays
//!   what the old incarnation stranded;
//! * the repair queue drains one task per [`KernelEvent::RepairDue`]
//!   timer — the serial spacing is the throttle that keeps rebuild
//!   traffic (charged to the real device timelines) from starving
//!   foreground audio;
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
//! Three invariants hold on every run, each checked by a `debug_assert!`:
//!
//! * **Closed loop.** A session's next request leaves no earlier than the
//!   delivery that freed its window slot.
//! * **One wire.** Responses cross the shared downlink one at a time, in
//!   device-completion order, each landing at its own instant.
//! * **Failures lose work.** A crash or restart of a member drops every
//!   response its device had not finished; the page is replayed from a
//!   live copy, which may be the restarted member itself. Nothing lands
//!   from a dead incarnation.
//!
//! The run ends only after every page delivered byte-identical, the
//! repair queue drained, and a final frozen-media sweep healed every
//! remaining rotten page — the [`ChaosReport`] pins all of it.

use crate::fleet::{
    Fleet, HealthMonitor, MemberHealth, RepairQueue, RepairReceipt, RepairTask, Replica,
};
use crate::kernel::{Kernel, KernelEvent};
use crate::sched::{p99, per_sim_second};
use minos_net::{
    crc32, BufferPool, Frame, FramePayload, Link, Priority, ServerRequest, ServerResponse,
};
use minos_server::ServiceConfig;
use minos_types::{ByteSpan, MinosError, ObjectId, Result, SimDuration, SimInstant};
use std::collections::{BTreeSet, HashMap};

/// One declared failure in a [`ChaosSchedule`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosEvent {
    /// The member crashes at `at`: it stops answering anything (its
    /// volatile queues are stranded, and responses its device had not
    /// finished are lost; its media survives) until a matching
    /// [`ChaosEvent::RestartAt`].
    CrashAt {
        /// Fleet index of the crashing member.
        member: usize,
        /// Crash instant.
        at: SimInstant,
    },
    /// The member restarts at `at`: its epoch bumps, its volatile queues
    /// clear, responses its device had not finished are lost, and it
    /// answers again.
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

    /// Whether `member` crashes or restarts at some instant in
    /// `[from, to)`: a response whose device service spans that instant
    /// dies with the incarnation that started it.
    pub(crate) fn interrupted(&self, member: usize, from: SimInstant, to: SimInstant) -> bool {
        self.events.iter().any(|event| {
            matches!(*event, ChaosEvent::CrashAt { member: m, at } | ChaosEvent::RestartAt { member: m, at }
                if m == member && from <= at && at < to)
        })
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

/// Configuration of one [`simulate_chaos_workload`] run. An empty
/// schedule with hedging and scrub off is the healthy fleet of E16; a
/// bare [`ChaosSchedule::restart_at`] is its mid-run restart row.
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

/// What one [`simulate_chaos_workload`] run measured — the E16 and E17
/// report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Simulated time until the last demand page was delivered.
    pub elapsed: SimDuration,
    /// Demand pages delivered byte-identical.
    pub pages: u64,
    /// Pages the run failed to deliver — pinned zero.
    pub lost_pages: u64,
    /// Bytes moved over the shared link (requests, responses, repairs).
    pub bytes: u64,
    /// 99th-percentile submit-to-delivery latency of the audio pages
    /// (zero when the run had no audio sessions).
    pub audio_p99: SimDuration,
    /// Pages served by each member, in fleet order — the
    /// placement-balance evidence.
    pub served_per_member: Vec<u64>,
    /// Requests re-aimed at a different member than the one that owed
    /// them (a replay or a `Busy` rotation).
    pub failovers: u64,
    /// Demand pages parked on a retry timer after a `Busy` turn-away.
    pub busy_deferred: u64,
    /// Prefetch-class frames the fleet's admission control shed.
    pub shed: u64,
    /// Demand frames rejected outright across the fleet.
    pub busy_rejections: u64,
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
    /// Pages sent again because the member that owed them died or
    /// restarted before answering.
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

impl ChaosReport {
    /// Aggregate demand goodput in verified pages per simulated second.
    pub fn goodput_pages_per_sec(&self) -> f64 {
        per_sim_second(self.pages, self.elapsed)
    }
}

/// Demand-page window each session keeps in flight.
const SESSION_WINDOW: usize = 2;
/// The scrub timer's `DeadlineFired` correlation key (schedule events use
/// their index, far below this).
const SCRUB_KEY: u64 = u64::MAX;
/// Kernel events handled before the run is declared wedged.
const MAX_EVENTS: u64 = 20_000_000;

/// The per-session byte pattern — session-distinct so a page served from
/// the wrong object or offset can never verify.
fn pattern(session: usize, offset: u64) -> u8 {
    ((offset + session as u64 * 17) % 241) as u8
}

/// The object session `s` reads.
fn object_of(s: usize) -> ObjectId {
    ObjectId::new(s as u64 + 1)
}

/// Whether the workstation can currently exchange frames with `member`.
fn reachable(schedule: &ChaosSchedule, member: usize, now: SimInstant) -> bool {
    !schedule.is_down(member, now) && !schedule.is_partitioned(member, now)
}

/// One demand page a member owes the workstation: who asked, which page,
/// which member and incarnation (restart epoch) it was last sent to, and
/// the instant its session's window slot freed — kept across replays,
/// deferrals and hedges, so the p99 measures what the listener felt.
struct InFlightPage {
    session: usize,
    page: usize,
    member: usize,
    epoch: u64,
    issued: SimInstant,
}

/// One response between its member's device and the workstation.
struct Landing {
    member: usize,
    frame: Frame,
    /// When the member's service pump took the request.
    polled: SimInstant,
    /// When the member's device finished it.
    done: SimInstant,
    /// Whether it holds its downlink slot (it is crossing the wire).
    on_wire: bool,
}

/// The state of one run: the fleet, the shared wire's two directions,
/// one device timeline per member, the kernel, the healing machinery,
/// and every page in flight.
struct Run {
    config: ChaosWorkloadConfig,
    fleet: Fleet,
    link: Link,
    kernel: Kernel,
    health: HealthMonitor,
    repairs: RepairQueue,
    repair_idle: bool,
    /// Heartbeat round trip on an idle wire — the baseline a gray
    /// member's multiplied echo is compared against.
    base_rtt_us: u64,
    up_free: SimInstant,
    down_free: SimInstant,
    dev_free: Vec<SimInstant>,
    /// Arrival instant of each request frame, keyed by (member, request).
    arrivals: HashMap<(usize, u64), SimInstant>,
    inflight: HashMap<u64, InFlightPage>,
    /// Pages parked on a `Busy` hint: when they may leave, and for which
    /// member.
    deferred: HashMap<u64, (SimInstant, usize)>,
    /// Hedge pairing, both ways: a hedge's id is always the larger.
    hedges: HashMap<u64, u64>,
    /// Responses past their member's pump, keyed by landing sequence.
    landing: HashMap<u64, Landing>,
    next_landing: u64,
    /// Per member, the connections with frames enqueued since its last
    /// pump.
    dirty: Vec<BTreeSet<u64>>,
    /// The restart epoch of each member as the heartbeats last saw it.
    epochs: Vec<u64>,
    next_page: Vec<usize>,
    next_rid: u64,
    scrub_cursor: usize,
    audio_lat: Vec<SimDuration>,
    report: ChaosReport,
}

/// Runs one fleet page-reader workload — E16 and E17 alike: every
/// session keeps [`SESSION_WINDOW`] demand pages in flight against a
/// `k`-replicated fleet behind one shared Ethernet, while the schedule's
/// failures are injected and the self-healing machinery — health
/// heartbeats, proactive re-replication, scrub with read-repair, hedged
/// audio reads — absorbs them. See the module docs for the moving parts
/// and the three invariants; see [`ChaosReport`] for what is pinned.
pub fn simulate_chaos_workload(config: ChaosWorkloadConfig) -> Result<ChaosReport> {
    let mut run = Run::new(config)?;
    run.drive()?;
    run.finish()
}

impl Run {
    /// Validates the config, publishes one paged object per session,
    /// starts the latent decay, and arms the heartbeat, scrub, restart
    /// and partition-heal timers.
    fn new(config: ChaosWorkloadConfig) -> Result<Run> {
        let ChaosWorkloadConfig { members, sessions, pages_per_session, page_len, .. } = config;
        if sessions == 0 || pages_per_session == 0 || page_len == 0 {
            return Err(MinosError::Internal("workload needs sessions, pages, and bytes".into()));
        }
        if config.heartbeat == SimDuration::ZERO {
            return Err(MinosError::Internal("the fleet driver requires a heartbeat".into()));
        }
        if let Some(bad) = config.schedule.events().iter().find(|e| e.member() >= members) {
            return Err(MinosError::Internal(format!(
                "schedule event {bad:?} targets a member outside the fleet of {members}"
            )));
        }
        let mut fleet = Fleet::new(members, config.replication)?;
        fleet.set_service_config(config.service);
        fleet.prewarm_payloads(BufferPool::DEFAULT_RETAIN_CAP, page_len as usize);
        for s in 0..sessions {
            let data: Vec<u8> =
                (0..pages_per_session as u64 * page_len).map(|i| pattern(s, i)).collect();
            fleet.publish_paged(object_of(s), &data, page_len)?;
        }
        // Latent decay starts with the run, seeded per member off the
        // schedule seed.
        for m in 0..members {
            let ppm = config.schedule.rot_rate_ppm(m);
            if ppm > 0 {
                let seed =
                    config.schedule.seed() ^ (m as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                fleet
                    .member_mut(m)
                    .expect("rot members validated above")
                    .archiver_mut()
                    .device_mut()
                    .set_bit_rot(seed, ppm as f64 / 1_000_000.0);
            }
        }
        let link = Link::ethernet();
        let ping = Frame::request(0, 0, ServerRequest::Ping { nonce: 0 });
        let pong = Frame::response(0, 0, ServerResponse::Pong { nonce: 0, epoch: 0 });
        let base_rtt_us = (link.transfer_cost(ping.wire_size())
            + link.transfer_cost(pong.wire_size()))
        .as_micros();
        // Timers: heartbeats per member, the scrub cadence, restart events
        // (crashes and slowdowns are pure time queries), and a wake at
        // every partition heal so stranded frames drain.
        let mut kernel = Kernel::new();
        for m in 0..members {
            kernel.arm(
                SimInstant::EPOCH + config.heartbeat,
                KernelEvent::HealthTick { member: m as u64 },
            );
        }
        if let Some(interval) = config.scrub_interval {
            kernel.arm(SimInstant::EPOCH + interval, KernelEvent::DeadlineFired { key: SCRUB_KEY });
        }
        for (idx, event) in config.schedule.events().iter().enumerate() {
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
        let audio_pages = config.audio_sessions.min(sessions) * pages_per_session;
        Ok(Run {
            epochs: (0..members).map(|m| fleet.epoch(m)).collect(),
            fleet,
            link,
            kernel,
            health: HealthMonitor::new(members),
            repairs: RepairQueue::new(),
            repair_idle: true,
            base_rtt_us,
            up_free: SimInstant::EPOCH,
            down_free: SimInstant::EPOCH,
            dev_free: vec![SimInstant::EPOCH; members],
            arrivals: HashMap::new(),
            inflight: HashMap::new(),
            deferred: HashMap::new(),
            hedges: HashMap::new(),
            landing: HashMap::new(),
            next_landing: 0,
            dirty: (0..members).map(|_| BTreeSet::new()).collect(),
            next_page: vec![0; sessions],
            next_rid: 1,
            scrub_cursor: 0,
            audio_lat: Vec::with_capacity(audio_pages),
            report: ChaosReport::default(),
            config,
        })
    }

    /// Fills every session's window, then handles kernel events in
    /// deadline order until every page is delivered and the repair queue
    /// has drained.
    fn drive(&mut self) -> Result<()> {
        for s in 0..self.config.sessions {
            for _ in 0..SESSION_WINDOW {
                self.submit(s, SimInstant::EPOCH)?;
            }
        }
        let total = (self.config.sessions * self.config.pages_per_session) as u64;
        let mut events = 0u64;
        while self.report.pages < total || !self.repairs.is_empty() || !self.repair_idle {
            let Some(event) = self.kernel.take_ready() else {
                let Some(deadline) = self.kernel.next_deadline() else {
                    return Err(MinosError::Internal("fleet workload wedged with no timer".into()));
                };
                self.kernel.advance_to(deadline);
                continue;
            };
            events += 1;
            if events > MAX_EVENTS {
                return Err(MinosError::Internal("fleet workload failed to converge".into()));
            }
            match event {
                KernelEvent::ServerWake { member } => self.pump(member as usize),
                KernelEvent::ResponseLanded { request_id, .. } => self.response(request_id)?,
                KernelEvent::RetryDue { request_id, .. } => self.retry(request_id)?,
                KernelEvent::HealthTick { member } => self.heartbeat(member as usize)?,
                KernelEvent::HedgeFire { request_id } => self.hedge(request_id)?,
                KernelEvent::RepairDue { .. } => self.repair(),
                KernelEvent::DeadlineFired { key } if key == SCRUB_KEY => self.scrub()?,
                KernelEvent::DeadlineFired { key } => {
                    match self.config.schedule.events().get(key as usize).copied() {
                        Some(ChaosEvent::RestartAt { member, .. }) => {
                            self.fleet.restart_member(member)?;
                            // Device work the old incarnation had not
                            // finished dies with it. The epoch resync, and
                            // the replay of what it stranded, happen at the
                            // next heartbeat echo.
                            self.dev_free[member] = self.kernel.now();
                        }
                        _ => self.kernel.note_spurious(),
                    }
                }
                _ => self.kernel.note_spurious(),
            }
        }
        Ok(())
    }

    /// Whether `member` can take work at `now`: reachable, and not
    /// declared down by the detector.
    fn live(&self, member: usize, now: SimInstant) -> bool {
        reachable(&self.config.schedule, member, now) && !self.health.is_down(member)
    }

    /// The first live replica of session `s`'s object walking the
    /// rendezvous ring from `from`, inclusive.
    fn first_live(&self, s: usize, from: Replica) -> Option<Replica> {
        let placement = self.fleet.placement(object_of(s))?;
        let now = self.kernel.now();
        let mut candidate = from;
        for _ in 0..placement.replicas().len() {
            if self.live(candidate.member, now) {
                return Some(candidate);
            }
            candidate = placement.next_after(candidate.member);
        }
        None
    }

    /// `member`'s copy of session `s`'s object (its ring successor's when
    /// the copy has moved away).
    fn replica(&self, s: usize, member: usize) -> Replica {
        let placement = self.fleet.placement(object_of(s)).expect("published objects stay placed");
        let held = placement.replicas().iter().find(|r| r.member == member).copied();
        held.unwrap_or_else(|| placement.next_after(member))
    }

    /// Asks for session `s`'s next page, if any, in the window slot a
    /// delivery freed at `freed`. The page goes to the live holder of its
    /// block of the object — replica `i` of `k` serves the `i`-th run of
    /// pages, keeping each optical head sequential.
    fn submit(&mut self, s: usize, freed: SimInstant) -> Result<()> {
        let page = self.next_page[s];
        if page == self.config.pages_per_session {
            return Ok(());
        }
        self.next_page[s] += 1;
        let rid = self.next_rid;
        self.next_rid += 1;
        let replicas =
            self.fleet.placement(object_of(s)).expect("published objects stay placed").replicas();
        let preferred = replicas[page * replicas.len() / self.config.pages_per_session];
        let to = self.first_live(s, preferred).unwrap_or(preferred);
        let page = InFlightPage { session: s, page, member: to.member, epoch: 0, issued: freed };
        self.inflight.insert(rid, page);
        let left = self.send(rid, to, freed)?;
        debug_assert!(left >= freed, "closed loop: page {rid} left before its slot freed");
        // An audio page aimed at a gray member gets a hedge timer: if the
        // answer has not landed by then, a duplicate goes to a sibling.
        if let Some(delay) = self.config.hedge_delay {
            if s < self.config.audio_sessions && self.health.state(to.member) == MemberHealth::Slow
            {
                self.kernel.arm(freed + delay, KernelEvent::HedgeFire { request_id: rid });
            }
        }
        Ok(())
    }

    /// Puts in-flight page `rid` on the uplink to replica `to`, leaving
    /// no earlier than `ready`: builds the frame, charges the uplink,
    /// records the arrival, enqueues the frame at the member, marks the
    /// session's connection dirty, and arms the member's `ServerWake` at
    /// the arrival. Returns the departure instant.
    fn send(&mut self, rid: u64, to: Replica, ready: SimInstant) -> Result<SimInstant> {
        let epoch = self.fleet.epoch(to.member);
        let p = self.inflight.get_mut(&rid).expect("only in-flight pages are sent");
        p.member = to.member;
        p.epoch = epoch;
        let (s, page_len) = (p.session, self.config.page_len);
        let span = ByteSpan::at(to.span.start + p.page as u64 * page_len, page_len);
        let priority =
            if s < self.config.audio_sessions { Priority::Audio } else { Priority::Demand };
        let frame = Frame::request_with_priority(
            s as u64 + 1,
            rid,
            priority,
            ServerRequest::FetchSpan { span },
        );
        let leave = self.up_free.max(ready);
        self.up_free = leave + self.link.transfer(frame.wire_size());
        self.arrivals.insert((to.member, rid), self.up_free);
        self.fleet.member_mut(to.member).expect("replica indices are in range").enqueue(frame)?;
        self.dirty[to.member].insert(s as u64 + 1);
        self.kernel.arm(self.up_free, KernelEvent::ServerWake { member: to.member as u64 });
        Ok(leave)
    }

    /// Re-aims page `rid` at the next live replica after the member that
    /// owes it — that member itself when no sibling is live, `None` when
    /// no copy is.
    fn fail_over(&mut self, rid: u64) -> Option<Replica> {
        let p = self.inflight.get(&rid)?;
        let (s, from) = (p.session, p.member);
        let next = self.fleet.placement(object_of(s))?.next_after(from);
        let to = self.first_live(s, next)?;
        if to.member != from {
            self.report.failovers += 1;
        }
        Some(to)
    }

    /// The service pump for member `m`: serves the connections marked
    /// dirty, then whatever its own wake list names (`Busy` rejections,
    /// restart orphans). Each response holds the member's device, scaled
    /// by any gray window in force, then waits for the wire at its
    /// device completion.
    fn pump(&mut self, m: usize) {
        let now = self.kernel.now();
        if !reachable(&self.config.schedule, m, now) {
            self.kernel.note_spurious();
            return;
        }
        let mut conns: Vec<u64> = std::mem::take(&mut self.dirty[m]).into_iter().collect();
        while !conns.is_empty() {
            for conn in conns {
                while let Some((frame, charge)) =
                    self.fleet.member_mut(m).expect("wake events name members").poll_conn(conn)
                {
                    let arrival = self.arrivals.remove(&(m, frame.request_id)).unwrap_or(now);
                    let factor = self.config.schedule.slow_factor(m, arrival);
                    let charge =
                        SimDuration::from_micros(charge.as_micros().saturating_mul(factor));
                    let done = arrival.max(self.dev_free[m]) + charge;
                    self.dev_free[m] = done;
                    let seq = self.next_landing;
                    self.next_landing += 1;
                    let landing = Landing { member: m, frame, polled: now, done, on_wire: false };
                    self.landing.insert(seq, landing);
                    self.kernel
                        .arm(done, KernelEvent::ResponseLanded { conn: m as u64, request_id: seq });
                }
            }
            conns = self.fleet.member_mut(m).expect("wake events name members").take_woken();
        }
    }

    /// Response `seq` reached its next instant. At its device completion
    /// it either dies with its member — a crash or restart during its
    /// service loses it, and the page stays owed until the detector
    /// replays it — or takes the next free slot on the one downlink:
    /// reserving in completion order serializes every response, yet each
    /// still lands at its own instant, so a hedge races its original.
    /// At its landing it is handled.
    fn response(&mut self, seq: u64) -> Result<()> {
        let schedule = &self.config.schedule;
        let Some(l) = self.landing.get_mut(&seq) else {
            self.kernel.note_spurious();
            return Ok(());
        };
        if l.on_wire {
            let l = self.landing.remove(&seq).expect("checked above");
            debug_assert!(
                !schedule.interrupted(l.member, l.polled, l.done),
                "a response landed from a dead incarnation of member {}",
                l.member
            );
            return self.land(l.member, l.frame);
        }
        if schedule.interrupted(l.member, l.polled, l.done) {
            let l = self.landing.remove(&seq).expect("checked above");
            self.recycle(l.member, l.frame);
            return Ok(());
        }
        let start = self.down_free.max(l.done);
        debug_assert!(start >= self.down_free, "two responses overlap on the downlink");
        self.down_free = start + self.link.transfer(l.frame.wire_size());
        l.on_wire = true;
        let conn = l.member as u64;
        self.kernel.arm(self.down_free, KernelEvent::ResponseLanded { conn, request_id: seq });
        Ok(())
    }

    /// Returns a dead or duplicate response's page buffer to its member's
    /// pool.
    fn recycle(&mut self, m: usize, frame: Frame) {
        if let FramePayload::Response(ServerResponse::Span(bytes)) = frame.payload {
            self.fleet.member_mut(m).expect("landing members are in range").recycle_payload(bytes);
        }
    }

    /// Handles a response from member `m` landing now: a verified page is
    /// delivered (its hedge partner, if any, suppressed), a rotten one is
    /// healed and re-served, and a `Busy` turn-away parks the page on the
    /// member's hint.
    fn land(&mut self, m: usize, frame: Frame) -> Result<()> {
        let at = self.kernel.now();
        let rid = frame.request_id;
        let Some(p) = self.inflight.get(&rid) else {
            // A hedge loser or a post-partition straggler: the page
            // already landed through another path.
            self.report.duplicates_suppressed += 1;
            self.recycle(m, frame);
            return Ok(());
        };
        let (s, page, issued) = (p.session, p.page, p.issued);
        let FramePayload::Response(response) = frame.payload else {
            return Err(MinosError::Internal(format!("member {m} answered with a request")));
        };
        match response {
            ServerResponse::Span(bytes) => {
                let want = self.fleet.checksums(object_of(s)).and_then(|c| c.crcs.get(page));
                if bytes.len() as u64 == self.config.page_len && want == Some(&crc32(&bytes)) {
                    let from = page as u64 * self.config.page_len;
                    if !bytes.iter().enumerate().all(|(i, &b)| b == pattern(s, from + i as u64)) {
                        return Err(MinosError::Internal(format!(
                            "session {s} page {page} passed its CRC with foreign bytes"
                        )));
                    }
                    if let Some(other) = self.hedges.remove(&rid) {
                        self.hedges.remove(&other);
                        self.inflight.remove(&other);
                        if other < rid {
                            self.report.hedge_wins += 1;
                        }
                    }
                    self.inflight.remove(&rid);
                    self.deliver(s, issued, at)?;
                } else {
                    self.read_repair(rid, m, at)?;
                }
                self.fleet
                    .member_mut(m)
                    .expect("landing members are in range")
                    .recycle_payload(bytes);
            }
            ServerResponse::Busy { retry_after } => {
                if self.hedges.get(&rid).is_some_and(|&original| original < rid) {
                    // A turned-away hedge just dies; the original still
                    // owes the page.
                    if let Some(original) = self.hedges.remove(&rid) {
                        self.hedges.remove(&original);
                    }
                    self.inflight.remove(&rid);
                    return Ok(());
                }
                // Honor the hint: park the page on a retry timer, its
                // window slot held, and rotate it to a live sibling.
                self.report.busy_deferred += 1;
                let due = at + retry_after;
                let to = self.fail_over(rid).map_or(m, |r| r.member);
                self.deferred.insert(rid, (due, to));
                self.kernel.arm(due, KernelEvent::RetryDue { request_id: rid, attempt: 0 });
            }
            other => {
                return Err(MinosError::Internal(format!("unexpected response {other:?}")));
            }
        }
        Ok(())
    }

    /// Delivers one verified page of session `s` at `at`, freeing its
    /// window slot: the session's next page is asked for right there,
    /// never before the delivery that freed the slot — a closed loop.
    fn deliver(&mut self, s: usize, issued: SimInstant, at: SimInstant) -> Result<()> {
        self.report.pages += 1;
        self.report.elapsed = self.report.elapsed.max(at.since(SimInstant::EPOCH));
        if s < self.config.audio_sessions {
            // One sample per audio page: the capacity reserved up front.
            debug_assert!(self.audio_lat.len() < self.audio_lat.capacity());
            self.audio_lat.push(at.saturating_since(issued));
        }
        self.submit(s, at)
    }

    /// Read-repair: member `m`'s stored copy of page `rid` rotted. Heal
    /// it from a verified sibling, then re-serve the page from the fresh
    /// copy — unless a hedge partner still owes it, which then races
    /// alone.
    fn read_repair(&mut self, rid: u64, m: usize, at: SimInstant) -> Result<()> {
        self.report.read_repairs += 1;
        let s = self.inflight.get(&rid).expect("repaired pages are in flight").session;
        let receipt = self.fleet.heal_copy(object_of(s), m)?;
        self.charge_copy(&receipt, at);
        if let Some(other) = self.hedges.remove(&rid) {
            self.hedges.remove(&other);
            self.inflight.remove(&rid);
            return Ok(());
        }
        let to = self.replica(s, m);
        self.send(rid, to, at).map(drop)
    }

    /// A `Busy`-deferred page's hint elapsed: resubmit it, never before
    /// the hint.
    fn retry(&mut self, rid: u64) -> Result<()> {
        let Some((due, member)) = self.deferred.remove(&rid) else {
            self.kernel.note_spurious();
            return Ok(());
        };
        let Some(p) = self.inflight.get(&rid) else {
            self.kernel.note_spurious();
            return Ok(());
        };
        let to = self.replica(p.session, member);
        if self.send(rid, to, due)? < due {
            self.report.premature_busy_retries += 1;
        }
        Ok(())
    }

    /// Member `m`'s heartbeat: a reachable member echoes (its round trip
    /// scaled by any gray window), and an echo carrying a new epoch
    /// resyncs and replays what the old incarnation stranded; a silent
    /// member walks toward `Down`, and once down every copy it held is
    /// owed to the repair queue and every page it owed is replayed.
    fn heartbeat(&mut self, m: usize) -> Result<()> {
        let now = self.kernel.now();
        self.health.note_ping(m);
        if reachable(&self.config.schedule, m, now) {
            let factor = self.config.schedule.slow_factor(m, now);
            let rtt = SimDuration::from_micros(self.base_rtt_us.saturating_mul(factor).max(1));
            self.health.note_pong(m, rtt);
            if self.fleet.epoch(m) != self.epochs[m] {
                self.epochs[m] = self.fleet.epoch(m);
                self.report.epoch_resyncs += 1;
                self.replay(m, false)?;
            }
        } else if self.health.note_miss(m) == MemberHealth::Down {
            // Admission dedups, so re-declaring the same death is free.
            for object in self.fleet.objects_on(m) {
                if self.repairs.admit(RepairTask { object, lost: m }) && self.repair_idle {
                    self.repair_idle = false;
                    let due = now + self.config.repair_spacing;
                    self.kernel.arm(due, KernelEvent::RepairDue { task: 0 });
                }
            }
            self.replay(m, true)?;
        }
        self.kernel.arm(now + self.config.heartbeat, KernelEvent::HealthTick { member: m as u64 });
        Ok(())
    }

    /// Replays the pages member `m` owes that died with it — all of them
    /// when it is down, else those sent to an older incarnation — onto a
    /// live copy, which may be `m` itself. A page whose answer is already
    /// on the wire, or that waits on a `Busy` hint, is left alone; one
    /// with no live copy stays owed until a copy heals.
    fn replay(&mut self, m: usize, down: bool) -> Result<()> {
        let epoch = self.fleet.epoch(m);
        let on_wire: BTreeSet<u64> = self
            .landing
            .values()
            .filter(|l| l.on_wire && l.member == m)
            .map(|l| l.frame.request_id)
            .collect();
        // Sorted so the replay order never depends on hash iteration —
        // equal seeds must replay identically.
        let mut lost: Vec<u64> = self
            .inflight
            .iter()
            .filter(|&(rid, p)| {
                p.member == m
                    && (down || p.epoch != epoch)
                    && !self.deferred.contains_key(rid)
                    && !on_wire.contains(rid)
            })
            .map(|(&rid, _)| rid)
            .collect();
        lost.sort_unstable();
        let now = self.kernel.now();
        for rid in lost {
            let Some(to) = self.fail_over(rid) else {
                continue;
            };
            self.report.replays += 1;
            self.send(rid, to, now)?;
        }
        Ok(())
    }

    /// The hedge delay of audio page `rid` expired with the page still
    /// owed: fire a speculative duplicate at a live sibling — preferring
    /// one the detector does not consider gray — and let the first valid
    /// answer win.
    fn hedge(&mut self, rid: u64) -> Result<()> {
        let now = self.kernel.now();
        let pick = self
            .inflight
            .get(&rid)
            .filter(|_| !self.hedges.contains_key(&rid) && !self.deferred.contains_key(&rid));
        let sibling = pick.and_then(|p| {
            let placement = self.fleet.placement(object_of(p.session))?;
            let mut live = placement
                .replicas()
                .iter()
                .filter(|r| r.member != p.member && self.live(r.member, now));
            let fast = live.clone().find(|r| self.health.state(r.member) != MemberHealth::Slow);
            fast.or_else(|| live.next()).copied()
        });
        let (Some(p), Some(sibling)) = (pick, sibling) else {
            self.kernel.note_spurious();
            return Ok(());
        };
        let hedge = InFlightPage { member: sibling.member, epoch: 0, ..*p };
        self.report.hedges_fired += 1;
        let hedge_rid = self.next_rid;
        self.next_rid += 1;
        self.hedges.insert(rid, hedge_rid);
        self.hedges.insert(hedge_rid, rid);
        self.inflight.insert(hedge_rid, hedge);
        self.send(hedge_rid, sibling, now).map(drop)
    }

    /// Charges one replica copy where it ran — the source read, the
    /// member-to-member transfer, the target append — starting no earlier
    /// than `from`. Returns when the copy is durable.
    fn charge_copy(&mut self, receipt: &RepairReceipt, from: SimInstant) -> SimInstant {
        let read = from.max(self.dev_free[receipt.source]) + receipt.read_time;
        self.dev_free[receipt.source] = read;
        let moved = read + self.link.transfer(receipt.bytes);
        let durable = moved.max(self.dev_free[receipt.target]) + receipt.write_time;
        self.dev_free[receipt.target] = durable;
        durable
    }

    /// Drains one re-replication task: rebuild the lost copy from a live,
    /// verified sibling onto the object's ring successor, then arm the
    /// next task one spacing after this one completes — the throttle.
    fn repair(&mut self) {
        let now = self.kernel.now();
        let Some(task) = self.repairs.pop() else {
            self.repair_idle = true;
            self.kernel.note_spurious();
            return;
        };
        let holders: Vec<usize> = self
            .fleet
            .placement(task.object)
            .map(|p| p.replicas().iter().map(|r| r.member).collect())
            .unwrap_or_default();
        let mut next_at = now;
        if holders.contains(&task.lost) {
            let exclude: Vec<usize> = (0..self.config.members)
                .filter(|&x| self.config.schedule.is_down(x, now) || self.health.is_down(x))
                .collect();
            let sources = holders.iter().filter(|&h| *h != task.lost && !exclude.contains(h));
            let mut done = false;
            if let Some(target) = self.fleet.ring_successor(task.object, &exclude) {
                for &source in sources {
                    match self.fleet.repair_replica(task.object, task.lost, source, target) {
                        Ok(receipt) => {
                            next_at = self.charge_copy(&receipt, now);
                            self.repairs.note_completed(receipt.bytes);
                            done = true;
                            break;
                        }
                        Err(MinosError::Corrupt(_)) => continue,
                        Err(_) => break,
                    }
                }
            }
            if !done {
                self.repairs.note_failed();
            }
        }
        if self.repairs.is_empty() {
            self.repair_idle = true;
        } else {
            let due = next_at + self.config.repair_spacing;
            self.kernel.arm(due, KernelEvent::RepairDue { task: 0 });
        }
    }

    /// Heals every object `corrupt` names on member `m` from a verified
    /// sibling, charged after `m`'s device frees.
    fn heal(&mut self, m: usize, corrupt: &[(ObjectId, usize)]) -> Result<()> {
        let mut objects: Vec<ObjectId> = corrupt.iter().map(|c| c.0).collect();
        objects.dedup();
        for object in objects {
            let receipt = self.fleet.heal_copy(object, m)?;
            self.report.scrub_heals += 1;
            self.charge_copy(&receipt, self.dev_free[m]);
        }
        Ok(())
    }

    /// One scrub tick: verify the next member's media round-robin, heal
    /// what it finds, and arm the next pass one interval after this one
    /// finishes — a pass costs real device time, and arming off `now`
    /// would pile passes onto a device faster than it serves them.
    fn scrub(&mut self) -> Result<()> {
        let now = self.kernel.now();
        let m = self.scrub_cursor % self.config.members;
        self.scrub_cursor += 1;
        let mut finished = now;
        if reachable(&self.config.schedule, m, now) {
            let pass = self.fleet.scrub_member(m)?;
            self.report.scrub_pages += pass.pages;
            self.report.scrub_detected += pass.corrupt.len() as u64;
            self.dev_free[m] = now.max(self.dev_free[m]) + pass.device_time;
            self.heal(m, &pass.corrupt)?;
            finished = self.dev_free[m];
        }
        if let Some(interval) = self.config.scrub_interval {
            let due = finished.max(now) + interval;
            self.kernel.arm(due, KernelEvent::DeadlineFired { key: SCRUB_KEY });
        }
        Ok(())
    }

    /// Final sweep: freeze the decay, scrub every member's media (a crash
    /// loses volatile queues, never media), heal what is found, prove the
    /// archives clean end to end, and fill in the report.
    fn finish(mut self) -> Result<ChaosReport> {
        let members = self.config.members;
        for m in 0..members {
            let member = self.fleet.member_mut(m).expect("sweep indices are in range");
            let device = member.archiver_mut().device_mut();
            device.set_bit_rot(0, 0.0);
            self.report.bit_rot_flips += device.bit_rot_flips();
        }
        for m in 0..members {
            let sweep = self.fleet.scrub_member(m)?;
            self.report.scrub_pages += sweep.pages;
            self.report.scrub_detected += sweep.corrupt.len() as u64;
            self.heal(m, &sweep.corrupt)?;
            self.report.final_corrupt_pages += self.fleet.scrub_member(m)?.corrupt.len() as u64;
        }
        let end = self.kernel.now();
        let want_copies = self.config.replication.min(members);
        let schedule = &self.config.schedule;
        let replication_ok = (0..self.config.sessions).all(|s| {
            self.fleet.placement(object_of(s)).is_some_and(|placement| {
                let holders: BTreeSet<usize> =
                    placement.replicas().iter().map(|r| r.member).collect();
                holders.len() >= want_copies && !holders.iter().any(|&h| schedule.is_down(h, end))
            })
        });
        let total = (self.config.sessions * self.config.pages_per_session) as u64;
        let (service, health, repairs) =
            (self.fleet.service_stats(), self.health.stats(), self.repairs.stats());
        Ok(ChaosReport {
            lost_pages: total.saturating_sub(self.report.pages),
            bytes: self.link.stats().bytes,
            audio_p99: p99(&mut self.audio_lat),
            served_per_member: (0..members)
                .map(|m| self.fleet.member(m).map_or(0, |s| s.service_stats().served))
                .collect(),
            shed: service.shed,
            busy_rejections: service.busy_rejections,
            down_transitions: health.down_transitions,
            slow_transitions: health.slow_transitions,
            repairs_completed: repairs.completed,
            repair_bytes: repairs.bytes_rebuilt,
            replication_ok,
            ..self.report
        })
    }
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
    fn fleet_workload_scales_and_survives_a_mid_run_restart() {
        let base = ChaosWorkloadConfig {
            members: 1,
            replication: 1,
            sessions: 6,
            audio_sessions: 2,
            pages_per_session: 4,
            hedge_delay: None,
            scrub_interval: None,
            ..clean_config(1)
        };
        let solo = simulate_chaos_workload(base.clone()).expect("solo run");
        assert_eq!(solo.pages, 24);
        assert_eq!(solo.epoch_resyncs, 0);
        assert_eq!(solo.premature_busy_retries, 0);
        assert!(solo.audio_p99 > SimDuration::ZERO, "audio sessions must be measured: {solo:?}");

        let restart = SimInstant::EPOCH + SimDuration::from_millis(20);
        let crashed = simulate_chaos_workload(ChaosWorkloadConfig {
            members: 3,
            replication: 2,
            schedule: ChaosSchedule::new(1).restart_at(0, restart),
            ..base
        })
        .expect("restart run");
        assert_eq!(crashed.pages, 24, "every page survives the restart: {crashed:?}");
        assert_eq!(crashed.epoch_resyncs, 1, "{crashed:?}");
        assert!(crashed.replays >= 1, "the restart lost work that was replayed: {crashed:?}");
        assert_eq!(crashed.premature_busy_retries, 0, "{crashed:?}");
        assert_eq!(crashed.served_per_member.len(), 3);
        assert!(
            crashed.served_per_member.iter().all(|&s| s > 0),
            "replication must spread load: {crashed:?}"
        );
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

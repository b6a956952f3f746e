//! The one workload driver — E12 and E14 through E17 — plus E13's
//! fault-injected reader, which keeps the one client, and the helpers
//! every report shares.
//!
//! [`run`] is the one page-reader simulation of §5: sessions demand-page
//! their objects from a fleet of optical servers behind one shared
//! Ethernet, with audio-class pages on deadlines. Each experiment is a
//! [`WorkloadConfig`] of it:
//!
//! * **E12** — one member, k = 1, window 8 ("pipelined") against window 1
//!   ("blocking");
//! * **E14** — one member under the [`ServiceConfig`] admission caps (or
//!   none), every demand page towing `prefetch_per_page` stride-scattered
//!   prefetch-class fetches: a 4x offered load the caps must shed;
//! * **E15** — dwell-paced sessions at window 1: audio sessions ask for a
//!   page each playback period, text readers after each reading dwell;
//! * **E16/E17** — k-replicated fleets with a [`ChaosSchedule`] of
//!   failures injected while the self-healing machinery runs:
//!
//!   * kernel-timer heartbeats feed the [`HealthMonitor`]; a member that
//!     stops echoing walks `Up → Suspect → Down`, the pages it owed are
//!     replayed onto live siblings, and every replica it held is owed to
//!     the [`RepairQueue`]; an echo carrying a new restart epoch replays
//!     what the old incarnation stranded;
//!   * the repair queue drains one task per [`KernelEvent::RepairDue`]
//!     timer — the serial spacing is the throttle that keeps rebuild
//!     traffic (charged to the real device timelines) from starving
//!     foreground audio;
//!   * a low-rate scrub pass walks one member per
//!     [`KernelEvent::DeadlineFired`] tick; any page failing its
//!     publish-time CRC — found by the scrub or by an ordinary read — is
//!     healed from a verified sibling before the page is re-served
//!     (read-repair);
//!   * an audio-class page submitted to a member the detector has marked
//!     [`MemberHealth::Slow`] arms a [`KernelEvent::HedgeFire`] timer: if
//!     the original answer has not landed when the hedge delay expires, a
//!     speculative duplicate goes to a sibling and the first valid answer
//!     wins, the loser suppressed.
//!
//! Every optional path — dwell, prefetch, heartbeats, hedges, scrub —
//! arms nothing when its knob is zero or `None`, so each experiment runs
//! exactly the events its own knobs ask for.
//!
//! A member's device pulls its work. A request frame crosses the uplink
//! to the member's in-transit queue; its `ServerWake` at arrival hands
//! every frame that has arrived to the member's service queue — so
//! admission control sees the real backlog — and starts the device if it
//! is idle. A device completion hands its response to the downlink and
//! polls the next request, in the member's own rotation.
//!
//! Four invariants hold on every run, each checked by a `debug_assert!`:
//!
//! * **Closed loop.** A session's next request leaves no earlier than the
//!   delivery that freed its window slot.
//! * **One device.** A member serves one request at a time, and only
//!   requests that have arrived. A restart frees the device; the old
//!   incarnation's completion never polls again.
//! * **One wire.** Responses cross the shared downlink one at a time, in
//!   device-completion order, each landing at its own instant.
//! * **Failures lose work.** A crash or restart of a member drops every
//!   response its device had not finished; the page is replayed from a
//!   live copy, which may be the restarted member itself. Nothing lands
//!   from a dead incarnation.
//!
//! The run ends only after every page delivered byte-identical, the
//! repair queue drained, and a final frozen-media sweep healed every
//! remaining rotten page — the [`RunReport`] pins all of it.
//!
//! [`simulate_faulty_page_workload`] (E13) is one reader through the one
//! [`Client`] over a link that drops, corrupts and duplicates
//! frames, measuring the goodput its recovery preserves. It stays off
//! the driver: folding it would add loss recovery to the driver.

use crate::chaos::{ChaosEvent, ChaosSchedule};
use crate::fleet::{
    Fleet, HealthMonitor, MemberHealth, RepairQueue, RepairReceipt, RepairTask, Replica,
};
use crate::kernel::{Kernel, KernelEvent, KernelStats, Timeline};
use crate::prefetch::page_spans;
use crate::transport::{Client, Ticket, TransportStats};
use minos_net::{
    crc32, BufferPool, FaultPlan, FaultStats, Frame, FramePayload, Link, Priority, ServerRequest,
    ServerResponse,
};
use minos_server::{ObjectServer, ServiceConfig};
use minos_types::{ByteSpan, MinosError, ObjectId, Result, SimDuration, SimInstant};
use std::collections::{BTreeSet, HashMap, VecDeque};

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

/// Think time between a page landing and the session asking for its
/// next one, per class. Zero asks at once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Dwell {
    /// An audio session's playback period.
    pub audio: SimDuration,
    /// A text reader's reading time per page.
    pub text: SimDuration,
}

/// Configuration of one [`run`]. [`WorkloadConfig::new`] is the
/// failure-free single-member reader the E12 and E15 rows start from;
/// E16 and E17 add members, copies, heartbeats and a schedule.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
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
    /// Demand pages each session keeps in flight; 1 is the blocking
    /// discipline.
    pub window: usize,
    /// Prefetch-class fetches each demand page tows, stride-scattered
    /// (every seventh page on) so they never coalesce with it. They are
    /// served or shed, never replayed; zero sends none.
    pub prefetch_per_page: usize,
    /// Per-class think time: a session asks for a page one dwell after
    /// its window slot frees (or after the run starts, for its first).
    pub dwell: Dwell,
    /// The failure schedule to replay.
    pub schedule: ChaosSchedule,
    /// Hedge delay for audio pages aimed at a `Slow` member; `None`
    /// disables hedging.
    pub hedge_delay: Option<SimDuration>,
    /// Heartbeat interval of the health monitor; `None` runs without
    /// failure detection, which only an empty schedule allows.
    pub heartbeat: Option<SimDuration>,
    /// Scrub cadence (one member per tick, round-robin); `None` disables
    /// the background scrub (read-repair still heals what reads surface).
    pub scrub_interval: Option<SimDuration>,
    /// Admission-control policy applied to every member.
    pub service: ServiceConfig,
}

impl WorkloadConfig {
    /// `sessions` text readers of `pages_per_session` pages of `page_len`
    /// bytes against one unreplicated member under the default admission
    /// caps: two demand pages in flight each, no prefetch, no dwell, no
    /// failures, no heartbeats, no hedging, no scrub.
    pub fn new(sessions: usize, pages_per_session: usize, page_len: u64) -> Self {
        WorkloadConfig {
            members: 1,
            replication: 1,
            sessions,
            audio_sessions: 0,
            pages_per_session,
            page_len,
            window: 2,
            prefetch_per_page: 0,
            dwell: Dwell::default(),
            schedule: ChaosSchedule::new(0),
            hedge_delay: None,
            heartbeat: None,
            scrub_interval: None,
            service: ServiceConfig::default(),
        }
    }
}

/// What one [`run`] measured — the report of E12 and E14 through E17.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Simulated time until the last demand page was delivered.
    pub elapsed: SimDuration,
    /// Demand pages delivered byte-identical.
    pub pages: u64,
    /// Pages the run failed to deliver — pinned zero.
    pub lost_pages: u64,
    /// Bytes moved over the shared link (requests, responses, repairs).
    pub bytes: u64,
    /// Pages delivered to audio sessions.
    pub audio_pages: u64,
    /// 99th-percentile latency of the audio pages, from the request (the
    /// freed window slot, or the end of the dwell) to delivery; zero when
    /// the run had no audio sessions.
    pub audio_p99: SimDuration,
    /// Pages served by each member, in fleet order — the
    /// placement-balance evidence.
    pub served_per_member: Vec<u64>,
    /// Speculative prefetch-class pages served (E14).
    pub prefetch_served: u64,
    /// Requests re-aimed at a different member than the one that owed
    /// them (a replay or a `Busy` rotation).
    pub failovers: u64,
    /// Demand pages parked on a retry timer after a `Busy` turn-away.
    pub busy_deferred: u64,
    /// Prefetch-class frames the fleet's admission control shed.
    pub shed: u64,
    /// Demand frames rejected outright across the fleet.
    pub busy_rejections: u64,
    /// Most request frames queued at once at any one member.
    pub queue_high_water: u64,
    /// Fresh payload-buffer allocations across the fleet: pool misses
    /// once the prewarmed buffers are all on loan.
    pub payload_allocs: u64,
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
    /// `RetryDue` timers that fired before their `Busy` hint's due
    /// instant — pinned zero.
    pub premature_busy_retries: u64,
    /// Whether every object ended the run with its full replication
    /// factor on distinct, live members.
    pub replication_ok: bool,
    /// The event kernel's counters over the whole run.
    pub kernel: KernelStats,
}

impl RunReport {
    /// Aggregate demand goodput in verified pages per simulated second.
    pub fn goodput_pages_per_sec(&self) -> f64 {
        per_sim_second(self.pages, self.elapsed)
    }

    /// Fresh payload allocations per delivered demand page — the
    /// zero-copy pin.
    pub fn allocations_per_page(&self) -> f64 {
        per_page(self.payload_allocs, self.pages)
    }
}

/// The scrub timer's `DeadlineFired` correlation key (schedule events use
/// their index, far below this).
const SCRUB_KEY: u64 = u64::MAX;
/// Kernel events handled before the run is declared wedged.
const MAX_EVENTS: u64 = 20_000_000;
/// Pages between a demand page and each prefetch it tows: far enough
/// that no run of them is adjacent, so the overload is real device work.
const PREFETCH_STRIDE: usize = 7;
/// Spacing between repair tasks — the re-replication throttle.
const REPAIR_SPACING: SimDuration = SimDuration::from_millis(2);

/// The per-session byte pattern — session-distinct so a page served from
/// the wrong object or offset can never verify.
fn pattern(session: usize, offset: u64) -> u8 {
    ((offset + session as u64 * 17) % 241) as u8
}

/// Whether `bytes` is exactly page `page` of session `s`'s pattern.
fn holds_pattern(s: usize, page: usize, page_len: u64, bytes: &[u8]) -> bool {
    let from = page as u64 * page_len;
    bytes.len() as u64 == page_len && bytes.iter().zip(from..).all(|(&b, i)| b == pattern(s, i))
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
/// the instant its session asked for it — kept across replays, deferrals
/// and hedges, so the p99 measures what the listener felt.
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
    /// The member's restart epoch when its device took the request.
    epoch: u64,
    frame: Frame,
    /// When the member's device took the request.
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
    config: WorkloadConfig,
    fleet: Fleet,
    link: Link,
    kernel: Kernel,
    health: HealthMonitor,
    repairs: RepairQueue,
    repair_idle: bool,
    /// Heartbeat round trip on an idle wire — the baseline a gray
    /// member's multiplied echo is compared against.
    base_rtt_us: u64,
    up: Timeline,
    down: Timeline,
    dev: Vec<Timeline>,
    /// Per member, whether its device is serving a request.
    serving: Vec<bool>,
    /// Per member, the request frames on the uplink, in arrival order.
    transit: Vec<VecDeque<(SimInstant, Frame)>>,
    /// Per member, the arrival of the newest frame its service queue took.
    last_arrival: Vec<SimInstant>,
    inflight: HashMap<u64, InFlightPage>,
    /// Pages parked on a `Busy` hint: when they may leave, and for which
    /// member.
    deferred: HashMap<u64, (SimInstant, usize)>,
    /// Hedge pairing, both ways: a hedge's id is always the larger.
    hedges: HashMap<u64, u64>,
    /// Responses a member's device has taken, keyed by landing sequence.
    landing: HashMap<u64, Landing>,
    next_landing: u64,
    /// The restart epoch of each member as the heartbeats last saw it.
    epochs: Vec<u64>,
    next_page: Vec<usize>,
    next_rid: u64,
    scrub_cursor: usize,
    audio_lat: Vec<SimDuration>,
    report: RunReport,
}

/// Runs one page-reader workload: every session keeps `window` demand
/// pages in flight against a `k`-replicated fleet behind one shared
/// Ethernet, while the schedule's failures are injected and the
/// self-healing machinery — health heartbeats, proactive re-replication,
/// scrub with read-repair, hedged audio reads — absorbs them. See the
/// module docs for the moving parts and the four invariants; see
/// [`RunReport`] for what is pinned.
pub fn run(config: WorkloadConfig) -> Result<RunReport> {
    let mut run = Run::new(config)?;
    run.drive()?;
    run.finish()
}

impl Run {
    /// Validates the config, publishes one paged object per session,
    /// starts the latent decay, and arms the heartbeat, scrub, restart
    /// and partition-heal timers.
    fn new(config: WorkloadConfig) -> Result<Run> {
        let WorkloadConfig { members, sessions, pages_per_session, page_len, window, .. } = config;
        if sessions == 0 || window == 0 || pages_per_session == 0 || page_len == 0 {
            return Err(MinosError::Internal(
                "workload needs sessions, a window, pages, and bytes".into(),
            ));
        }
        match config.heartbeat {
            Some(SimDuration::ZERO) => {
                return Err(MinosError::Internal("a heartbeat needs a nonzero period".into()));
            }
            None if !config.schedule.events().is_empty() => {
                return Err(MinosError::OperationUnavailable(
                    "a failure schedule needs heartbeats to detect its failures".into(),
                ));
            }
            _ => {}
        }
        if let Some(bad) = config.schedule.events().iter().find(|e| e.member() >= members) {
            return Err(MinosError::Internal(format!(
                "schedule event {bad:?} targets a member outside the fleet of {members}"
            )));
        }
        let mut fleet = Fleet::new(members, config.replication)?;
        fleet.set_service_config(config.service);
        // One payload pool for the whole fleet, stocked with the run's
        // in-flight working set — a page per window slot, plus the buffer
        // a coalesced read borrows — so allocations measure the steady
        // state, never the cold start.
        let working_set = (sessions * window + 1).max(BufferPool::DEFAULT_RETAIN_CAP);
        let pool = BufferPool::with_retain_cap(working_set);
        pool.prewarm(working_set, page_len as usize);
        for m in 0..members {
            fleet.member_mut(m).expect("member indices are in range").adopt_pool(pool.clone());
        }
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
        if let Some(heartbeat) = config.heartbeat {
            for m in 0..members {
                kernel.arm(
                    SimInstant::EPOCH + heartbeat,
                    KernelEvent::HealthTick { member: m as u64 },
                );
            }
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
            up: Timeline::default(),
            down: Timeline::default(),
            dev: vec![Timeline::default(); members],
            serving: vec![false; members],
            transit: (0..members).map(|_| VecDeque::new()).collect(),
            last_arrival: vec![SimInstant::EPOCH; members],
            inflight: HashMap::new(),
            deferred: HashMap::new(),
            hedges: HashMap::new(),
            landing: HashMap::new(),
            next_landing: 0,
            next_page: vec![0; sessions],
            next_rid: 1,
            scrub_cursor: 0,
            audio_lat: Vec::with_capacity(audio_pages),
            report: RunReport::default(),
            config,
        })
    }

    /// Fills every session's window, then handles kernel events in
    /// deadline order until every page is delivered and the repair queue
    /// has drained.
    fn drive(&mut self) -> Result<()> {
        for s in 0..self.config.sessions {
            for _ in 0..self.config.window {
                self.pace(s, SimInstant::EPOCH)?;
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
                KernelEvent::ServerWake { member } => self.arrive(member as usize)?,
                KernelEvent::ResponseLanded { request_id, .. } => self.response(request_id)?,
                KernelEvent::RetryDue { request_id, .. } => self.retry(request_id)?,
                KernelEvent::HealthTick { member } => self.heartbeat(member as usize)?,
                KernelEvent::HedgeFire { request_id } => self.hedge(request_id)?,
                KernelEvent::RepairDue { .. } => self.repair(),
                KernelEvent::PageDue { session } => {
                    self.submit(session as usize, self.kernel.now())?;
                }
                KernelEvent::DeadlineFired { key } if key == SCRUB_KEY => self.scrub()?,
                KernelEvent::DeadlineFired { key } => {
                    match self.config.schedule.events().get(key as usize).copied() {
                        Some(ChaosEvent::RestartAt { member, .. }) => {
                            self.fleet.restart_member(member)?;
                            // Device work the old incarnation had not
                            // finished dies with it, and so does every
                            // request sent to it. The epoch resync, and
                            // the replay of what it stranded, happen at the
                            // next heartbeat echo.
                            self.dev[member].release(self.kernel.now());
                            self.serving[member] = false;
                            self.transit[member].clear();
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

    /// Session `s` has a window slot free at `at`: ask for its next page
    /// once its class's dwell has elapsed — at once when it has none.
    fn pace(&mut self, s: usize, at: SimInstant) -> Result<()> {
        let dwell = self.config.dwell;
        let dwell = if s < self.config.audio_sessions { dwell.audio } else { dwell.text };
        if dwell == SimDuration::ZERO {
            return self.submit(s, at);
        }
        if self.next_page[s] < self.config.pages_per_session {
            self.kernel.arm(at + dwell, KernelEvent::PageDue { session: s as u64 });
        }
        Ok(())
    }

    /// Asks for session `s`'s next page, if any, in the window slot freed
    /// at `freed`, with the prefetches it tows. The page goes to the live
    /// holder of its block of the object — replica `i` of `k` serves the
    /// `i`-th run of pages, keeping each optical head sequential.
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
        let p = InFlightPage { session: s, page, member: to.member, epoch: 0, issued: freed };
        self.inflight.insert(rid, p);
        let left = self.send(rid, to, freed);
        debug_assert!(left >= freed, "closed loop: page {rid} left before its slot freed");
        for j in 1..=self.config.prefetch_per_page {
            let ahead = (page + j * PREFETCH_STRIDE) % self.config.pages_per_session;
            let frame = self.fetch(s, ahead, to, self.next_rid, Priority::Prefetch);
            self.next_rid += 1;
            self.uplink(to.member, frame, freed);
        }
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

    /// Request `rid` for page `page` of session `s`'s copy on `to`.
    fn fetch(&self, s: usize, page: usize, to: Replica, rid: u64, priority: Priority) -> Frame {
        let page_len = self.config.page_len;
        let span = ByteSpan::at(to.span.start + page as u64 * page_len, page_len);
        Frame::request_with_priority(s as u64 + 1, rid, priority, ServerRequest::FetchSpan { span })
    }

    /// Sends in-flight page `rid` to replica `to`, leaving no earlier than
    /// `ready`, and records which member and incarnation owe it. Returns
    /// the departure instant.
    fn send(&mut self, rid: u64, to: Replica, ready: SimInstant) -> SimInstant {
        let epoch = self.fleet.epoch(to.member);
        let p = self.inflight.get_mut(&rid).expect("only in-flight pages are sent");
        p.member = to.member;
        p.epoch = epoch;
        let (s, page) = (p.session, p.page);
        let priority =
            if s < self.config.audio_sessions { Priority::Audio } else { Priority::Demand };
        let frame = self.fetch(s, page, to, rid, priority);
        self.uplink(to.member, frame, ready)
    }

    /// Puts `frame` on the uplink to `member`, leaving no earlier than
    /// `ready`, into the member's in-transit queue, and arms the member's
    /// `ServerWake` at its arrival. Returns the departure instant.
    fn uplink(&mut self, member: usize, frame: Frame, ready: SimInstant) -> SimInstant {
        let (leave, arrival) = self.up.book(ready, self.link.transfer(frame.wire_size()));
        self.transit[member].push_back((arrival, frame));
        self.kernel.arm(arrival, KernelEvent::ServerWake { member: member as u64 });
        leave
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

    /// Member `m`'s `ServerWake`: every request frame that has reached it
    /// joins its service queue, so admission sees the real backlog, and
    /// an idle device starts on the next. An unreachable member takes
    /// nothing; what reaches it waits in transit for the partition to
    /// heal.
    fn arrive(&mut self, m: usize) -> Result<()> {
        let now = self.kernel.now();
        if !reachable(&self.config.schedule, m, now) {
            self.kernel.note_spurious();
            return Ok(());
        }
        let member = self.fleet.member_mut(m).expect("wake events name members");
        while let Some((at, frame)) = self.transit[m].pop_front_if(|(at, _)| *at <= now) {
            self.last_arrival[m] = at;
            member.enqueue(frame)?;
        }
        self.poll(m);
        Ok(())
    }

    /// Starts member `m`'s idle device on the next request of its own
    /// rotation, the charge scaled by any gray window in force. A device
    /// that a scrub pass or a replica copy still holds is polled when it
    /// frees.
    fn poll(&mut self, m: usize) {
        let now = self.kernel.now();
        if self.serving[m] || !reachable(&self.config.schedule, m, now) {
            return;
        }
        let free = self.dev[m].free_at();
        if free > now {
            self.kernel.arm(free, KernelEvent::ServerWake { member: m as u64 });
            return;
        }
        let member = self.fleet.member_mut(m).expect("polled members are in range");
        let Some((frame, charge)) = member.poll_timed() else {
            return;
        };
        let epoch = member.epoch();
        let busy = |l: &Landing| l.member == m && l.epoch == epoch && !l.on_wire && l.done > now;
        debug_assert!(
            self.last_arrival[m] <= now && !self.landing.values().any(busy),
            "one device: member {m} polled a request in transit or while serving"
        );
        let factor = self.config.schedule.slow_factor(m, now);
        let took = SimDuration::from_micros(charge.as_micros().saturating_mul(factor));
        let (_, done) = self.dev[m].book(now, took);
        self.serving[m] = true;
        let seq = self.next_landing;
        self.next_landing += 1;
        let landing = Landing { member: m, epoch, frame, polled: now, done, on_wire: false };
        self.landing.insert(seq, landing);
        self.kernel.arm(done, KernelEvent::ResponseLanded { conn: m as u64, request_id: seq });
    }

    /// Response `seq` reached its next instant. At its device completion
    /// it either dies with its member — a crash or restart during its
    /// service loses it, and the page stays owed until the detector
    /// replays it — or takes the next free slot on the one downlink:
    /// reserving in completion order serializes every response, yet each
    /// still lands at its own instant, so a hedge races its original.
    /// Either way the device frees and polls its next request, unless a
    /// restart has already freed it for a new incarnation. At its landing
    /// the response is handled.
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
        let (m, epoch) = (l.member, l.epoch);
        if schedule.interrupted(m, l.polled, l.done) {
            let l = self.landing.remove(&seq).expect("checked above");
            self.recycle(m, l.frame);
        } else {
            let (_, at) = self.down.book(l.done, self.link.transfer(l.frame.wire_size()));
            l.on_wire = true;
            self.kernel.arm(at, KernelEvent::ResponseLanded { conn: m as u64, request_id: seq });
        }
        if epoch == self.fleet.epoch(m) {
            self.serving[m] = false;
            self.poll(m);
        }
        Ok(())
    }

    /// Returns a dead, duplicate or speculative response's page buffer
    /// to its member's pool.
    fn recycle(&mut self, m: usize, frame: Frame) {
        if let FramePayload::Response(ServerResponse::Span(bytes)) = frame.payload {
            self.fleet.member_mut(m).expect("landing members are in range").recycle_payload(bytes);
        }
    }

    /// Handles a response from member `m` landing now: a prefetch is
    /// counted and dropped, a verified page is delivered (its hedge
    /// partner, if any, suppressed), a rotten one is healed and re-served,
    /// and a `Busy` turn-away parks the page on the member's hint.
    fn land(&mut self, m: usize, frame: Frame) -> Result<()> {
        let at = self.kernel.now();
        let rid = frame.request_id;
        if frame.priority == Priority::Prefetch {
            // Speculation costs device and wire time; its bytes go back
            // to the pool unread, and a shed prefetch is simply dropped.
            if let FramePayload::Response(ServerResponse::Span(_)) = frame.payload {
                self.report.prefetch_served += 1;
            }
            self.recycle(m, frame);
            return Ok(());
        }
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
                    if !holds_pattern(s, page, self.config.page_len, &bytes) {
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
    /// window slot: the session's next page is asked for from there,
    /// never before the delivery that freed the slot — a closed loop.
    fn deliver(&mut self, s: usize, issued: SimInstant, at: SimInstant) -> Result<()> {
        self.report.pages += 1;
        self.report.elapsed = self.report.elapsed.max(at.since(SimInstant::EPOCH));
        if s < self.config.audio_sessions {
            // One sample per audio page: the capacity reserved up front.
            debug_assert!(self.audio_lat.len() < self.audio_lat.capacity());
            self.audio_lat.push(at.saturating_since(issued));
        }
        self.pace(s, at)
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
        self.send(rid, to, at);
        Ok(())
    }

    /// A `Busy`-deferred page's retry timer fired: resubmit it. A timer
    /// firing before the hint's due instant is counted premature.
    fn retry(&mut self, rid: u64) -> Result<()> {
        let Some((due, member)) = self.deferred.remove(&rid) else {
            self.kernel.note_spurious();
            return Ok(());
        };
        let Some(p) = self.inflight.get(&rid) else {
            self.kernel.note_spurious();
            return Ok(());
        };
        if self.kernel.now() < due {
            self.report.premature_busy_retries += 1;
        }
        let to = self.replica(p.session, member);
        self.send(rid, to, due);
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
                    let due = now + REPAIR_SPACING;
                    self.kernel.arm(due, KernelEvent::RepairDue { task: 0 });
                }
            }
            self.replay(m, true)?;
        }
        if let Some(heartbeat) = self.config.heartbeat {
            self.kernel.arm(now + heartbeat, KernelEvent::HealthTick { member: m as u64 });
        }
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
            self.send(rid, to, now);
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
        self.send(hedge_rid, sibling, now);
        Ok(())
    }

    /// Charges one replica copy where it ran — the source read, the
    /// member-to-member transfer, the target append — starting no earlier
    /// than `from`. Returns when the copy is durable.
    fn charge_copy(&mut self, receipt: &RepairReceipt, from: SimInstant) -> SimInstant {
        let (_, read) = self.dev[receipt.source].book(from, receipt.read_time);
        let moved = read + self.link.transfer(receipt.bytes);
        self.dev[receipt.target].book(moved, receipt.write_time).1
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
            let due = next_at + REPAIR_SPACING;
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
            self.charge_copy(&receipt, self.dev[m].free_at());
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
            self.dev[m].book(now, pass.device_time);
            self.heal(m, &pass.corrupt)?;
            finished = self.dev[m].free_at();
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
    fn finish(mut self) -> Result<RunReport> {
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
        Ok(RunReport {
            lost_pages: total.saturating_sub(self.report.pages),
            bytes: self.link.stats().bytes,
            audio_pages: self.audio_lat.len() as u64,
            audio_p99: p99(&mut self.audio_lat),
            served_per_member: (0..members)
                .map(|m| self.fleet.member(m).map_or(0, |s| s.service_stats().served))
                .collect(),
            shed: service.shed,
            busy_rejections: service.busy_rejections,
            queue_high_water: service.queue_high_water,
            payload_allocs: service.payload_allocs,
            down_transitions: health.down_transitions,
            slow_transitions: health.slow_transitions,
            repairs_completed: repairs.completed,
            repair_bytes: repairs.bytes_rebuilt,
            replication_ok,
            kernel: self.kernel.stats(),
            ..self.report
        })
    }
}

/// What one [`simulate_faulty_page_workload`] run measured — the E13
/// goodput report: pages that arrived byte-identical, pages lost to
/// exhausted retries, and what the recovery machinery did to get there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultyWorkloadReport {
    /// Simulated time (the connection's clock) until the last response
    /// (or expiry) was collected; [`FaultyWorkloadReport::pages_per_sec`]
    /// divides by it.
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
/// `page_len` bytes through a [`Client`] whose link misbehaves
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
    let mut conn = Client::with_faults(server, Link::ethernet(), window.max(1), plan);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_config(seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            members: 3,
            replication: 2,
            audio_sessions: 2,
            schedule: ChaosSchedule::new(seed),
            hedge_delay: Some(SimDuration::from_millis(5)),
            heartbeat: Some(SimDuration::from_millis(2)),
            scrub_interval: Some(SimDuration::from_millis(50)),
            ..WorkloadConfig::new(4, 6, 2048)
        }
    }

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

    #[test]
    fn clean_schedule_delivers_everything_without_healing() {
        let report = run(clean_config(1)).expect("clean run");
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
        let config = |seed| WorkloadConfig { schedule: schedule(seed), ..clean_config(seed) };
        let a = run(config(5)).expect("run a");
        let b = run(config(5)).expect("run b");
        assert_eq!(a, b, "equal seeds must replay identically");
        let c = run(config(6)).expect("run c");
        assert_eq!(c.lost_pages, 0, "a different seed still loses nothing");
    }

    #[test]
    fn crash_without_restart_re_replicates_every_lost_copy() {
        let config = WorkloadConfig {
            members: 4,
            schedule: ChaosSchedule::new(3)
                .crash_at(1, SimInstant::EPOCH + SimDuration::from_millis(10)),
            ..clean_config(3)
        };
        let report = run(config).expect("crash run");
        assert_eq!(report.lost_pages, 0, "{report:?}");
        assert!(report.down_transitions >= 1, "{report:?}");
        assert!(report.repairs_completed >= 1, "the dead member's copies move: {report:?}");
        assert!(report.replication_ok, "replication restored to k: {report:?}");
        assert_eq!(report.final_corrupt_pages, 0);
        assert_eq!(report.premature_busy_retries, 0);
    }

    #[test]
    fn fleet_workload_scales_and_survives_a_mid_run_restart() {
        let base = WorkloadConfig {
            members: 1,
            replication: 1,
            sessions: 6,
            audio_sessions: 2,
            pages_per_session: 4,
            hedge_delay: None,
            scrub_interval: None,
            ..clean_config(1)
        };
        let solo = run(base.clone()).expect("solo run");
        assert_eq!(solo.pages, 24);
        assert_eq!(solo.epoch_resyncs, 0);
        assert_eq!(solo.premature_busy_retries, 0);
        assert!(solo.audio_p99 > SimDuration::ZERO, "audio sessions must be measured: {solo:?}");

        let restart = SimInstant::EPOCH + SimDuration::from_millis(20);
        let crashed = run(WorkloadConfig {
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
        let config = WorkloadConfig {
            schedule: ChaosSchedule::new(1).crash_at(9, SimInstant::EPOCH),
            ..clean_config(1)
        };
        assert!(run(config).is_err());
        let config = WorkloadConfig { heartbeat: Some(SimDuration::ZERO), ..clean_config(1) };
        assert!(run(config).is_err());
        // Failures nobody can detect are refused up front.
        let config = WorkloadConfig {
            schedule: ChaosSchedule::new(1).crash_at(0, SimInstant::EPOCH),
            heartbeat: None,
            ..clean_config(1)
        };
        assert!(matches!(run(config), Err(MinosError::OperationUnavailable(_))));
    }

    #[test]
    fn workload_reports_are_verified_and_complete() {
        let blocking =
            run(WorkloadConfig { window: 1, ..WorkloadConfig::new(2, 4, 4_096) }).unwrap();
        assert_eq!(blocking.pages, 8);
        assert!(blocking.elapsed > SimDuration::ZERO);
        let piped = run(WorkloadConfig { window: 4, ..WorkloadConfig::new(2, 4, 4_096) }).unwrap();
        assert_eq!(piped.pages, 8);
        assert!(piped.elapsed < blocking.elapsed);
        // Pipelining reorders transfers; it never inflates them.
        assert!(piped.bytes <= blocking.bytes, "pipelining must not inflate transfer");
        // The failure-free rows arm no heartbeat, so nothing they fire
        // is wasted.
        assert_eq!(piped.kernel.spurious_wakes, 0, "{piped:?}");
    }

    #[test]
    fn pipelining_doubles_aggregate_throughput_at_sixteen_sessions() {
        // The E12 headline, pinned as a test: 16 concurrent page readers,
        // 8 KB pages, window 8 — pipelined throughput at least doubles.
        let reader = WorkloadConfig::new(16, 8, 8_192);
        let blocking = run(WorkloadConfig { window: 1, ..reader.clone() }).unwrap();
        let piped = run(WorkloadConfig { window: 8, ..reader }).unwrap();
        let ratio = piped.goodput_pages_per_sec() / blocking.goodput_pages_per_sec();
        assert!(ratio >= 2.0, "pipelined/blocking ratio {ratio:.2}");
    }

    /// The E14 config at six 4 KB pages a session, under `service`: one
    /// audio reader, window 2, three prefetches per demand page.
    fn overload_config(sessions: usize, service: ServiceConfig) -> WorkloadConfig {
        WorkloadConfig {
            audio_sessions: 1,
            prefetch_per_page: 3,
            service,
            ..WorkloadConfig::new(sessions, 6, 4_096)
        }
    }

    fn overload(sessions: usize, service: ServiceConfig) -> RunReport {
        run(overload_config(sessions, service)).unwrap()
    }

    #[test]
    fn pipelined_workload_stays_under_one_allocation_per_page() {
        // The zero-copy pin: 8 sessions each streaming 64 pages at window
        // 8, every consumed page recycled — the prewarmed pool serves
        // every page without a fresh allocation.
        let report =
            run(WorkloadConfig { window: 8, ..WorkloadConfig::new(8, 64, 8_192) }).unwrap();
        assert_eq!(report.pages, 8 * 64);
        assert_eq!(
            report.payload_allocs, 0,
            "the prewarmed pool serves every page without a fresh allocation"
        );
        // The pin holds under admission-controlled overload too, with the
        // 4x speculative fan-out riding the same pooled buffers.
        let overload = overload(16, ServiceConfig::default());
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
        let admitted = overload(16, caps);
        let unbounded = overload(16, ServiceConfig::unbounded());
        // Every demand page lands byte-identical in both runs — shedding
        // costs speculation, never the user's page.
        assert_eq!(admitted.pages, 16 * 6);
        assert_eq!(unbounded.pages, 16 * 6);
        assert_eq!(admitted.audio_pages, 6);
        // The overload is real: the admission control had prefetches to
        // shed, and it only ever shed prefetches.
        assert!(admitted.shed > 0, "{admitted:?}");
        // Admission sees the backlog, not only the opening burst: the
        // first 16 x 2 x (1 + 3) frames over a global cap of 32 can shed at
        // most 96, and a member that polls when its device frees keeps
        // shedding after that.
        assert!(admitted.shed > 16 * 2 * 4 - 32, "{admitted:?}");
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
        assert!(admitted.goodput_pages_per_sec() > unbounded.goodput_pages_per_sec());
    }

    #[test]
    fn equal_overload_configs_produce_equal_reports() {
        let caps = ServiceConfig { per_conn_cap: 8, global_cap: 32, ..ServiceConfig::default() };
        let a = run(overload_config(16, caps)).unwrap();
        let b = run(overload_config(16, caps)).unwrap();
        assert_eq!(a, b, "the E14 config must replay identically");
        assert!(a.prefetch_served > 0 && a.shed > 0, "{a:?}");
    }

    #[test]
    fn busy_resubmissions_wait_out_the_retry_hint() {
        // A per-connection cap of 1 guarantees demand-class rejections:
        // the second windowed demand page finds its connection's queue
        // full of un-sheddable demand work and is turned away with a
        // `Busy { retry_after }` hint.
        let tight = ServiceConfig { per_conn_cap: 1, global_cap: 64, ..ServiceConfig::default() };
        let report = overload(8, tight);
        assert_eq!(report.pages, 8 * 6, "every turned-away page eventually lands");
        assert!(report.busy_rejections > 0, "the cap actually rejected demand: {report:?}");
        assert!(report.busy_deferred > 0, "rejected pages waited on a retry timer: {report:?}");
        // The pin: no retry timer fired before the server's hint elapsed.
        assert_eq!(report.premature_busy_retries, 0, "{report:?}");
    }

    #[test]
    fn dwell_paces_each_session_one_page_at_a_time() {
        let dwell = Dwell { audio: SimDuration::from_millis(250), text: SimDuration::from_secs(1) };
        let report = run(WorkloadConfig {
            audio_sessions: 1,
            window: 1,
            dwell,
            ..WorkloadConfig::new(4, 3, 4_096)
        })
        .unwrap();
        assert_eq!(report.pages, 12);
        assert_eq!(report.audio_pages, 3);
        // Each text reader dwells before every one of its three pages.
        assert!(report.elapsed >= SimDuration::from_secs(3), "{report:?}");
        // Per page: the dwell timer, the server wake, the device
        // completion and the landing — nothing else, nothing wasted.
        assert_eq!(report.kernel.events_fired, 4 * 12, "{report:?}");
        assert_eq!(report.kernel.spurious_wakes, 0, "{report:?}");
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
    fn zero_elapsed_reports_rate_as_zero() {
        // Pinned: a degenerate zero-length run reports zero throughput,
        // never a division-by-zero NaN or infinity.
        let report = RunReport { pages: 5, payload_allocs: 3, ..RunReport::default() };
        assert_eq!(report.goodput_pages_per_sec(), 0.0);
        let empty = RunReport { payload_allocs: 3, ..RunReport::default() };
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
    }
}

//! A sharded fleet of object servers with replica failover.
//!
//! The paper's architecture puts "the multimedia object server subsystems"
//! — plural — behind the presentation manager: a workstation talks to
//! *several* dedicated servers over the shared broadcast link (§2, §5).
//! This module grows the single [`ObjectServer`] of the earlier
//! experiments into that fleet:
//!
//! * **Placement** is deterministic rendezvous (highest-random-weight)
//!   hashing: every member scores each object id, and the object's replica
//!   set is the top `k` scorers. No directory, no rebalancing chatter —
//!   any client derives the same placement from the id alone.
//! * **Replication** stores each object on `k` members; a request picks a
//!   replica by request id, spreading one object's pages across its
//!   replica set.
//! * **Failover** rides the epoch handshake from the restart protocol: a
//!   member restart bumps its epoch, the fleet transport re-handshakes
//!   `Hello`/`Welcome`, and every in-flight request aimed at the dead
//!   incarnation is replayed, in request-id order and under its original
//!   id, onto the *next* replica in the object's rendezvous ring instead of
//!   back onto the member that just lost it.
//!
//! [`FleetConnection`] is the client: the one pipelined [`Client`] of
//! [`crate::transport`] over the fleet — per-member service queues and
//! device timelines behind one shared uplink/downlink (the paper's
//! broadcast bus), rendezvous failover, and heartbeats. A server that
//! answers [`ServerResponse::Busy`] gets honored, not hammered: the
//! turned-away request parks on the retransmit timer until the server's own
//! `retry_after` hint elapses, then resubmits — to a sibling replica when
//! one exists. A single [`ObjectServer`] is a fleet of one
//! (`Fleet::from(server)`), served by the same client.
//!
//! The E12 and E14–E17 workloads drive a fleet through the one driver,
//! [`crate::workload::run`]: M sessions demand-page against N members
//! through the shared link, wake-list-driven via
//! [`KernelEvent::ServerWake`], with any restart or other failure declared
//! as a [`crate::chaos::ChaosSchedule`].
//!
//! On top of the reactive failover sits the self-healing layer:
//!
//! * **Health monitoring** — [`HealthMonitor`] runs kernel-timer-driven
//!   `Ping`/`Pong` heartbeats with a per-member `Up → Suspect → Down`
//!   state machine, plus a `Slow` gray-failure state derived from each
//!   member's own rolling latency baseline. The `Pong { epoch }` echo
//!   also closes the idle-connection gap: a restart is noticed at the
//!   next heartbeat, not at the next submit.
//! * **Proactive re-replication** — a member declared `Down` feeds the
//!   [`RepairQueue`]; each lost replica is rebuilt from a surviving,
//!   checksum-verified copy onto its ring successor
//!   ([`Fleet::repair_replica`]), restoring the replication factor
//!   *before* a second fault can lose pages.
//! * **Scrub and read-repair** — every publish stores per-page CRCs
//!   ([`PageChecksums`]); [`Fleet::scrub_member`] walks a member's
//!   archive verifying them, and [`Fleet::heal_copy`] re-homes a corrupt
//!   copy from a verified sibling (a fresh WORM append — optical media
//!   cannot be patched in place). Over a faulty link the same CRCs are
//!   what a whole page is sent under, so a rotten page read fails at the
//!   client and is fetched again from a sibling.

use crate::kernel::KernelEvent;
use crate::transport::{Client, Route, Ticket, CONN_ID};
use minos_net::{crc32, Frame, Priority, ServerRequest, ServerResponse};
use minos_server::{ObjectServer, ServiceConfig, ServiceStats};
use minos_types::{ByteSpan, MinosError, ObjectId, Result, SimDuration};
use std::collections::{HashMap, HashSet, VecDeque};

/// `splitmix64` finalizer: the standard 64-bit avalanche mix. Rendezvous
/// hashing only needs that distinct `(object, member)` pairs score
/// independently, which this provides without any table state.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The rendezvous score of `member` for `object`: a deterministic,
/// uniformly-mixed weight. Highest weight wins the primary slot.
fn rendezvous_weight(object: ObjectId, member: usize) -> u64 {
    mix64(object.raw() ^ mix64(member as u64 + 1))
}

/// Ranks all `members` for `object` by descending rendezvous weight.
/// Every client computes the identical ranking from the id alone; the
/// first `k` entries are the object's replica set, and failover walks the
/// ring in this order.
pub fn rendezvous_order(object: ObjectId, members: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..members).collect();
    order.sort_by_key(|&m| std::cmp::Reverse((rendezvous_weight(object, m), m)));
    order
}

/// One stored copy of an object: which member holds it and where on that
/// member's device its bytes landed (each member's archiver lays objects
/// out independently, so the span differs per replica).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Replica {
    /// Fleet index of the member holding the copy.
    pub member: usize,
    /// Absolute byte span of the copy on that member's device.
    pub span: ByteSpan,
}

/// Where an object lives: its replica set in rendezvous order (primary
/// first). Derived at publish time; the repair path replaces a lost or
/// corrupt entry in place when it rebuilds a copy elsewhere.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    replicas: Vec<Replica>,
}

impl Placement {
    /// The replica set in rendezvous order, primary first.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// The rendezvous winner — the member a non-spreading client would
    /// always ask.
    pub fn primary(&self) -> Replica {
        self.replicas[0]
    }

    /// The replica a given request uses: requests rotate through the
    /// replica set by id, spreading one object's pages across its copies.
    pub fn replica_for(&self, request_id: u64) -> Replica {
        self.replicas[(request_id % self.replicas.len() as u64) as usize]
    }

    /// The next replica on the ring after `member` — the failover target
    /// when `member` restarts or times out. With a single replica this is
    /// the same member: there is nowhere else to go, so the request is
    /// replayed in place.
    pub fn next_after(&self, member: usize) -> Replica {
        let at = self.replicas.iter().position(|r| r.member == member).unwrap_or(0);
        self.replicas[(at + 1) % self.replicas.len()]
    }

    /// Replaces the replica held by `member` with `with` — the repair
    /// path's placement update after re-replication (the copy moved to a
    /// ring successor) or a WORM heal (the copy stayed home but its span
    /// moved to the fresh append).
    fn replace_replica(&mut self, member: usize, with: Replica) {
        if let Some(slot) = self.replicas.iter_mut().find(|r| r.member == member) {
            *slot = with;
        }
    }
}

/// Per-page CRC32 checksums of an object, computed at publish time — the
/// ground truth scrub and read-repair verify stored copies against, and
/// the CRC a whole page is sent under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageChecksums {
    /// Page granularity the object was published at.
    pub page_len: u64,
    /// CRC32 of each page in order (the final page may be short).
    pub crcs: Vec<u32>,
    /// Whether the object was published page by page
    /// ([`Fleet::publish_paged`]). An object published whole
    /// ([`Fleet::publish_bytes`]) has one checksum over all its bytes and
    /// no pages for a response frame to be sent under.
    pub paged: bool,
}

/// What one replica repair moved: where the clean bytes came from, where
/// the rebuilt copy landed, and what the devices charged — the caller
/// merges these into its own device timelines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairReceipt {
    /// The object whose copy was rebuilt.
    pub object: ObjectId,
    /// Member the verified source bytes were read from.
    pub source: usize,
    /// Member the rebuilt copy was appended onto.
    pub target: usize,
    /// Bytes rebuilt.
    pub bytes: u64,
    /// Device time the source read cost.
    pub read_time: SimDuration,
    /// Device time the target append cost.
    pub write_time: SimDuration,
}

/// What one scrub pass over a member's archive found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Objects whose copy on the member was walked.
    pub objects: u64,
    /// Pages checksum-verified.
    pub pages: u64,
    /// `(object, page)` pairs whose stored bytes failed their checksum.
    pub corrupt: Vec<(ObjectId, usize)>,
    /// Device time the verification reads cost.
    pub device_time: SimDuration,
}

/// A fleet of [`ObjectServer`] members with rendezvous placement and
/// `k`-way replication.
pub struct Fleet {
    members: Vec<ObjectServer>,
    replication: usize,
    placements: HashMap<ObjectId, Placement>,
    /// Publish-time page checksums, keyed by object — what scrub and
    /// read-repair verify stored copies against.
    checksums: HashMap<ObjectId, PageChecksums>,
}

/// A single server as a fleet of one, holding one copy of whatever it
/// already stores. Nothing is placed on it, so every request to it is raw:
/// it has nowhere to fail over to and no page CRC.
impl From<ObjectServer> for Fleet {
    fn from(server: ObjectServer) -> Self {
        Fleet {
            members: vec![server],
            replication: 1,
            placements: HashMap::new(),
            checksums: HashMap::new(),
        }
    }
}

impl Fleet {
    /// Builds a fleet of `members` fresh servers replicating each object
    /// onto `replication` of them. Fails typed when the shape is
    /// impossible (zero members, or more replicas than members).
    pub fn new(members: usize, replication: usize) -> Result<Self> {
        if members == 0 {
            return Err(MinosError::Internal("a fleet needs at least one member".into()));
        }
        if replication == 0 || replication > members {
            return Err(MinosError::Internal(format!(
                "replication {replication} impossible with {members} members"
            )));
        }
        Ok(Fleet {
            members: (0..members).map(|_| ObjectServer::new()).collect(),
            replication,
            placements: HashMap::new(),
            checksums: HashMap::new(),
        })
    }

    /// Stores `bytes` as `object` on its `k` rendezvous members and
    /// records the placement. Publishing the same id again overwrites the
    /// placement (each member's archiver appends a fresh record). The
    /// checksum granularity is the whole object; page-granular workloads
    /// publish through [`Fleet::publish_paged`] instead.
    pub fn publish_bytes(&mut self, object: ObjectId, bytes: &[u8]) -> Result<Placement> {
        self.publish(object, bytes, (bytes.len() as u64).max(1), false)
    }

    /// Stores `bytes` as `object` on its `k` rendezvous members, records
    /// the placement, and remembers a CRC32 per `page_len`-sized page —
    /// the ground truth the scrub and read-repair paths verify against.
    pub fn publish_paged(
        &mut self,
        object: ObjectId,
        bytes: &[u8],
        page_len: u64,
    ) -> Result<Placement> {
        self.publish(object, bytes, page_len, true)
    }

    /// Stores and checksums `object` at `page_len` granularity; `paged`
    /// records which of the two publish calls it came through.
    fn publish(
        &mut self,
        object: ObjectId,
        bytes: &[u8],
        page_len: u64,
        paged: bool,
    ) -> Result<Placement> {
        if page_len == 0 {
            return Err(MinosError::Internal("publish page length must be positive".into()));
        }
        // The replica list is sized exactly at the replication factor.
        let mut replicas = Vec::with_capacity(self.replication);
        for member in
            rendezvous_order(object, self.members.len()).into_iter().take(self.replication)
        {
            let (record, _) = self.members[member].archiver_mut().store(object, bytes)?;
            replicas.push(Replica { member, span: record.span });
        }
        let crcs = bytes.chunks(page_len as usize).map(crc32).collect();
        self.checksums.insert(object, PageChecksums { page_len, crcs, paged });
        let placement = Placement { replicas };
        self.placements.insert(object, placement.clone());
        Ok(placement)
    }

    /// The publish-time page checksums of `object`, if it has been
    /// published.
    pub fn checksums(&self, object: ObjectId) -> Option<&PageChecksums> {
        self.checksums.get(&object)
    }

    /// Verifies `member`'s stored copy of `object` page by page against
    /// the publish-time checksums. Returns the indices of corrupt pages
    /// (empty when the copy is clean) and the device time the
    /// verification reads cost.
    pub fn verify_copy(
        &mut self,
        object: ObjectId,
        member: usize,
    ) -> Result<(Vec<usize>, SimDuration)> {
        let Some(replica) = self
            .placements
            .get(&object)
            .and_then(|p| p.replicas.iter().find(|r| r.member == member))
            .copied()
        else {
            return Err(MinosError::UnknownObject(format!("{object} on member {member}")));
        };
        let Some((page_len, pages)) =
            self.checksums.get(&object).map(|s| (s.page_len, s.crcs.len()))
        else {
            return Err(MinosError::UnknownObject(format!("{object} has no checksums")));
        };
        // Worst case every page is corrupt: the list's capacity is the
        // page count, never more.
        let mut corrupt = Vec::with_capacity(pages);
        let mut device_time = SimDuration::ZERO;
        // One page buffer, refilled by every read of the pass.
        let mut bytes = Vec::new();
        for page in 0..pages {
            let start = replica.span.start + page as u64 * page_len;
            let len = replica.span.end.saturating_sub(start).min(page_len);
            device_time += self.members[member]
                .archiver_mut()
                .read_at_into(ByteSpan::at(start, len), &mut bytes)?;
            let want = self.checksums.get(&object).and_then(|s| s.crcs.get(page)).copied();
            if want != Some(crc32(&bytes)) {
                corrupt.push(page);
            }
        }
        Ok((corrupt, device_time))
    }

    /// Every object with a replica on `member`, in id order — what a
    /// failure detector owes the repair queue when that member dies.
    pub fn objects_on(&self, member: usize) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self
            .placements
            .iter()
            .filter(|(_, p)| p.replicas.iter().any(|r| r.member == member))
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The first member on `object`'s rendezvous ring that holds no
    /// replica and is not in `exclude` — where proactive re-replication
    /// puts a rebuilt copy after its holder dies. `None` when every
    /// member already holds a copy or is excluded.
    pub fn ring_successor(&self, object: ObjectId, exclude: &[usize]) -> Option<usize> {
        let placement = self.placements.get(&object)?;
        rendezvous_order(object, self.members.len())
            .into_iter()
            .find(|m| !exclude.contains(m) && !placement.replicas.iter().any(|r| r.member == *m))
    }

    /// Rebuilds `object`'s replica lost with member `lost` from the copy
    /// on `source`, appending it onto `target`'s archive (a fresh WORM
    /// version) and swapping the placement entry. `lost == target`
    /// re-homes a corrupt copy on its own member — the read-repair heal.
    /// The source bytes are checksum-verified first: repairing from a
    /// rotten sibling would multiply the corruption, so that fails typed
    /// and the caller tries the next sibling.
    pub fn repair_replica(
        &mut self,
        object: ObjectId,
        lost: usize,
        source: usize,
        target: usize,
    ) -> Result<RepairReceipt> {
        let Some(placement) = self.placements.get(&object) else {
            return Err(MinosError::UnknownObject(object.to_string()));
        };
        let Some(src) = placement.replicas.iter().find(|r| r.member == source).copied() else {
            return Err(MinosError::Internal(format!(
                "{object} has no source replica on member {source}"
            )));
        };
        if target != lost && placement.replicas.iter().any(|r| r.member == target) {
            return Err(MinosError::Internal(format!(
                "{object} already has a replica on member {target}"
            )));
        }
        if target >= self.members.len() {
            return Err(MinosError::Internal(format!(
                "repair target {target} outside fleet of {}",
                self.members.len()
            )));
        }
        let (bytes, read_time) = self.members[source].archiver_mut().read_at(src.span)?;
        if let Some(sums) = self.checksums.get(&object) {
            for (page, chunk) in bytes.chunks(sums.page_len as usize).enumerate() {
                if sums.crcs.get(page).copied() != Some(crc32(chunk)) {
                    return Err(MinosError::Corrupt(format!(
                        "{object} source copy on member {source} fails checksum at page {page}"
                    )));
                }
            }
        }
        let (record, write_time) = self.members[target].archiver_mut().store(object, &bytes)?;
        if let Some(placement) = self.placements.get_mut(&object) {
            placement.replace_replica(lost, Replica { member: target, span: record.span });
        }
        Ok(RepairReceipt {
            object,
            source,
            target,
            bytes: bytes.len() as u64,
            read_time,
            write_time,
        })
    }

    /// Walks every object with a replica on `member`, verifying each page
    /// against its publish-time checksum — the background scrub pass.
    /// Objects are visited in id order so equal-seeded runs scrub equal
    /// sequences. Healing what it finds is the caller's move
    /// ([`Fleet::heal_copy`]).
    pub fn scrub_member(&mut self, member: usize) -> Result<ScrubReport> {
        let ids = self.objects_on(member);
        let mut report = ScrubReport::default();
        for id in ids {
            let (corrupt, took) = self.verify_copy(id, member)?;
            report.objects += 1;
            report.pages += self.checksums.get(&id).map_or(0, |s| s.crcs.len() as u64);
            report.device_time += took;
            report.corrupt.extend(corrupt.into_iter().map(|page| (id, page)));
        }
        Ok(report)
    }

    /// Heals `member`'s corrupt copy of `object` from the first sibling
    /// whose own copy verifies: the clean bytes are re-appended on
    /// `member` (WORM media cannot be patched in place) and the placement
    /// follows the fresh span.
    pub fn heal_copy(&mut self, object: ObjectId, member: usize) -> Result<RepairReceipt> {
        let Some(placement) = self.placements.get(&object) else {
            return Err(MinosError::UnknownObject(object.to_string()));
        };
        let siblings: Vec<usize> =
            placement.replicas.iter().map(|r| r.member).filter(|&m| m != member).collect();
        for source in siblings {
            match self.repair_replica(object, member, source, member) {
                Ok(receipt) => return Ok(receipt),
                Err(MinosError::Corrupt(_)) => continue,
                Err(other) => return Err(other),
            }
        }
        Err(MinosError::Corrupt(format!(
            "{object} has no verifiable sibling to heal member {member} from"
        )))
    }

    /// Where `object` lives, if it has been published.
    pub fn placement(&self, object: ObjectId) -> Option<&Placement> {
        self.placements.get(&object)
    }

    /// Shared access to one member.
    pub fn member(&self, index: usize) -> Option<&ObjectServer> {
        self.members.get(index)
    }

    /// Mutable access to one member.
    pub fn member_mut(&mut self, index: usize) -> Option<&mut ObjectServer> {
        self.members.get_mut(index)
    }

    /// The restart epoch of one member (0 for an out-of-range index).
    pub fn epoch(&self, index: usize) -> u64 {
        self.members.get(index).map_or(0, |m| m.epoch())
    }

    /// Restarts one member: its epoch bumps, its volatile service queues
    /// are cleared, and the connections that lost frames are woken (the
    /// archived bytes on its device survive). Fails typed on an
    /// out-of-range index.
    pub fn restart_member(&mut self, index: usize) -> Result<()> {
        match self.members.get_mut(index) {
            Some(member) => {
                member.restart();
                Ok(())
            }
            None => Err(MinosError::Internal(format!(
                "restart of member {index} outside fleet of {}",
                self.members.len()
            ))),
        }
    }

    /// Applies one admission-control policy across every member.
    pub fn set_service_config(&mut self, config: ServiceConfig) {
        for member in &mut self.members {
            member.set_service_config(config);
        }
    }

    /// Fleet-wide service accounting: every member's counters merged into
    /// one [`ServiceStats`] (sums for the monotone counters, maxima for
    /// the high-water marks).
    pub fn service_stats(&self) -> ServiceStats {
        let mut merged = ServiceStats::default();
        for member in &self.members {
            merged.merge(member.service_stats());
        }
        merged
    }
}

/// Consecutive heartbeat misses before a member is suspected.
const SUSPECT_AFTER: u32 = 1;
/// Consecutive heartbeat misses before a member is declared down.
const DOWN_AFTER: u32 = 2;
/// A heartbeat this many times the member's own rolling baseline marks
/// gray failure ([`MemberHealth::Slow`]).
const SLOW_MULT: u64 = 4;
/// Heartbeat samples before the latency baseline is trusted for `Slow`
/// detection — early samples seed the EWMA instead.
const BASELINE_WARMUP: u32 = 3;
/// Consecutive healthy heartbeats before a `Slow` member recovers to
/// `Up` (a `Suspect`/`Down` member recovers on the first pong: the echo
/// is positive proof of life).
const RECOVER_AFTER: u32 = 2;

/// Health of one fleet member as the failure detector sees it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MemberHealth {
    /// Answering heartbeats at its usual latency.
    #[default]
    Up,
    /// Missed one heartbeat: possibly a dropped frame, possibly worse.
    Suspect,
    /// Missed enough consecutive heartbeats to be declared dead — traffic
    /// reroutes and proactive re-replication starts.
    Down,
    /// Still answering, but far above its own latency baseline: the gray
    /// failure that audio-class hedged reads route around.
    Slow,
}

/// Heartbeat accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// Heartbeat pings sent.
    pub pings: u64,
    /// Pong echoes received.
    pub pongs: u64,
    /// Heartbeats that went unanswered.
    pub misses: u64,
    /// Transitions into [`MemberHealth::Down`].
    pub down_transitions: u64,
    /// Transitions into [`MemberHealth::Slow`].
    pub slow_transitions: u64,
    /// Recoveries back to [`MemberHealth::Up`].
    pub recoveries: u64,
    /// Pong echoes whose restart epoch disagreed with the connection's
    /// view — each one triggers an immediate resync.
    pub epoch_mismatches: u64,
}

/// The per-member failure detector fed by `Ping`/`Pong` heartbeats.
///
/// Misses walk a member `Up → Suspect → Down`; a pong is positive proof
/// of life and recovers it immediately. Each member also carries a
/// rolling latency baseline (EWMA of its own healthy echoes): an echo
/// `SLOW_MULT`× above a warmed baseline marks the member
/// [`MemberHealth::Slow`] without poisoning the baseline, and
/// `RECOVER_AFTER` consecutive healthy echoes clear it.
#[derive(Clone, Debug)]
pub struct HealthMonitor {
    state: Vec<MemberHealth>,
    misses: Vec<u32>,
    healthy: Vec<u32>,
    baseline_us: Vec<u64>,
    samples: Vec<u32>,
    stats: HealthStats,
}

impl HealthMonitor {
    /// A monitor over `members` members, all initially `Up`.
    pub fn new(members: usize) -> Self {
        HealthMonitor {
            state: vec![MemberHealth::Up; members],
            misses: vec![0; members],
            healthy: vec![0; members],
            baseline_us: vec![0; members],
            samples: vec![0; members],
            stats: HealthStats::default(),
        }
    }

    /// The detector's current view of `member` (`Up` out of range).
    pub fn state(&self, member: usize) -> MemberHealth {
        self.state.get(member).copied().unwrap_or_default()
    }

    /// Whether the detector has declared `member` dead.
    pub fn is_down(&self, member: usize) -> bool {
        self.state(member) == MemberHealth::Down
    }

    /// The member's rolling latency baseline (zero until warmed).
    pub fn baseline(&self, member: usize) -> SimDuration {
        let us = self.baseline_us.get(member).copied().unwrap_or(0);
        if self.samples.get(member).copied().unwrap_or(0) < BASELINE_WARMUP {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros(us)
    }

    /// Records one ping sent to `member`.
    pub fn note_ping(&mut self, member: usize) {
        if member < self.state.len() {
            self.stats.pings += 1;
        }
    }

    /// A pong arrived `latency` after its ping: clears the miss streak,
    /// recovers a suspected/down member, and classifies gray failure
    /// against the member's own baseline. Returns the state after the
    /// sample.
    pub fn note_pong(&mut self, member: usize, latency: SimDuration) -> MemberHealth {
        if member >= self.state.len() {
            return MemberHealth::Up;
        }
        self.stats.pongs += 1;
        self.misses[member] = 0;
        let us = latency.as_micros().max(1);
        let warmed = self.samples[member] >= BASELINE_WARMUP;
        if warmed && us > self.baseline_us[member].saturating_mul(SLOW_MULT) {
            // A gray sample does not poison the baseline: the detector
            // keeps comparing against the member's healthy self.
            if self.state[member] != MemberHealth::Slow {
                self.stats.slow_transitions += 1;
            }
            self.state[member] = MemberHealth::Slow;
            self.healthy[member] = 0;
            return MemberHealth::Slow;
        }
        self.samples[member] += 1;
        self.baseline_us[member] = if self.baseline_us[member] == 0 {
            us
        } else {
            (self.baseline_us[member] * 7 + us) / 8
        };
        match self.state[member] {
            MemberHealth::Up => {}
            MemberHealth::Suspect | MemberHealth::Down => {
                self.state[member] = MemberHealth::Up;
                self.healthy[member] = 0;
                self.stats.recoveries += 1;
            }
            MemberHealth::Slow => {
                self.healthy[member] += 1;
                if self.healthy[member] >= RECOVER_AFTER {
                    self.state[member] = MemberHealth::Up;
                    self.healthy[member] = 0;
                    self.stats.recoveries += 1;
                }
            }
        }
        self.state[member]
    }

    /// A heartbeat went unanswered: one miss suspects the member, enough
    /// consecutive misses declare it down. Returns the state after the
    /// miss.
    pub fn note_miss(&mut self, member: usize) -> MemberHealth {
        if member >= self.state.len() {
            return MemberHealth::Up;
        }
        self.stats.misses += 1;
        self.misses[member] += 1;
        self.healthy[member] = 0;
        if self.misses[member] >= DOWN_AFTER {
            if self.state[member] != MemberHealth::Down {
                self.stats.down_transitions += 1;
            }
            self.state[member] = MemberHealth::Down;
        } else if self.misses[member] >= SUSPECT_AFTER && self.state[member] != MemberHealth::Down {
            self.state[member] = MemberHealth::Suspect;
        }
        self.state[member]
    }

    /// Records a pong whose restart epoch disagreed with the sender's
    /// view.
    pub fn note_epoch_mismatch(&mut self) {
        self.stats.epoch_mismatches += 1;
    }

    /// Heartbeat accounting so far.
    pub fn stats(&self) -> HealthStats {
        self.stats
    }
}

/// One queued re-replication task: rebuild `object`'s copy that was lost
/// with member `lost`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairTask {
    /// The object owed a copy.
    pub object: ObjectId,
    /// The member whose copy was lost.
    pub lost: usize,
}

/// Re-replication accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Tasks admitted into the queue.
    pub admitted: u64,
    /// Tasks rejected as duplicates of an already-admitted loss.
    pub deduped: u64,
    /// Repairs that completed and restored a copy.
    pub completed: u64,
    /// Repairs that failed (no verifiable source or no free target).
    pub failed: u64,
    /// Bytes rebuilt by completed repairs.
    pub bytes_rebuilt: u64,
}

/// The background repair queue the failure detector feeds.
///
/// The queue is bounded by dedup admission: each `(object, member)` loss
/// is admitted at most once, so however often the detector re-reports a
/// down member the queue can never outgrow the placement table. Draining
/// it is the orchestrator's job, one task per `RepairDue` kernel timer —
/// that serial spacing is the throttle that keeps repair traffic from
/// starving foreground audio.
#[derive(Debug, Default)]
pub struct RepairQueue {
    queue: VecDeque<RepairTask>,
    admitted: HashSet<(ObjectId, usize)>,
    stats: RepairStats,
}

impl RepairQueue {
    /// An empty queue.
    pub fn new() -> Self {
        RepairQueue::default()
    }

    /// Admits one repair task unless the same loss was already admitted —
    /// the dedup set is the queue's capacity bound.
    pub fn admit(&mut self, task: RepairTask) -> bool {
        if !self.admitted.insert((task.object, task.lost)) {
            self.stats.deduped += 1;
            return false;
        }
        self.stats.admitted += 1;
        self.queue.push_back(task);
        true
    }

    /// Takes the oldest pending task.
    pub fn pop(&mut self) -> Option<RepairTask> {
        self.queue.pop_front()
    }

    /// Pending (admitted, not yet popped) tasks.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no tasks are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Records one finished repair and the bytes it rebuilt.
    pub fn note_completed(&mut self, bytes: u64) {
        self.stats.completed += 1;
        self.stats.bytes_rebuilt += bytes;
    }

    /// Records one repair that could not be completed.
    pub fn note_failed(&mut self) {
        self.stats.failed += 1;
    }

    /// Repair accounting so far.
    pub fn stats(&self) -> RepairStats {
        self.stats
    }
}

/// A handle to a submitted, not-yet-collected request on a
/// [`FleetConnection`].
pub type FleetTicket = Ticket;

/// A pipelined client of a [`Fleet`]: the one request lifecycle of
/// [`crate::transport`] — admit into the in-flight window, keep the request
/// for replay, transmit, dispatch, land — over one shared uplink and
/// downlink (the paper's broadcast bus) and one device timeline per member.
/// On a clean link every request travels as a typed frame; over a fault
/// plan it is encoded once into a pooled buffer and those bytes are what
/// every retransmit resends.
///
/// What the fleet adds is where a request goes:
///
/// * a member restart (epoch bump) or a timeout re-aims the member's
///   in-flight requests at the next replica in each object's rendezvous
///   ring;
/// * a [`ServerResponse::Busy`] reply parks the request on the retransmit
///   timer for the server's own `retry_after` hint and rotates it to a sibling,
///   instead of re-offering load to the gate that just shed it;
/// * optional heartbeats ([`FleetConnection::enable_heartbeat`]) notice a
///   restart on an idle connection.
pub type FleetConnection = Client;

/// What the client asks of its fleet. The route of a page fetch is the
/// object and the span relative to its first byte; the device span is
/// recomputed per replica.
impl Fleet {
    /// The servers behind the client, one per member.
    pub(crate) fn servers(&self) -> &[ObjectServer] {
        &self.members
    }

    /// Mutable access to the servers behind the client.
    pub(crate) fn servers_mut(&mut self) -> &mut [ObjectServer] {
        &mut self.members
    }

    /// Where a request on `route` aimed at `target` goes instead, and the
    /// request to send there: the next replica on the object's rendezvous
    /// ring. A raw request and a single-replica object stay put.
    pub(crate) fn fail_over(&self, route: &Route, target: usize) -> Option<(usize, ServerRequest)> {
        let (object, rel) = (*route)?;
        let replica = self.placements.get(&object)?.next_after(target);
        (replica.member != target).then(|| (replica.member, fetch_on(replica, rel)))
    }

    /// The publish-time CRC of the page `route` names, when it is exactly
    /// one whole page of a [`Fleet::publish_paged`] object and `len` is
    /// that page's length. A raw request, an unaligned or partial span, a
    /// short final page and a [`Fleet::publish_bytes`] object get `None`.
    pub(crate) fn span_crc(&self, route: &Route, len: u64) -> Option<u32> {
        let (object, rel) = (*route)?;
        let sums = self.checksums.get(&object)?;
        let object_len = self.placements.get(&object)?.primary().span.len();
        let whole_page = sums.paged
            && rel.len() == sums.page_len
            && len == sums.page_len
            && rel.start % sums.page_len == 0
            && rel.end <= object_len;
        if !whole_page {
            return None;
        }
        sums.crcs.get(usize::try_from(rel.start / sums.page_len).ok()?).copied()
    }
}

/// The fetch of `rel` — a span relative to the object's first byte — from
/// `replica`'s copy.
fn fetch_on(replica: Replica, rel: ByteSpan) -> ServerRequest {
    ServerRequest::FetchSpan { span: ByteSpan::at(replica.span.start + rel.start, rel.len()) }
}

impl FleetConnection {
    /// The fleet behind the connection.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Mutable access to the fleet (restarts, config changes).
    pub fn fleet_mut(&mut self) -> &mut Fleet {
        &mut self.fleet
    }

    /// Starts the deterministic health monitor: every `interval`, each
    /// member is pinged on a kernel timer and the `Pong { epoch }` echo
    /// feeds the per-member latency baseline. The echo also closes the
    /// idle-connection gap: a mismatched restart epoch triggers the
    /// resync (handshake + replay) at the heartbeat, so an idle
    /// connection notices a member restart without waiting for its next
    /// submit.
    pub fn enable_heartbeat(&mut self, interval: SimDuration) {
        self.heartbeat = Some(interval.max(SimDuration::from_micros(1)));
        self.arm_heartbeats();
    }

    /// The failure detector fed by the heartbeats.
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// Sends one heartbeat to member `m` at the current instant. The ping
    /// and its echo are charged on the shared wire (the server answers
    /// `Ping` from memory, no device time); the echo's round trip feeds
    /// the member's baseline, and a stale epoch in the echo triggers the
    /// resync machinery immediately. Re-arms the member's next tick.
    pub(crate) fn heartbeat_member(&mut self, m: usize) {
        if m >= self.fleet.members.len() {
            self.kernel.note_spurious();
            return;
        }
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        self.health.note_ping(m);
        let ping = ServerRequest::Ping { nonce };
        let sent = self.kernel.now();
        let up = self.link.transfer(Frame::request(CONN_ID, 0, ping).wire_size());
        let (_, arrival) = self.up.book(sent, up);
        let (answer, _) = self.fleet.members[m].handle(&ServerRequest::Ping { nonce });
        let echo_epoch = match &answer {
            ServerResponse::Pong { epoch, .. } => Some(*epoch),
            _ => None,
        };
        let down = self.link.transfer(Frame::response(CONN_ID, 0, answer).wire_size());
        let (_, delivered) = self.down.book(arrival, down);
        self.health.note_pong(m, delivered.saturating_since(sent));
        if echo_epoch.is_some_and(|epoch| epoch != self.epochs[m]) {
            // The restart is noticed by the heartbeat, not by the next
            // submit: resync (handshake + replay) right here.
            self.health.note_epoch_mismatch();
            self.resync();
        }
        if let Some(interval) = self.heartbeat {
            self.kernel.arm(
                self.kernel.now().max(delivered) + interval,
                KernelEvent::HealthTick { member: m as u64 },
            );
        }
    }

    /// Submits a demand fetch of `rel` — a span relative to `object`'s
    /// first byte — and returns a ticket for collecting the page later.
    /// The replica is chosen by request id, spreading an object's pages
    /// across its copies. The request is kept for replay and failover: on
    /// a clean link it travels as a typed frame, and over a fault plan it
    /// is encoded once into a pooled buffer whose bytes every retransmit
    /// resends.
    pub fn fetch_page(&mut self, object: ObjectId, rel: ByteSpan) -> Result<Ticket> {
        let Some(placement) = self.fleet.placements.get(&object) else {
            return Err(MinosError::UnknownObject(object.to_string()));
        };
        if rel.end > placement.primary().span.len() {
            return Err(MinosError::Protocol(format!(
                "page {rel} outside {object} of {} bytes",
                placement.primary().span.len()
            )));
        }
        let request_id = self.admit_slot(CONN_ID);
        // Re-borrow after the admit loop: it mutates the transport state.
        let Some(placement) = self.fleet.placements.get(&object) else {
            return Err(MinosError::UnknownObject(object.to_string()));
        };
        let replica = placement.replica_for(request_id);
        self.submit_tracked(
            request_id,
            (CONN_ID, Priority::Demand),
            replica.member,
            Some((object, rel)),
            fetch_on(replica, rel),
        );
        Ok(Ticket(request_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_net::{FaultPlan, Link};
    use minos_types::SimInstant;
    use std::collections::BTreeSet;

    #[test]
    fn rendezvous_order_is_a_deterministic_permutation() {
        for raw in 1..=64u64 {
            let order = rendezvous_order(ObjectId::new(raw), 8);
            assert_eq!(order, rendezvous_order(ObjectId::new(raw), 8));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "not a permutation for {raw}");
        }
    }

    #[test]
    fn rendezvous_spreads_primaries_across_members() {
        let members = 4;
        let mut counts = vec![0usize; members];
        for raw in 1..=64u64 {
            counts[rendezvous_order(ObjectId::new(raw), members)[0]] += 1;
        }
        // 64 objects over 4 members: every member owns some primaries and
        // none owns a runaway majority.
        for (m, &count) in counts.iter().enumerate() {
            assert!(count >= 4, "member {m} owns only {count} primaries: {counts:?}");
            assert!(count <= 32, "member {m} owns {count} primaries: {counts:?}");
        }
    }

    #[test]
    fn replica_sets_are_distinct_members_in_ring_order() {
        let mut fleet = Fleet::new(4, 3).expect("valid shape");
        let body = vec![7u8; 4096];
        let placement = fleet.publish_bytes(ObjectId::new(9), &body).expect("publish");
        let members: Vec<usize> = placement.replicas().iter().map(|r| r.member).collect();
        let distinct: BTreeSet<usize> = members.iter().copied().collect();
        assert_eq!(distinct.len(), 3, "replicas must land on distinct members: {members:?}");
        // The failover ring closes: walking next_after from the primary
        // visits every replica and returns home.
        let mut at = placement.primary().member;
        let mut seen = vec![at];
        for _ in 0..2 {
            at = placement.next_after(at).member;
            seen.push(at);
        }
        assert_eq!(placement.next_after(at).member, placement.primary().member);
        let walked: BTreeSet<usize> = seen.iter().copied().collect();
        assert_eq!(walked, distinct);
    }

    #[test]
    fn fleet_shape_is_validated() {
        assert!(Fleet::new(0, 0).is_err());
        assert!(Fleet::new(2, 0).is_err());
        assert!(Fleet::new(2, 3).is_err());
        assert!(Fleet::new(2, 2).is_ok());
    }

    #[test]
    fn fetch_page_round_trips_through_the_placed_replicas() {
        let mut fleet = Fleet::new(3, 2).expect("valid shape");
        let object = ObjectId::new(5);
        let body: Vec<u8> = (0..8192u64).map(|i| (i % 251) as u8).collect();
        fleet.publish_bytes(object, &body).expect("publish");
        let mut conn = FleetConnection::new(fleet, Link::ethernet());
        let pages = 8usize;
        let mut tickets = Vec::with_capacity(pages);
        for page in 0..pages {
            let rel = ByteSpan::at(page as u64 * 1024, 1024);
            tickets.push((conn.fetch_page(object, rel).expect("submit"), page));
        }
        for (ticket, page) in tickets {
            let (response, _) = conn.wait(ticket).expect("collect");
            let ServerResponse::Span(bytes) = response else {
                panic!("unexpected response {response:?}");
            };
            let from = page as u64 * 1024;
            let expect: Vec<u8> = (from..from + 1024).map(|i| (i % 251) as u8).collect();
            assert_eq!(bytes, expect, "page {page}");
            conn.recycle_payload(bytes);
        }
        // Pages spread across both replicas of the object.
        let served: Vec<u64> = (0..3)
            .map(|m| conn.fleet().member(m).map_or(0, |s| s.service_stats().served))
            .collect();
        assert_eq!(served.iter().sum::<u64>(), pages as u64);
        assert_eq!(served.iter().filter(|&&s| s > 0).count(), 2, "{served:?}");
    }

    #[test]
    fn span_crc_vouches_only_for_whole_published_pages() {
        let mut fleet = Fleet::new(2, 2).expect("valid shape");
        let paged = ObjectId::new(1);
        let whole = ObjectId::new(2);
        // Two full pages of 1 KiB and a short final page of 100 bytes.
        let body: Vec<u8> = (0..2148u64).map(|i| (i % 253) as u8).collect();
        fleet.publish_paged(paged, &body, 1024).expect("publish paged");
        fleet.publish_bytes(whole, &body).expect("publish whole");
        let crc = |object, start, len, payload| {
            fleet.span_crc(&Some((object, ByteSpan::at(start, len))), payload)
        };
        assert_eq!(crc(paged, 0, 1024, 1024), Some(crc32(&body[..1024])));
        assert_eq!(crc(paged, 1024, 1024, 1024), Some(crc32(&body[1024..2048])));
        assert_eq!(crc(paged, 512, 1024, 1024), None, "unaligned");
        assert_eq!(crc(paged, 0, 512, 512), None, "partial");
        assert_eq!(crc(paged, 0, 1024, 512), None, "a payload of another length");
        assert_eq!(crc(paged, 2048, 100, 100), None, "the short final page");
        assert_eq!(crc(paged, 2048, 1024, 1024), None, "past the end");
        assert_eq!(crc(whole, 0, body.len() as u64, body.len() as u64), None, "publish_bytes");
        assert_eq!(crc(ObjectId::new(3), 0, 1024, 1024), None, "unpublished");
    }

    #[test]
    fn collected_pages_recycle_into_the_pool_members_lease_from() {
        // Clean and lossy alike: once the first round has warmed the one
        // pool the connection shares with its members, later rounds lease
        // every page, frame and decode buffer from it.
        for plan in [FaultPlan::none(), FaultPlan::corrupting(5, 0.05)] {
            let mut fleet = Fleet::new(3, 2).expect("valid shape");
            let object = ObjectId::new(4);
            let body: Vec<u8> = (0..16_384u64).map(|i| (i % 249) as u8).collect();
            fleet.publish_paged(object, &body, 2048).expect("publish");
            let mut conn = FleetConnection::with_faults(fleet, Link::ethernet(), 8, plan);
            let allocs = |conn: &FleetConnection| {
                conn.transport_stats().payload_allocs + conn.fleet().service_stats().payload_allocs
            };
            let mut after_first_round = 0;
            for round in 0..3 {
                let tickets: Vec<FleetTicket> = (0..8u64)
                    .map(|page| conn.fetch_page(object, ByteSpan::at(page * 2048, 2048)))
                    .collect::<Result<_>>()
                    .expect("submit");
                for ticket in tickets {
                    let (response, _) = conn.wait(ticket).expect("collect");
                    let ServerResponse::Span(bytes) = response else {
                        panic!("unexpected response {response:?}");
                    };
                    conn.recycle_payload(bytes);
                }
                if round == 0 {
                    after_first_round = allocs(&conn);
                }
            }
            assert!(after_first_round > 0, "a cold pool allocates: {plan:?}");
            assert_eq!(allocs(&conn), after_first_round, "warm rounds allocate nothing: {plan:?}");
        }
    }

    #[test]
    fn member_restart_fails_in_flight_pages_over_to_siblings() {
        let mut fleet = Fleet::new(2, 2).expect("valid shape");
        let object = ObjectId::new(11);
        let body: Vec<u8> = (0..16384u64).map(|i| ((i * 3) % 251) as u8).collect();
        fleet.publish_bytes(object, &body).expect("publish");
        let mut conn = FleetConnection::with_window(fleet, Link::ethernet(), 8);
        let mut tickets = Vec::with_capacity(8);
        for page in 0..8usize {
            let rel = ByteSpan::at(page as u64 * 2048, 2048);
            tickets.push((conn.fetch_page(object, rel).expect("submit"), page));
        }
        // Both members hold in-flight frames (pages alternate replicas by
        // request id); restarting member 0 orphans its share mid-window.
        conn.fleet_mut().restart_member(0).expect("member 0 exists");
        for (ticket, page) in tickets {
            let (response, _) = conn.wait(ticket).expect("collect");
            let ServerResponse::Span(bytes) = response else {
                panic!("unexpected response {response:?}");
            };
            let from = page as u64 * 2048;
            let expect: Vec<u8> = (from..from + 2048).map(|i| ((i * 3) % 251) as u8).collect();
            assert_eq!(bytes, expect, "page {page} corrupt after restart");
            conn.recycle_payload(bytes);
        }
        let transport = conn.transport_stats();
        assert_eq!(transport.epoch_resyncs, 1, "{transport:?}");
        assert!(transport.replays >= 1, "{transport:?}");
        assert!(transport.failovers >= 1, "{transport:?}");
        assert_eq!(conn.transport_stats().premature_busy_retries, 0);
    }

    #[test]
    fn busy_turnaways_defer_and_eventually_deliver() {
        let mut fleet = Fleet::new(1, 1).expect("valid shape");
        let object = ObjectId::new(3);
        let body: Vec<u8> = (0..8192u64).map(|i| ((i * 7) % 251) as u8).collect();
        fleet.publish_bytes(object, &body).expect("publish");
        fleet.set_service_config(ServiceConfig {
            per_conn_cap: 1,
            global_cap: 64,
            retry_slice: SimDuration::from_micros(500),
        });
        let mut conn = FleetConnection::with_window(fleet, Link::ethernet(), 8);
        let mut tickets = Vec::with_capacity(8);
        for page in 0..8usize {
            let rel = ByteSpan::at(page as u64 * 1024, 1024);
            tickets.push((conn.fetch_page(object, rel).expect("submit"), page));
        }
        for (ticket, page) in tickets {
            let (response, _) = conn.wait(ticket).expect("collect");
            let ServerResponse::Span(bytes) = response else {
                panic!("unexpected response {response:?}");
            };
            let from = page as u64 * 1024;
            let expect: Vec<u8> = (from..from + 1024).map(|i| ((i * 7) % 251) as u8).collect();
            assert_eq!(bytes, expect, "page {page}");
            conn.recycle_payload(bytes);
        }
        let stats = conn.transport_stats();
        assert!(stats.busy_deferred > 0, "cap 1 against a burst of 8 must defer: {stats:?}");
        assert_eq!(stats.premature_busy_retries, 0, "{stats:?}");
        assert!(conn.fleet().service_stats().busy_rejections > 0);
    }

    #[test]
    fn health_monitor_walks_up_suspect_down_and_recovers() {
        let mut health = HealthMonitor::new(2);
        assert_eq!(health.state(0), MemberHealth::Up);
        assert_eq!(health.note_miss(0), MemberHealth::Suspect);
        assert_eq!(health.note_miss(0), MemberHealth::Down);
        assert!(health.is_down(0));
        // The sibling's view is independent.
        assert_eq!(health.state(1), MemberHealth::Up);
        // One pong is positive proof of life: immediate recovery.
        assert_eq!(health.note_pong(0, SimDuration::from_micros(100)), MemberHealth::Up);
        let stats = health.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.down_transitions, 1);
        assert_eq!(stats.recoveries, 1);
    }

    #[test]
    fn health_monitor_flags_gray_failure_against_own_baseline() {
        let mut health = HealthMonitor::new(1);
        // Warm the baseline with healthy ~100µs echoes.
        for _ in 0..4 {
            assert_eq!(health.note_pong(0, SimDuration::from_micros(100)), MemberHealth::Up);
        }
        assert_eq!(health.baseline(0), SimDuration::from_micros(100));
        // A 10× echo is gray failure, and it must not poison the baseline.
        assert_eq!(health.note_pong(0, SimDuration::from_micros(1000)), MemberHealth::Slow);
        assert_eq!(health.baseline(0), SimDuration::from_micros(100));
        // Recovery needs a streak of healthy echoes.
        assert_eq!(health.note_pong(0, SimDuration::from_micros(110)), MemberHealth::Slow);
        assert_eq!(health.note_pong(0, SimDuration::from_micros(110)), MemberHealth::Up);
        let stats = health.stats();
        assert_eq!(stats.slow_transitions, 1);
        assert_eq!(stats.recoveries, 1);
    }

    #[test]
    fn repair_replica_restores_the_replication_factor_on_the_ring_successor() {
        let mut fleet = Fleet::new(4, 2).expect("valid shape");
        let object = ObjectId::new(21);
        let body: Vec<u8> = (0..8192u64).map(|i| ((i * 5) % 251) as u8).collect();
        let placement = fleet.publish_paged(object, &body, 2048).expect("publish");
        let lost = placement.primary().member;
        let survivor = placement.next_after(lost).member;
        let target = fleet.ring_successor(object, &[lost]).expect("spare member exists");
        assert!(!placement.replicas().iter().any(|r| r.member == target));
        let receipt = fleet.repair_replica(object, lost, survivor, target).expect("repair");
        assert_eq!(receipt.bytes, body.len() as u64);
        assert!(receipt.read_time > SimDuration::ZERO && receipt.write_time > SimDuration::ZERO);
        // The placement now names the successor instead of the dead
        // member, and the rebuilt copy verifies clean.
        let healed = fleet.placement(object).expect("placement survives").clone();
        let holders: Vec<usize> = healed.replicas().iter().map(|r| r.member).collect();
        assert!(holders.contains(&target) && !holders.contains(&lost), "{holders:?}");
        let (corrupt, _) = fleet.verify_copy(object, target).expect("verify");
        assert!(corrupt.is_empty(), "rebuilt copy must verify: {corrupt:?}");
        // A second repair of the same loss is refused: the target already
        // holds a copy.
        assert!(fleet.repair_replica(object, lost, survivor, target).is_err());
    }

    #[test]
    fn scrub_detects_bit_rot_and_heal_copy_repairs_in_place() {
        let mut fleet = Fleet::new(3, 2).expect("valid shape");
        let object = ObjectId::new(33);
        let body: Vec<u8> = (0..8192u64).map(|i| ((i * 11) % 251) as u8).collect();
        let placement = fleet.publish_paged(object, &body, 2048).expect("publish");
        let victim = placement.primary().member;
        // Rot exactly one read on the victim's media, then freeze decay so
        // the scrub itself reads deterministically clean media.
        let device = fleet.member_mut(victim).expect("victim exists").archiver_mut().device_mut();
        device.set_bit_rot(77, 1.0);
        let rotted = fleet.verify_copy(object, victim).expect("verification read");
        assert!(!rotted.0.is_empty(), "rate-1.0 rot must corrupt a verified page");
        let device = fleet.member_mut(victim).expect("victim exists").archiver_mut().device_mut();
        device.set_bit_rot(0, 0.0);
        assert!(device.bit_rot_flips() > 0);
        // The scrub pass finds the damage...
        let scrub = fleet.scrub_member(victim).expect("scrub");
        assert_eq!(scrub.objects, 1);
        assert_eq!(scrub.pages, 4);
        assert!(!scrub.corrupt.is_empty(), "{scrub:?}");
        assert!(scrub.corrupt.iter().all(|&(id, _)| id == object));
        // ...and the heal re-homes a verified sibling copy in place.
        let receipt = fleet.heal_copy(object, victim).expect("heal");
        assert_eq!(receipt.target, victim, "heal stays on the corrupt member");
        assert_ne!(receipt.source, victim, "clean bytes come from a sibling");
        let rescrub = fleet.scrub_member(victim).expect("re-scrub");
        assert!(rescrub.corrupt.is_empty(), "healed copy must verify: {rescrub:?}");
    }

    #[test]
    fn idle_heartbeat_notices_a_member_restart_without_a_submit() {
        let mut fleet = Fleet::new(2, 2).expect("valid shape");
        let object = ObjectId::new(8);
        fleet.publish_bytes(object, &vec![9u8; 4096]).expect("publish");
        let mut conn = FleetConnection::new(fleet, Link::ethernet());
        conn.enable_heartbeat(SimDuration::from_millis(1));
        // The connection is idle — nothing submitted — when member 1
        // restarts. Before the heartbeat existed, the stale epoch went
        // unnoticed until the next fetch_page.
        conn.fleet_mut().restart_member(1).expect("member 1 exists");
        conn.advance_to(SimInstant::EPOCH + SimDuration::from_millis(10));
        let health = conn.health().stats();
        assert!(health.pings >= 2, "both members heartbeat: {health:?}");
        assert_eq!(health.pongs, health.pings, "healthy members echo every ping: {health:?}");
        assert!(health.epoch_mismatches >= 1, "the restart must be noticed: {health:?}");
        assert!(
            conn.transport_stats().epoch_resyncs >= 1,
            "the heartbeat must trigger the resync: {:?}",
            conn.transport_stats()
        );
        // The detector never declared anyone down: the member answered
        // its very first post-restart ping.
        assert_eq!(conn.health().state(1), MemberHealth::Up);
        // And the data path still works.
        let ticket = conn.fetch_page(object, ByteSpan::at(0, 4096)).expect("submit");
        let (response, _) = conn.wait(ticket).expect("collect");
        assert!(matches!(response, ServerResponse::Span(_)));
    }

    #[test]
    fn repair_queue_dedups_admissions() {
        let mut queue = RepairQueue::new();
        let task = RepairTask { object: ObjectId::new(1), lost: 0 };
        assert!(queue.admit(task));
        assert!(!queue.admit(task), "the same loss is admitted once");
        assert!(queue.admit(RepairTask { object: ObjectId::new(1), lost: 1 }));
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.pop(), Some(task));
        queue.note_completed(4096);
        let stats = queue.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.deduped, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.bytes_rebuilt, 4096);
    }
}

//! Declarative failure schedules for the fleet experiments (E16, E17).
//!
//! A [`ChaosSchedule`] is a seeded list of failures — crashes, restarts,
//! gray slowdowns, partitions, latent bit rot — that replays identically
//! across the bench harness and the tests. The workload driver
//! ([`crate::workload::run`]) injects it while the fleet's self-healing
//! machinery runs; the queries below are pure functions of the declared
//! events and the instant asked about.

use minos_types::SimInstant;

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
}

impl ChaosSchedule {
    /// An empty schedule deriving all randomness (bit-rot draws) from
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosSchedule { seed, events: Vec::new() }
    }

    /// The schedule's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The declared events, in declaration order.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Declares a crash of `member` at `at`.
    pub fn crash_at(mut self, member: usize, at: SimInstant) -> Self {
        self.events.push(ChaosEvent::CrashAt { member, at });
        self
    }

    /// Declares a restart of `member` at `at`.
    pub fn restart_at(mut self, member: usize, at: SimInstant) -> Self {
        self.events.push(ChaosEvent::RestartAt { member, at });
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
        self.events.push(ChaosEvent::SlowBetween { member, from, to, factor: factor.max(1) });
        self
    }

    /// Declares a partition of `member` between `from` and `to`.
    pub fn partition_between(mut self, member: usize, from: SimInstant, to: SimInstant) -> Self {
        self.events.push(ChaosEvent::PartitionBetween { member, from, to });
        self
    }

    /// Declares latent bit rot on `member`'s media at `rate_ppm` flips
    /// per million reads.
    pub fn bit_rot(mut self, member: usize, rate_ppm: u32) -> Self {
        self.events.push(ChaosEvent::BitRot { member, rate_ppm });
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_types::SimDuration;

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
        assert_eq!(schedule.events().len(), 5);
    }
}

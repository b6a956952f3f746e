//! The link model.
//!
//! A link charges a fixed per-message latency plus size/bandwidth transfer
//! time, and counts every byte. The defaults model the paper's Ethernet
//! (10 Mbit/s ≈ 1.25 MB/s with a couple of milliseconds of protocol
//! latency).

use minos_types::SimDuration;

/// Transfer accounting for one link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages sent in either direction.
    pub messages: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Total simulated time spent on the wire.
    pub busy: SimDuration,
}

/// A point-to-point link.
#[derive(Clone, Debug)]
pub struct Link {
    latency: SimDuration,
    bytes_per_sec: u64,
    stats: LinkStats,
}

/// The paper's Ethernet: 10 Mbit/s, 2 ms per-message latency.
pub const ETHERNET_10MBIT: (SimDuration, u64) = (SimDuration::from_millis(2), 1_250_000);

impl Link {
    /// Creates a link with the given latency and bandwidth (bytes/second).
    pub fn new(latency: SimDuration, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        Link { latency, bytes_per_sec, stats: LinkStats::default() }
    }

    /// A 10 Mbit/s Ethernet link.
    pub fn ethernet() -> Self {
        Link::new(ETHERNET_10MBIT.0, ETHERNET_10MBIT.1)
    }

    /// Pure cost query for transferring `bytes`.
    ///
    /// Transfer time rounds up to the next microsecond: a payload always
    /// costs at least as much wire time as the bandwidth allows, and the
    /// widened arithmetic cannot saturate for any `u64` payload (the old
    /// `bytes * 1_000_000` overflowed past ~18 TB and silently pinned the
    /// numerator at `u64::MAX`).
    pub fn transfer_cost(&self, bytes: u64) -> SimDuration {
        let micros = (bytes as u128 * 1_000_000).div_ceil(self.bytes_per_sec as u128);
        self.latency + SimDuration::from_micros_saturating(micros)
    }

    /// Transfers `bytes`, recording stats and returning the time charged.
    pub fn transfer(&mut self, bytes: u64) -> SimDuration {
        let took = self.transfer_cost(bytes);
        self.stats.messages += 1;
        self.stats.bytes += bytes;
        self.stats.busy += took;
        took
    }

    /// Accounting so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_is_latency_plus_transfer() {
        let link = Link::new(SimDuration::from_millis(2), 1_000_000);
        assert_eq!(link.transfer_cost(0), SimDuration::from_millis(2));
        assert_eq!(link.transfer_cost(1_000_000), SimDuration::from_millis(1_002));
    }

    #[test]
    fn ethernet_profile() {
        let link = Link::ethernet();
        // 1.25 MB at 1.25 MB/s = 1 s + 2 ms latency.
        assert_eq!(link.transfer_cost(1_250_000), SimDuration::from_millis(1_002));
    }

    #[test]
    fn transfer_accumulates_stats() {
        let mut link = Link::ethernet();
        link.transfer(1_000);
        link.transfer(2_000);
        let s = link.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 3_000);
        assert_eq!(s.busy, link.transfer_cost(1_000) + link.transfer_cost(2_000));
    }

    #[test]
    fn bigger_transfers_cost_more() {
        let link = Link::ethernet();
        assert!(link.transfer_cost(1 << 20) > link.transfer_cost(1 << 10));
    }

    #[test]
    fn sub_microsecond_transfers_round_up() {
        // 1 byte at 1.25 MB/s is 0.8 µs of wire time; truncation used to
        // charge 0 extra microseconds, making tiny messages free.
        let link = Link::ethernet();
        assert_eq!(link.transfer_cost(1), ETHERNET_10MBIT.0 + SimDuration::from_micros(1));
        assert!(link.transfer_cost(1) > link.transfer_cost(0));
    }

    #[test]
    fn huge_transfers_do_not_saturate() {
        // 20 TB at 1.25 MB/s: the old u64 numerator saturated and pinned
        // the cost at ~14762 s; the widened math reports the true 16 Ms.
        let link = Link::ethernet();
        let bytes = 20_u64 * 1_000_000_000_000;
        let expect = SimDuration::from_micros(bytes / 1_250_000 * 1_000_000);
        assert_eq!(link.transfer_cost(bytes), ETHERNET_10MBIT.0 + expect);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = Link::new(SimDuration::ZERO, 0);
    }
}

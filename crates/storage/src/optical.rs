//! The write-once optical disk.
//!
//! "Optical disks with huge storage capacities become reality. They will be
//! appropriate for storing text, digitized voice and digitized images."
//! (§1) The mid-80s optical disk is WORM: huge, slow to seek, modest
//! transfer rate, and sectors can never be rewritten — which is why
//! archived objects are immutable and version control appends.
//!
//! The medium is held as fixed 1 MiB extents (32 of the archive's 32 KiB
//! transfer units), each reserved once at full size and never grown.
//! Publishing therefore fills the tail extent and opens new ones: a
//! stored byte is written once and faulted in once, and a growing archive
//! never copies what it already holds into fresh memory, as one doubling
//! buffer would each time the store crossed a power of two. A read
//! gathers its span from the extents that hold it (one or two for a page)
//! into the caller's pooled buffer.

use crate::device::{BlockDevice, DeviceStats, Extents, TimingModel};
use minos_types::{ByteSpan, MinosError, Result, SimDuration};

/// Default capacity: 1 GB — "huge" for 1986.
pub const DEFAULT_OPTICAL_CAPACITY: u64 = 1 << 30;

/// Mid-80s optical timing: slow actuator, ~250 KB/s transfer.
pub const OPTICAL_TIMING: TimingModel = TimingModel {
    seek_base: SimDuration::from_millis(35),
    seek_full_stroke: SimDuration::from_millis(250),
    rotation: SimDuration::from_millis(20),
    transfer_rate: 250_000,
};

/// A write-once optical disk.
#[derive(Clone, Debug)]
pub struct OpticalDisk {
    media: Extents,
    capacity: u64,
    head: u64,
    timing: TimingModel,
    stats: DeviceStats,
    /// Probability a read transiently fails (media degradation).
    fault_rate: f64,
    /// Deterministic state for the fault stream.
    fault_state: u64,
    /// Probability a read surfaces latent bit rot (per read).
    rot_rate: f64,
    /// Deterministic state for the bit-rot stream.
    rot_state: u64,
    /// Bits flipped in the media by latent rot so far.
    rot_flips: u64,
}

impl OpticalDisk {
    /// A disk with the default capacity and timing.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_OPTICAL_CAPACITY)
    }

    /// A disk with explicit capacity.
    pub fn with_capacity(capacity: u64) -> Self {
        OpticalDisk {
            media: Extents::default(),
            capacity,
            head: 0,
            timing: OPTICAL_TIMING,
            stats: DeviceStats::default(),
            fault_rate: 0.0,
            fault_state: 0,
            rot_rate: 0.0,
            rot_state: 0,
            rot_flips: 0,
        }
    }

    /// Overrides the timing model (for calibration sweeps).
    pub fn with_timing(mut self, timing: TimingModel) -> Self {
        self.timing = timing;
        self
    }

    /// A disk whose reads transiently fail with probability `rate`,
    /// deterministically in `seed` — the aging-media error path for the
    /// fault experiments. A failed read moves nothing, charges no device
    /// time, and leaves the head in place; retrying the same span may
    /// succeed. Appends never fault: archival is verified at write time.
    pub fn with_read_faults(mut self, seed: u64, rate: f64) -> Self {
        self.fault_state = seed;
        self.fault_rate = rate;
        self
    }

    /// A disk whose media suffers latent bit rot: each successful read
    /// has probability `rate` of *persistently* flipping one bit inside
    /// the span it touches, deterministically in `seed`. Decay is
    /// physics, not a write — the WORM interface still refuses
    /// overwrites, the read returns the now-corrupt bytes with normal
    /// timing, and only a checksum can tell. The scrub/read-repair path
    /// exists to catch exactly this.
    pub fn with_bit_rot(mut self, seed: u64, rate: f64) -> Self {
        self.set_bit_rot(seed, rate);
        self
    }

    /// Enables (or re-seeds) latent bit rot on a live disk — the chaos
    /// orchestrator's knob for media already serving a fleet member.
    pub fn set_bit_rot(&mut self, seed: u64, rate: f64) {
        self.rot_state = seed;
        self.rot_rate = rate;
    }

    /// Bits flipped by latent rot over the disk's lifetime.
    pub fn bit_rot_flips(&self) -> u64 {
        self.rot_flips
    }

    /// One SplitMix64 step of the rot stream.
    fn rot_draw(&mut self) -> u64 {
        self.rot_state = self.rot_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rot_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Possibly decays one bit of the media inside `span` before a read
    /// returns it. The flip lands at a rot-stream-chosen offset, so equal
    /// seeds decay equal bits — chaos schedules replay exactly.
    fn apply_bit_rot(&mut self, span: ByteSpan) {
        if self.rot_rate <= 0.0 || span.is_empty() {
            return;
        }
        let draw = self.rot_draw();
        if ((draw >> 11) as f64 / (1u64 << 53) as f64) >= self.rot_rate {
            return;
        }
        let within = self.rot_draw();
        let offset = span.start + within % span.len();
        let bit = (within >> 32) % 8;
        if let Some(byte) = self.media.byte_mut(offset) {
            *byte ^= 1 << bit;
            self.rot_flips += 1;
        }
    }

    /// One Bernoulli draw from the deterministic fault stream. SplitMix64,
    /// inlined so the storage crate stays free of a transport dependency.
    fn read_fault_fires(&mut self) -> bool {
        if self.fault_rate <= 0.0 {
            return false;
        }
        if self.fault_rate >= 1.0 {
            return true;
        }
        self.fault_state = self.fault_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.fault_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        ((z >> 11) as f64 / (1u64 << 53) as f64) < self.fault_rate
    }
}

impl Default for OpticalDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockDevice for OpticalDisk {
    fn len(&self) -> u64 {
        self.media.len()
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn head_position(&self) -> u64 {
        self.head
    }

    fn access_cost(&self, offset: u64, len: u64) -> SimDuration {
        self.timing.access(self.head, offset, len, self.capacity)
    }

    fn read_at_into(&mut self, span: ByteSpan, out: &mut Vec<u8>) -> Result<SimDuration> {
        if span.end > self.len() {
            return Err(MinosError::Storage(format!(
                "read {span} past optical frontier {}",
                self.len()
            )));
        }
        if self.read_fault_fires() {
            return Err(MinosError::Storage(format!("transient read fault at {span}")));
        }
        self.apply_bit_rot(span);
        let took = self.access_cost(span.start, span.len());
        self.media.read_into(span, out)?;
        self.head = span.end;
        self.stats.record_read(span.len(), took);
        Ok(took)
    }

    fn append(&mut self, data: &[u8]) -> Result<(u64, SimDuration)> {
        let offset = self.len();
        if offset + data.len() as u64 > self.capacity {
            return Err(MinosError::Storage(format!(
                "optical disk full: {} + {} > {}",
                offset,
                data.len(),
                self.capacity
            )));
        }
        let took = self.access_cost(offset, data.len() as u64);
        self.media.append(data);
        self.head = self.len();
        self.stats.record_write(data.len() as u64, took);
        Ok((offset, took))
    }

    fn write_at(&mut self, offset: u64, _data: &[u8]) -> Result<SimDuration> {
        Err(MinosError::Storage(format!(
            "optical disk is write-once: cannot overwrite at {offset}"
        )))
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_then_read_round_trips() {
        let mut d = OpticalDisk::with_capacity(1 << 20);
        let (off_a, _) = d.append(b"first record").unwrap();
        let (off_b, _) = d.append(b"second").unwrap();
        assert_eq!(off_a, 0);
        assert_eq!(off_b, 12);
        let (data, _) = d.read_at(ByteSpan::at(off_a, 12)).unwrap();
        assert_eq!(data, b"first record");
        let (data, _) = d.read_at(ByteSpan::at(off_b, 6)).unwrap();
        assert_eq!(data, b"second");
    }

    #[test]
    fn read_at_into_reuses_the_buffer_and_matches_read_at() {
        let mut d = OpticalDisk::with_capacity(1 << 20);
        d.append(b"pooled read target").unwrap();
        let mut buf = Vec::with_capacity(64);
        let cap = buf.capacity();
        let took = d.read_at_into(ByteSpan::at(0, 6), &mut buf).unwrap();
        assert_eq!(buf, b"pooled");
        assert_eq!(buf.capacity(), cap, "the caller's allocation is reused");
        assert!(took > SimDuration::ZERO);
        let (owned, _) = d.read_at(ByteSpan::at(0, 6)).unwrap();
        assert_eq!(owned, buf, "both read paths return the same bytes");
        assert!(d.read_at_into(ByteSpan::at(10, 100), &mut buf).is_err(), "bounds still checked");
    }

    #[test]
    fn overwrite_is_refused() {
        let mut d = OpticalDisk::with_capacity(1 << 20);
        d.append(b"immutable").unwrap();
        assert!(d.write_at(0, b"mutated!!").is_err());
        let (data, _) = d.read_at(ByteSpan::at(0, 9)).unwrap();
        assert_eq!(data, b"immutable");
    }

    #[test]
    fn capacity_is_enforced() {
        let mut d = OpticalDisk::with_capacity(10);
        d.append(&[0; 8]).unwrap();
        assert!(d.append(&[0; 3]).is_err());
        assert_eq!(d.len(), 8, "failed append leaves nothing behind");
        d.append(&[0; 2]).unwrap();
    }

    #[test]
    fn read_past_frontier_is_error() {
        let mut d = OpticalDisk::with_capacity(1 << 20);
        d.append(&[1; 100]).unwrap();
        assert!(d.read_at(ByteSpan::at(50, 100)).is_err());
    }

    #[test]
    fn timing_charges_seek_and_transfer() {
        let mut d = OpticalDisk::with_capacity(1 << 20);
        d.append(&vec![0u8; 500_000]).unwrap();
        // Head is at 500_000. Reading near the head is cheaper than
        // seeking back to 0 and reading the same amount.
        let near = d.access_cost(499_000, 1_000);
        let far = d.access_cost(0, 1_000);
        assert!(near < far);
        // A large transfer is dominated by transfer time: 250_000 bytes at
        // 250 KB/s is one second.
        let big = d.access_cost(500_000, 250_000);
        assert!(big >= SimDuration::from_secs(1));
    }

    #[test]
    fn reads_move_the_head() {
        let mut d = OpticalDisk::with_capacity(1 << 20);
        d.append(&[7; 1000]).unwrap();
        d.read_at(ByteSpan::at(100, 50)).unwrap();
        assert_eq!(d.head_position(), 150);
    }

    #[test]
    fn injected_read_faults_are_transient_and_deterministic() {
        let make = || {
            let mut d = OpticalDisk::with_capacity(1 << 20).with_read_faults(13, 0.5);
            d.append(&[9; 1024]).unwrap();
            d
        };
        let mut a = make();
        let mut b = make();
        let outcomes_a: Vec<bool> =
            (0..32).map(|_| a.read_at(ByteSpan::at(0, 16)).is_ok()).collect();
        let outcomes_b: Vec<bool> =
            (0..32).map(|_| b.read_at(ByteSpan::at(0, 16)).is_ok()).collect();
        assert_eq!(outcomes_a, outcomes_b, "equal seeds replay equal fault sequences");
        assert!(outcomes_a.iter().any(|&ok| ok), "faults are transient: a retry can succeed");
        assert!(outcomes_a.iter().any(|&ok| !ok), "the fault rate really fires");
        // A failed read charges nothing: only successful reads are in the
        // device statistics.
        let ok_reads = outcomes_a.iter().filter(|&&ok| ok).count() as u64;
        assert_eq!(a.stats().reads, ok_reads);
        // A clean disk is unaffected by the machinery.
        let mut clean = OpticalDisk::with_capacity(1 << 20);
        clean.append(&[9; 64]).unwrap();
        for _ in 0..16 {
            clean.read_at(ByteSpan::at(0, 8)).unwrap();
        }
    }

    #[test]
    fn bit_rot_decays_the_media_persistently_and_deterministically() {
        let make = || {
            let mut d = OpticalDisk::with_capacity(1 << 20).with_bit_rot(29, 1.0);
            d.append(&[0xAA; 256]).unwrap();
            d
        };
        let mut a = make();
        let mut b = make();
        let (bytes_a, _) = a.read_at(ByteSpan::at(0, 256)).unwrap();
        let (bytes_b, _) = b.read_at(ByteSpan::at(0, 256)).unwrap();
        assert_eq!(bytes_a, bytes_b, "equal seeds decay equal bits");
        assert_eq!(a.bit_rot_flips(), 1, "rate 1.0 rots one bit per read");
        let flipped: Vec<usize> =
            bytes_a.iter().enumerate().filter(|(_, &by)| by != 0xAA).map(|(i, _)| i).collect();
        assert_eq!(flipped.len(), 1, "exactly one byte differs");
        // The decay is persistent: turning rot off and re-reading still
        // shows the flipped bit — the media itself changed, not the copy.
        a.set_bit_rot(0, 0.0);
        let (again, _) = a.read_at(ByteSpan::at(0, 256)).unwrap();
        assert_eq!(again, bytes_a, "the flip is in the media, not the read path");
        // The WORM interface still refuses to repair in place.
        assert!(a.write_at(flipped[0] as u64, &[0xAA]).is_err());
        // A rot-free disk is untouched by the machinery.
        let mut clean = OpticalDisk::with_capacity(1 << 20);
        clean.append(&[0xAA; 64]).unwrap();
        let (bytes, _) = clean.read_at(ByteSpan::at(0, 64)).unwrap();
        assert!(bytes.iter().all(|&by| by == 0xAA));
        assert_eq!(clean.bit_rot_flips(), 0);
    }

    #[test]
    fn bit_rot_at_low_rate_spares_most_reads() {
        let mut d = OpticalDisk::with_capacity(1 << 20).with_bit_rot(7, 0.05);
        d.append(&[0x55; 1024]).unwrap();
        for _ in 0..200 {
            let _ = d.read_at(ByteSpan::at(0, 512)).unwrap();
        }
        let flips = d.bit_rot_flips();
        assert!(flips > 0, "200 draws at 5% fire at least once");
        assert!(flips < 60, "the rate bounds the decay: {flips} flips");
    }

    #[test]
    fn stats_track_operations() {
        let mut d = OpticalDisk::with_capacity(1 << 20);
        d.append(&[0; 64]).unwrap();
        d.read_at(ByteSpan::at(0, 32)).unwrap();
        d.read_at(ByteSpan::at(32, 16)).unwrap();
        let s = d.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 2);
        assert_eq!(s.bytes_written, 64);
        assert_eq!(s.bytes_read, 48);
        assert!(s.busy > SimDuration::ZERO);
    }
}

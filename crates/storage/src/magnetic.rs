//! The rewritable magnetic disk.
//!
//! The server subsystem "may also contain one or more high performance
//! magnetic disks" (§5) — smaller than the optical store but several times
//! faster to access, which is what makes it worth staging hot blocks on
//! (experiment E7's cache configuration).

use crate::device::{BlockDevice, DeviceStats, Extents, TimingModel};
use minos_types::{ByteSpan, MinosError, Result, SimDuration};

/// Default capacity: 100 MB.
pub const DEFAULT_MAGNETIC_CAPACITY: u64 = 100 << 20;

/// Mid-80s high-performance magnetic disk: ~25 ms average access, 1 MB/s.
pub const MAGNETIC_TIMING: TimingModel = TimingModel {
    seek_base: SimDuration::from_millis(8),
    seek_full_stroke: SimDuration::from_millis(40),
    rotation: SimDuration::from_millis(8),
    transfer_rate: 1_000_000,
};

/// A rewritable magnetic disk.
#[derive(Clone, Debug)]
pub struct MagneticDisk {
    media: Extents,
    capacity: u64,
    head: u64,
    timing: TimingModel,
    stats: DeviceStats,
}

impl MagneticDisk {
    /// A disk with the default capacity and timing.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_MAGNETIC_CAPACITY)
    }

    /// A disk with explicit capacity.
    pub fn with_capacity(capacity: u64) -> Self {
        MagneticDisk {
            media: Extents::default(),
            capacity,
            head: 0,
            timing: MAGNETIC_TIMING,
            stats: DeviceStats::default(),
        }
    }

    /// Overrides the timing model.
    pub fn with_timing(mut self, timing: TimingModel) -> Self {
        self.timing = timing;
        self
    }
}

impl Default for MagneticDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockDevice for MagneticDisk {
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
                "read {span} past magnetic frontier {}",
                self.len()
            )));
        }
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
                "magnetic disk full: {} + {} > {}",
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

    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<SimDuration> {
        let end = offset + data.len() as u64;
        if end > self.len() {
            return Err(MinosError::Storage(format!(
                "write [{offset}, {end}) past magnetic frontier {}",
                self.len()
            )));
        }
        let took = self.access_cost(offset, data.len() as u64);
        self.media.write(offset, data)?;
        self.head = end;
        self.stats.record_write(data.len() as u64, took);
        Ok(took)
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optical::OpticalDisk;

    #[test]
    fn rewrite_in_place_works() {
        let mut d = MagneticDisk::with_capacity(1 << 20);
        d.append(b"original!!").unwrap();
        d.write_at(0, b"rewritten").unwrap();
        let (data, _) = d.read_at(ByteSpan::at(0, 10)).unwrap();
        assert_eq!(&data, b"rewritten!");
    }

    #[test]
    fn write_past_frontier_is_error() {
        let mut d = MagneticDisk::with_capacity(1 << 20);
        d.append(b"xy").unwrap();
        assert!(d.write_at(1, b"abc").is_err());
    }

    #[test]
    fn magnetic_is_faster_than_optical() {
        let mut m = MagneticDisk::with_capacity(1 << 20);
        let mut o = OpticalDisk::with_capacity(1 << 20);
        let payload = vec![0u8; 100_000];
        m.append(&payload).unwrap();
        o.append(&payload).unwrap();
        let span = ByteSpan::at(0, 100_000);
        let (_, tm) = m.read_at(span).unwrap();
        let (_, to) = o.read_at(span).unwrap();
        assert!(tm * 2 < to, "magnetic {tm} not ≪ optical {to}");
    }

    #[test]
    fn capacity_enforced() {
        let mut d = MagneticDisk::with_capacity(4);
        assert!(d.append(&[0; 5]).is_err());
        d.append(&[0; 4]).unwrap();
    }

    #[test]
    fn stats_cover_rewrites() {
        let mut d = MagneticDisk::with_capacity(1 << 20);
        d.append(&[0; 10]).unwrap();
        d.write_at(0, &[1; 10]).unwrap();
        assert_eq!(d.stats().writes, 2);
        assert_eq!(d.stats().bytes_written, 20);
    }
}

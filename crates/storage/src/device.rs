//! The block-device abstraction and its timing vocabulary.
//!
//! Devices charge simulated time for every access: a position-dependent
//! seek, an average rotational latency, and a size-dependent transfer. The
//! numbers are per-device (see [`crate::optical`] and [`crate::magnetic`])
//! and chosen to mid-1980s magnitudes, which is what gives the queueing
//! experiment (E7) its shape.

use minos_types::{ByteSpan, MinosError, Result, SimDuration};
use std::ops::Range;

/// Access statistics, maintained by every device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Completed read operations.
    pub reads: u64,
    /// Completed writes/appends.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Total simulated time the device was busy.
    pub busy: SimDuration,
}

impl DeviceStats {
    /// Records a read.
    pub fn record_read(&mut self, bytes: u64, took: SimDuration) {
        self.reads += 1;
        self.bytes_read += bytes;
        self.busy += took;
    }

    /// Records a write.
    pub fn record_write(&mut self, bytes: u64, took: SimDuration) {
        self.writes += 1;
        self.bytes_written += bytes;
        self.busy += took;
    }
}

/// A storage device with explicit timing.
pub trait BlockDevice {
    /// Bytes currently stored (the write frontier for append-only
    /// devices).
    fn len(&self) -> u64;

    /// Whether nothing is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity in bytes.
    fn capacity(&self) -> u64;

    /// Current head position (byte offset), for seek modelling and
    /// scheduling.
    fn head_position(&self) -> u64;

    /// Pure cost query: what an access of `len` bytes at `offset` would
    /// cost with the head where it is now. Schedulers use this without
    /// disturbing the device.
    fn access_cost(&self, offset: u64, len: u64) -> SimDuration;

    /// Reads a span into `out` (cleared first), reusing its capacity, and
    /// returns the time charged: the one read path of every device, which
    /// copies straight from media into the caller's pooled buffer. An
    /// error leaves `out` untouched.
    fn read_at_into(&mut self, span: ByteSpan, out: &mut Vec<u8>) -> Result<SimDuration>;

    /// Reads a span into a fresh buffer, returning the data and the time
    /// charged.
    fn read_at(&mut self, span: ByteSpan) -> Result<(Vec<u8>, SimDuration)> {
        let mut out = Vec::new();
        let took = self.read_at_into(span, &mut out)?;
        Ok((out, took))
    }

    /// Appends data at the write frontier, returning its offset and the
    /// time charged.
    fn append(&mut self, data: &[u8]) -> Result<(u64, SimDuration)>;

    /// Overwrites in place. Write-once devices refuse.
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<SimDuration>;

    /// Access statistics so far.
    fn stats(&self) -> DeviceStats;
}

/// Bytes per extent of a device's media: 32 of the archive's 32 KiB
/// transfer units.
const EXTENT: usize = 1 << 20;

/// A device's stored bytes, held as fixed-size extents.
///
/// Each extent is reserved at its full size when the first byte lands in
/// it and is never grown, so a stored byte is written once, faulted in
/// once, and never moves: a growing medium costs no copy of what it
/// already holds. Every extent but the last is full (by length), which is
/// what maps an offset to `(offset / EXTENT, offset % EXTENT)`.
#[derive(Debug, Default)]
pub(crate) struct Extents {
    extents: Vec<Vec<u8>>,
    len: u64,
}

impl Clone for Extents {
    /// Re-appends, so the copy's tail extent is reserved at full size too.
    fn clone(&self) -> Self {
        let mut copy = Extents::default();
        for extent in &self.extents {
            copy.append(extent);
        }
        copy
    }
}

impl Extents {
    /// Bytes stored.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Appends `data` at the end, filling the tail extent and reserving
    /// new ones as it goes.
    pub(crate) fn append(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            match self.extents.last_mut() {
                Some(tail) if tail.len() < EXTENT => {
                    let (head, rest) = data.split_at(data.len().min(EXTENT - tail.len()));
                    tail.extend_from_slice(head);
                    self.len += head.len() as u64;
                    data = rest;
                }
                _ => self.extents.push(Vec::with_capacity(EXTENT)),
            }
        }
    }

    /// Copies `span` into `out` (cleared first, capacity reused). A span
    /// past the end is refused before `out` is touched.
    pub(crate) fn read_into(&self, span: ByteSpan, out: &mut Vec<u8>) -> Result<()> {
        if span.end > self.len {
            return Err(outside(span));
        }
        out.clear();
        out.reserve(span.len() as usize);
        for (extent, range) in pieces(span) {
            let bytes = self.extents.get(extent).and_then(|e| e.get(range));
            out.extend_from_slice(bytes.ok_or_else(|| outside(span))?);
        }
        Ok(())
    }

    /// Overwrites stored bytes from `offset` on, across extent
    /// boundaries. A write past the end is refused before any byte moves.
    pub(crate) fn write(&mut self, offset: u64, mut data: &[u8]) -> Result<()> {
        let span = ByteSpan::at(offset, data.len() as u64);
        if span.end > self.len {
            return Err(outside(span));
        }
        for (extent, range) in pieces(span) {
            let (head, rest) = data.split_at(range.len());
            let bytes = self.extents.get_mut(extent).and_then(|e| e.get_mut(range));
            bytes.ok_or_else(|| outside(span))?.copy_from_slice(head);
            data = rest;
        }
        Ok(())
    }

    /// The stored byte at `offset`, if any.
    pub(crate) fn byte_mut(&mut self, offset: u64) -> Option<&mut u8> {
        let extent = self.extents.get_mut((offset / EXTENT as u64) as usize)?;
        extent.get_mut((offset % EXTENT as u64) as usize)
    }
}

/// The `(extent, range within it)` pieces `span` covers, in order.
fn pieces(span: ByteSpan) -> impl Iterator<Item = (usize, Range<usize>)> {
    let mut at = span.start;
    std::iter::from_fn(move || {
        (at < span.end).then(|| {
            let within = (at % EXTENT as u64) as usize;
            let n = (EXTENT - within).min((span.end - at) as usize);
            let piece = ((at / EXTENT as u64) as usize, within..within + n);
            at += n as u64;
            piece
        })
    })
}

fn outside(span: ByteSpan) -> MinosError {
    MinosError::Storage(format!("{span} outside the stored media"))
}

/// Shared timing math for the concrete devices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimingModel {
    /// Fixed cost of starting any access.
    pub seek_base: SimDuration,
    /// Additional full-stroke seek cost; actual seek scales with distance
    /// as a fraction of capacity.
    pub seek_full_stroke: SimDuration,
    /// Average rotational latency.
    pub rotation: SimDuration,
    /// Transfer rate in bytes per second.
    pub transfer_rate: u64,
}

impl TimingModel {
    /// Cost of accessing `len` bytes at `offset` from `head`, on a device
    /// of `capacity` bytes.
    pub fn access(&self, head: u64, offset: u64, len: u64, capacity: u64) -> SimDuration {
        let distance = head.abs_diff(offset);
        let seek = self.seek_base + self.seek_full_stroke.mul_ratio(distance, capacity.max(1));
        let transfer =
            SimDuration::from_micros(len.saturating_mul(1_000_000) / self.transfer_rate.max(1));
        seek + self.rotation + transfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODEL: TimingModel = TimingModel {
        seek_base: SimDuration::from_millis(10),
        seek_full_stroke: SimDuration::from_millis(100),
        rotation: SimDuration::from_millis(8),
        transfer_rate: 1_000_000, // 1 MB/s
    };

    #[test]
    fn access_cost_components() {
        // Zero distance, zero length: base + rotation.
        let t = MODEL.access(0, 0, 0, 1_000_000);
        assert_eq!(t, SimDuration::from_millis(18));
        // Full stroke adds the full seek.
        let t = MODEL.access(0, 1_000_000, 0, 1_000_000);
        assert_eq!(t, SimDuration::from_millis(118));
        // Transfer of 1MB at 1MB/s adds a second.
        let t = MODEL.access(0, 0, 1_000_000, 1_000_000);
        assert_eq!(t, SimDuration::from_millis(1_018));
    }

    #[test]
    fn nearer_accesses_are_cheaper() {
        let near = MODEL.access(500_000, 510_000, 1_000, 1_000_000);
        let far = MODEL.access(500_000, 990_000, 1_000, 1_000_000);
        assert!(near < far);
    }

    #[test]
    fn cost_is_symmetric_in_direction() {
        let fwd = MODEL.access(100, 200, 10, 1_000);
        let back = MODEL.access(200, 100, 10, 1_000);
        assert_eq!(fwd, back);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = DeviceStats::default();
        s.record_read(100, SimDuration::from_millis(5));
        s.record_read(50, SimDuration::from_millis(3));
        s.record_write(10, SimDuration::from_millis(2));
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_read, 150);
        assert_eq!(s.bytes_written, 10);
        assert_eq!(s.busy, SimDuration::from_millis(10));
    }

    #[test]
    fn zero_capacity_does_not_divide_by_zero() {
        let t = MODEL.access(0, 10, 0, 0);
        assert!(t >= MODEL.seek_base);
    }

    #[test]
    fn stored_bytes_never_move_and_reserve_at_most_one_spare_extent() {
        let mut store = Extents::default();
        store.append(&[1; 1000]);
        let first = store.extents.first().map(|e| e.as_ptr()).unwrap();
        let chunk = vec![2; EXTENT / 3 + 7];
        while store.len() < 3 * EXTENT as u64 + 1 {
            store.append(&chunk);
            assert_eq!(store.extents.first().map(|e| e.as_ptr()), Some(first), "no byte moves");
        }
        let reserved: usize = store.extents.iter().map(Vec::capacity).sum();
        assert!(reserved as u64 <= store.len() + EXTENT as u64, "reserved {reserved}");
        assert!(store.extents.iter().rev().skip(1).all(|e| e.len() == EXTENT), "full but the tail");
        // A copy re-reserves its tail at full size, so it too grows
        // without moving a byte.
        let copy = store.clone();
        assert_eq!(copy.len(), store.len());
        assert_eq!(copy.extents.last().map(Vec::capacity), Some(EXTENT));
        assert!(copy.extents.iter().zip(&store.extents).all(|(a, b)| a == b));
    }
}

#[cfg(test)]
mod extent_proptests {
    use super::*;
    use crate::magnetic::MagneticDisk;
    use crate::optical::OpticalDisk;
    use proptest::prelude::*;

    /// A byte that depends on its offset beyond the low bits, so a piece
    /// copied from the wrong extent or position shows.
    fn byte_at(offset: u64, salt: u8) -> u8 {
        (offset.wrapping_mul(0x9e37_79b9) >> 13) as u8 ^ salt
    }

    const EXTENT64: u64 = EXTENT as u64;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Both disks' extent-held media read, rewrite, rot and refuse
        /// exactly as one flat buffer would: appends of nothing, under an
        /// extent, exactly one and several, then spans anywhere, most of
        /// them straddling an extent boundary.
        #[test]
        fn extent_media_match_a_flat_reference(
            sizes in proptest::collection::vec(
                proptest::sample::select(vec![
                    0usize, 1, 4_099, EXTENT - 1, EXTENT, EXTENT + 1, 3 * EXTENT + 17,
                ]),
                1..5,
            ),
            salt in any::<u8>(),
            spans in proptest::collection::vec(
                (
                    any::<bool>(),
                    any::<u64>(),
                    proptest::sample::select(vec![
                        0u64, 1, 31, 4_096, 32_768, EXTENT64 - 1, EXTENT64, EXTENT64 + 5,
                    ]),
                ),
                12..20,
            ),
            rot_seed in any::<u64>(),
        ) {
            let total: u64 = sizes.iter().map(|&n| n as u64).sum();
            let capacity = total + 16;
            let mut flat = Vec::new();
            let mut optical = OpticalDisk::with_capacity(capacity);
            let mut magnetic = MagneticDisk::with_capacity(capacity);
            for &n in &sizes {
                let offset = flat.len() as u64;
                let chunk: Vec<u8> = (offset..offset + n as u64).map(|o| byte_at(o, salt)).collect();
                prop_assert_eq!(optical.append(&chunk).unwrap().0, offset);
                prop_assert_eq!(magnetic.append(&chunk).unwrap().0, offset);
                flat.extend_from_slice(&chunk);
            }
            prop_assert_eq!(optical.len(), total);
            prop_assert_eq!(magnetic.len(), total);

            let extents = total / EXTENT64;
            for &(near_boundary, raw, len) in &spans {
                let start = if near_boundary {
                    ((raw % (extents + 2)) * EXTENT64).saturating_sub((raw >> 40) % 48)
                } else {
                    raw % (total + 2)
                };
                let span = ByteSpan::at(start, len);
                let mut pooled = vec![0xEE; 3];
                if span.end <= total {
                    let want = &flat[start as usize..span.end as usize];
                    prop_assert_eq!(&optical.read_at(span).unwrap().0[..], want);
                    optical.read_at_into(span, &mut pooled).unwrap();
                    prop_assert_eq!(&pooled[..], want);
                    prop_assert_eq!(&magnetic.read_at(span).unwrap().0[..], want);
                    magnetic.read_at_into(span, &mut pooled).unwrap();
                    prop_assert_eq!(&pooled[..], want);
                } else {
                    prop_assert_eq!(
                        optical.read_at_into(span, &mut pooled),
                        Err(MinosError::Storage(format!("read {span} past optical frontier {total}")))
                    );
                    prop_assert_eq!(
                        magnetic.read_at_into(span, &mut pooled),
                        Err(MinosError::Storage(format!("read {span} past magnetic frontier {total}")))
                    );
                    prop_assert_eq!(&pooled[..], &[0xEE; 3], "a refused read leaves the buffer alone");
                    prop_assert!(optical.read_at(span).is_err() && magnetic.read_at(span).is_err());
                }
            }

            if total > EXTENT64 + 8 {
                // A rewrite across the first boundary lands on both sides.
                let offset = EXTENT64 - 3 - (rot_seed % 3);
                let patch = [0x5A, 0xA5, 0x3C, 0xC3, 0x0F, 0xF0, 0x99];
                magnetic.write_at(offset, &patch).unwrap();
                let mut rewritten = flat.clone();
                rewritten[offset as usize..offset as usize + patch.len()].copy_from_slice(&patch);
                let around = ByteSpan::at(EXTENT64 - 16, 32);
                prop_assert_eq!(
                    &magnetic.read_at(around).unwrap().0[..],
                    &rewritten[around.start as usize..around.end as usize]
                );

                // Rot on a one-byte read flips that very byte, on either
                // side of the boundary, and the flip stays in the media.
                let at = EXTENT64 - 1 + (rot_seed % 2);
                optical.set_bit_rot(rot_seed, 1.0);
                let (rotted, _) = optical.read_at(ByteSpan::at(at, 1)).unwrap();
                optical.set_bit_rot(0, 0.0);
                prop_assert_eq!((rotted[0] ^ flat[at as usize]).count_ones(), 1);
                prop_assert_eq!(optical.bit_rot_flips(), 1);
                flat[at as usize] = rotted[0];
                prop_assert_eq!(
                    &optical.read_at(around).unwrap().0[..],
                    &flat[around.start as usize..around.end as usize]
                );
            }

            let past = total.saturating_sub(2);
            prop_assert_eq!(
                magnetic.write_at(past, &[0; 5]),
                Err(MinosError::Storage(format!(
                    "write [{past}, {}) past magnetic frontier {total}",
                    past + 5
                )))
            );
            prop_assert_eq!(
                optical.append(&[0; 17]),
                Err(MinosError::Storage(format!("optical disk full: {total} + 17 > {capacity}")))
            );
            prop_assert_eq!(
                magnetic.append(&[0; 17]),
                Err(MinosError::Storage(format!("magnetic disk full: {total} + 17 > {capacity}")))
            );
            prop_assert_eq!((optical.len(), magnetic.len()), (total, total));
        }
    }
}

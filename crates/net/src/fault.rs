//! Deterministic link-fault injection.
//!
//! The paper's §5 architecture assumes the presentation manager survives
//! whatever the shared LAN does to its frames. This module supplies the
//! adversary: a [`FaultyLink`] wraps a [`Link`] and, driven by a seeded
//! [`FaultPlan`], can drop, bit-flip, truncate, duplicate, and delay
//! (reorder) the frames that cross it. Every decision comes from a
//! deterministic generator seeded by the plan, so a failing run replays
//! exactly from its seed.
//!
//! Two invariants shape the model:
//!
//! - **Wire time is charged for lost bytes.** A dropped or mangled frame
//!   occupied the link for its full original length; the fault layer only
//!   decides what (if anything) comes out the far end.
//! - **The fault layer never interprets bytes.** It mangles the encoded
//!   frame; integrity is the receiver's job (the CRC32 trailer added by
//!   `Frame::encode`), recovery is the connection's job (deadlines and
//!   retransmission in `core::remote`).

use crate::link::{Link, LinkStats};
use minos_types::SimDuration;
use std::borrow::Cow;

/// A deterministic pseudo-random stream for fault decisions (SplitMix64).
///
/// Small, seedable, and statistically adequate for Bernoulli draws; kept
/// local so the fault model needs no external randomness dependency.
#[derive(Clone, Debug)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Creates a generator from `seed`; equal seeds replay equal streams.
    pub fn new(seed: u64) -> Self {
        FaultRng { state: seed }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Bernoulli draw: `true` with probability `p`. Probabilities at or
    /// below zero (and at or above one) are decided without consuming a
    /// draw, so disabling one fault kind does not shift the stream of
    /// another plan sharing the seed.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53 uniform mantissa bits, the standard unit-interval construction.
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }

    /// A uniform draw in `0..n` (`0` when `n` is zero).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.next_u64() % n
    }
}

/// What a link is allowed to do to frames, as independent per-frame
/// probabilities. All zeros (see [`FaultPlan::none`]) is the perfect link
/// every transport had before this module existed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the decision stream; equal seeds replay equal fault
    /// sequences.
    pub seed: u64,
    /// Probability a frame vanishes entirely (wire time still charged).
    pub drop: f64,
    /// Probability one bit of the frame is flipped.
    pub corrupt: f64,
    /// Probability the frame is cut short at a random length.
    pub truncate: f64,
    /// Probability the frame is delivered twice.
    pub duplicate: f64,
    /// Probability the frame is delayed by [`FaultPlan::reorder_delay`],
    /// letting later frames overtake it.
    pub reorder: f64,
    /// How long a reordered frame is held back.
    pub reorder_delay: SimDuration,
}

impl FaultPlan {
    /// The perfect link: no faults, ever.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            corrupt: 0.0,
            truncate: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_delay: SimDuration::ZERO,
        }
    }

    /// A plan that only flips bits, at `rate` per frame — the E13 axis.
    pub fn corrupting(seed: u64, rate: f64) -> Self {
        FaultPlan { seed, corrupt: rate, ..FaultPlan::none() }
    }

    /// A plan that only drops frames, at `rate` per frame.
    pub fn dropping(seed: u64, rate: f64) -> Self {
        FaultPlan { seed, drop: rate, ..FaultPlan::none() }
    }

    /// A plan that exercises every fault kind at `rate`, with a 10 ms
    /// reorder hold — the fuzz-corpus shape.
    pub fn chaos(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            drop: rate,
            corrupt: rate,
            truncate: rate,
            duplicate: rate,
            reorder: rate,
            reorder_delay: SimDuration::from_millis(10),
        }
    }

    /// Whether this plan can never alter a frame. Clean plans let
    /// transports keep their zero-copy fast path.
    pub fn is_clean(&self) -> bool {
        self.drop <= 0.0
            && self.corrupt <= 0.0
            && self.truncate <= 0.0
            && self.duplicate <= 0.0
            && self.reorder <= 0.0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Counts of what the fault layer actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames presented to the fault layer.
    pub frames: u64,
    /// Frames that vanished.
    pub dropped: u64,
    /// Frames with a flipped bit.
    pub corrupted: u64,
    /// Frames cut short.
    pub truncated: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames held back by the reorder delay.
    pub delayed: u64,
}

/// One copy of a frame that made it out of the fault layer: the (possibly
/// mangled) bytes and any extra delivery delay beyond the wire transfer.
///
/// Pristine copies *borrow* the sender's encoded bytes — the clean path
/// and unmangled duplicates cost nothing — and the bytes are owned only
/// when a corruption or truncation actually rewrote them. Receivers that
/// must keep a copy past the sender's buffer call
/// [`Cow::into_owned`] on [`Delivery::bytes`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery<'a> {
    /// The bytes the receiver sees.
    pub bytes: Cow<'a, [u8]>,
    /// Extra hold beyond the transfer time (zero unless reordered).
    pub delay: SimDuration,
}

impl FaultPlan {
    /// Runs one frame through the plan: zero deliveries for a drop, two
    /// for a duplicate, otherwise one — mangled or pristine. Decisions are
    /// drawn from `rng` in a fixed order (drop, corrupt, truncate,
    /// reorder, duplicate) so runs replay exactly.
    pub fn apply<'a>(
        &self,
        rng: &mut FaultRng,
        bytes: &'a [u8],
        stats: &mut FaultStats,
    ) -> Vec<Delivery<'a>> {
        stats.frames += 1;
        if self.is_clean() {
            return vec![Delivery { bytes: Cow::Borrowed(bytes), delay: SimDuration::ZERO }];
        }
        if rng.chance(self.drop) {
            stats.dropped += 1;
            return Vec::new();
        }
        // Copy-on-mangle: the frame stays borrowed until a fault actually
        // rewrites it.
        let mut out: Cow<'a, [u8]> = Cow::Borrowed(bytes);
        if rng.chance(self.corrupt) && !out.is_empty() {
            stats.corrupted += 1;
            let at = rng.below(out.len() as u64) as usize;
            let mask = 1u8 << rng.below(8);
            if let Some(byte) = out.to_mut().get_mut(at) {
                *byte ^= mask;
            }
        }
        if rng.chance(self.truncate) && !out.is_empty() {
            stats.truncated += 1;
            let keep = rng.below(out.len() as u64) as usize;
            out.to_mut().truncate(keep);
        }
        let delay = if rng.chance(self.reorder) {
            stats.delayed += 1;
            self.reorder_delay
        } else {
            SimDuration::ZERO
        };
        let mut deliveries = vec![Delivery { bytes: out, delay }];
        if rng.chance(self.duplicate) {
            stats.duplicated += 1;
            // A pristine duplicate borrows too; only a mangled one clones.
            let copy = deliveries.first().map(|d| d.bytes.clone()).unwrap_or(Cow::Borrowed(bytes));
            deliveries.push(Delivery { bytes: copy, delay: SimDuration::ZERO });
        }
        deliveries
    }
}

/// A [`Link`] with a fault plan attached.
///
/// Transfers charge the wrapped link for the *original* frame length —
/// dropped and mangled bytes still occupied the wire — and then hand the
/// plan's deliveries back to the caller, which decodes (or fails to
/// decode) each copy on its own.
#[derive(Clone, Debug)]
pub struct FaultyLink {
    link: Link,
    plan: FaultPlan,
    rng: FaultRng,
    stats: FaultStats,
}

impl FaultyLink {
    /// Attaches `plan` to `link`.
    pub fn new(link: Link, plan: FaultPlan) -> Self {
        FaultyLink { link, plan, rng: FaultRng::new(plan.seed), stats: FaultStats::default() }
    }

    /// A faulty link whose plan is clean — behaves exactly like the bare
    /// `link`.
    pub fn clean(link: Link) -> Self {
        FaultyLink::new(link, FaultPlan::none())
    }

    /// Whether the plan can never alter a frame.
    pub fn is_clean(&self) -> bool {
        self.plan.is_clean()
    }

    /// The attached plan.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// The wrapped link's transfer accounting.
    pub fn stats(&self) -> LinkStats {
        self.link.stats()
    }

    /// What the fault layer has done so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.stats
    }

    /// Pure cost query for transferring `bytes` over the wrapped link.
    pub fn transfer_cost(&self, bytes: u64) -> SimDuration {
        self.link.transfer_cost(bytes)
    }

    /// Charges wire time for `bytes` without fault processing — the typed
    /// fast path transports keep when the plan is clean.
    pub fn charge(&mut self, bytes: u64) -> SimDuration {
        self.link.transfer(bytes)
    }

    /// Transfers one encoded frame: charges wire time for its full length,
    /// then returns what the far end receives (possibly nothing, possibly
    /// two copies, possibly mangled bytes). Pristine deliveries borrow
    /// `bytes`; only mangled ones own a rewritten copy.
    pub fn transmit<'a>(&mut self, bytes: &'a [u8]) -> (SimDuration, Vec<Delivery<'a>>) {
        let took = self.link.transfer(bytes.len() as u64);
        let deliveries = self.plan.apply(&mut self.rng, bytes, &mut self.stats);
        (took, deliveries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes() -> Vec<u8> {
        (0u16..200).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn clean_plan_is_a_passthrough() {
        let mut fl = FaultyLink::clean(Link::ethernet());
        assert!(fl.is_clean());
        let bytes = frame_bytes();
        let (took, deliveries) = fl.transmit(&bytes);
        assert_eq!(took, Link::ethernet().transfer_cost(bytes.len() as u64));
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].bytes, bytes);
        assert_eq!(deliveries[0].delay, SimDuration::ZERO);
        assert!(
            matches!(deliveries[0].bytes, Cow::Borrowed(_)),
            "the clean path borrows the sender's bytes instead of copying"
        );
        assert_eq!(fl.fault_stats().frames, 1);
        assert_eq!(fl.fault_stats().dropped, 0);
    }

    #[test]
    fn drops_still_charge_wire_time() {
        let mut fl = FaultyLink::new(Link::ethernet(), FaultPlan::dropping(7, 1.0));
        let bytes = frame_bytes();
        let (took, deliveries) = fl.transmit(&bytes);
        assert!(deliveries.is_empty());
        assert!(took > SimDuration::ZERO);
        let stats = fl.stats();
        assert_eq!(stats.bytes, bytes.len() as u64, "lost bytes occupied the wire");
        assert_eq!(fl.fault_stats().dropped, 1);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut fl = FaultyLink::new(Link::ethernet(), FaultPlan::corrupting(3, 1.0));
        let bytes = frame_bytes();
        let (_, deliveries) = fl.transmit(&bytes);
        assert_eq!(deliveries.len(), 1);
        let out = &deliveries[0].bytes;
        assert_eq!(out.len(), bytes.len());
        let flipped: u32 = out.iter().zip(&bytes).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit differs");
        assert!(
            matches!(out, Cow::Owned(_)),
            "a mangled frame owns its rewritten bytes; the original is untouched"
        );
        assert_eq!(fl.fault_stats().corrupted, 1);
    }

    #[test]
    fn duplicates_deliver_two_copies() {
        let plan = FaultPlan { seed: 11, duplicate: 1.0, ..FaultPlan::none() };
        let mut fl = FaultyLink::new(Link::ethernet(), plan);
        let bytes = frame_bytes();
        let (_, deliveries) = fl.transmit(&bytes);
        assert_eq!(deliveries.len(), 2);
        assert_eq!(deliveries[0].bytes, bytes);
        assert_eq!(deliveries[1].bytes, bytes);
        assert!(
            deliveries.iter().all(|d| matches!(d.bytes, Cow::Borrowed(_))),
            "pristine duplicates borrow: duplication alone copies nothing"
        );
        assert_eq!(fl.fault_stats().duplicated, 1);
    }

    #[test]
    fn reorder_holds_the_frame_back() {
        let plan = FaultPlan {
            seed: 5,
            reorder: 1.0,
            reorder_delay: SimDuration::from_millis(25),
            ..FaultPlan::none()
        };
        let mut fl = FaultyLink::new(Link::ethernet(), plan);
        let bytes = frame_bytes();
        let (_, deliveries) = fl.transmit(&bytes);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].delay, SimDuration::from_millis(25));
        assert_eq!(fl.fault_stats().delayed, 1);
    }

    #[test]
    fn seeded_runs_replay_exactly() {
        let plan = FaultPlan::chaos(42, 0.3);
        let mut a = FaultyLink::new(Link::ethernet(), plan);
        let mut b = FaultyLink::new(Link::ethernet(), plan);
        for _ in 0..50 {
            let bytes = frame_bytes();
            assert_eq!(a.transmit(&bytes), b.transmit(&bytes));
        }
        assert_eq!(a.fault_stats(), b.fault_stats());
    }

    #[test]
    fn fault_rates_are_roughly_honoured() {
        let mut fl = FaultyLink::new(Link::ethernet(), FaultPlan::dropping(123, 0.25));
        let bytes = frame_bytes();
        for _ in 0..2_000 {
            let _ = fl.transmit(&bytes);
        }
        let dropped = fl.fault_stats().dropped;
        assert!((400..600).contains(&dropped), "25% of 2000 ≈ 500, got {dropped}");
    }

    #[test]
    fn zero_probability_draws_consume_no_stream() {
        // Disabling a fault kind must not shift the decisions of the
        // remaining kinds, or tightening a plan would reshuffle a replay.
        let mut a = FaultRng::new(77);
        let mut b = FaultRng::new(77);
        assert!(!a.chance(0.0));
        assert!(a.chance(1.0));
        assert_eq!(a.next_u64(), b.next_u64());
    }
}

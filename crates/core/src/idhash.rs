//! One deterministic hasher for the sets of integer ids.
//!
//! Timer ids are unique `u64`s handed out in sequence. std's default
//! SipHash spends most of each lookup defending against adversarial keys
//! that these sets never see, and its per-process random seed makes their
//! iteration order differ between two runs of one seed. [`IdHasher`] is
//! one rotate, xor and Fibonacci multiply per word (the FxHash step):
//! equal on every run, and because the multiplier is odd, consecutive ids
//! land in distinct buckets of any power-of-two table.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, rounded to odd: the Fibonacci-hashing multiplier.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// The hasher behind [`IdSet`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(SEED);
    }
}

/// Builds [`IdHasher`]s; the same on every run.
pub(crate) type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A set of timer ids.
pub(crate) type IdSet = HashSet<u64, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn equal_ids_hash_equal_and_consecutive_ids_spread() {
        let build = IdBuildHasher::default();
        assert_eq!(build.hash_one(42u64), IdBuildHasher::default().hash_one(42u64));
        // The low bits pick the bucket: 64 consecutive ids fill all 64
        // buckets of a 64-bucket table.
        let buckets: HashSet<u64> = (1..=64u64).map(|id| build.hash_one(id) & 63).collect();
        assert_eq!(buckets.len(), 64);
    }
}

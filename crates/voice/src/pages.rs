//! Audio pages.
//!
//! "Audio pages (or voice pages) in a speech are consecutive partitions of
//! the audio object part which are of approximately constant time length.
//! The user can advance several voice pages at a time in order to find some
//! relevant information." (§2)
//!
//! Unlike visual pages, audio pages are *not* boundaries of playback:
//! "speech is not interrupted at the end of each voice page". They exist
//! purely as a coordinate system for page-style browsing, which is what
//! makes the voice command set symmetric with the text one.

use minos_types::{PageNumber, SimDuration, SimInstant, TimeSpan};

/// Constant-length pagination of a voice part.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AudioPages {
    total: SimDuration,
    page_len: SimDuration,
}

impl AudioPages {
    /// Paginates a voice part of `total` length into pages of `page_len`.
    pub fn new(total: SimDuration, page_len: SimDuration) -> Self {
        assert!(page_len > SimDuration::ZERO, "page length must be positive");
        AudioPages { total, page_len }
    }

    /// Total duration paginated.
    pub fn total(&self) -> SimDuration {
        self.total
    }

    /// The constant page length.
    pub fn page_len(&self) -> SimDuration {
        self.page_len
    }

    /// Number of pages (the final page may be shorter).
    pub fn page_count(&self) -> usize {
        if self.total == SimDuration::ZERO {
            return 0;
        }
        usize::try_from(self.total.as_micros().div_ceil(self.page_len.as_micros()))
            .unwrap_or(usize::MAX)
    }

    /// The time span of page `index` (0-based). `None` past the end.
    pub fn span_of(&self, index: usize) -> Option<TimeSpan> {
        if index >= self.page_count() {
            return None;
        }
        let start = self.page_len * index as u64;
        let end_us = (start + self.page_len).as_micros().min(self.total.as_micros());
        Some(TimeSpan::new(SimInstant::EPOCH + start, SimInstant::from_micros(end_us)))
    }

    /// The 0-based page containing instant `t` (positions at or past the
    /// end resolve to the last page).
    pub fn page_containing(&self, t: SimInstant) -> Option<usize> {
        let count = self.page_count();
        if count == 0 {
            return None;
        }
        let idx = usize::try_from(t.as_micros() / self.page_len.as_micros()).unwrap_or(usize::MAX);
        Some(idx.min(count - 1))
    }

    /// User-facing page number containing `t`.
    pub fn page_number_containing(&self, t: SimInstant) -> Option<PageNumber> {
        self.page_containing(t).map(PageNumber::from_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn page_count_rounds_up() {
        let p = AudioPages::new(secs(100), secs(20));
        assert_eq!(p.page_count(), 5);
        let p = AudioPages::new(secs(101), secs(20));
        assert_eq!(p.page_count(), 6);
        let p = AudioPages::new(SimDuration::ZERO, secs(20));
        assert_eq!(p.page_count(), 0);
    }

    #[test]
    fn spans_are_constant_length_except_last() {
        let p = AudioPages::new(secs(70), secs(20));
        assert_eq!(p.page_count(), 4);
        for i in 0..3 {
            assert_eq!(p.span_of(i).unwrap().duration(), secs(20));
        }
        assert_eq!(p.span_of(3).unwrap().duration(), secs(10));
        assert_eq!(p.span_of(4), None);
    }

    #[test]
    fn spans_tile_the_timeline() {
        let p = AudioPages::new(secs(95), secs(20));
        let mut cursor = SimInstant::EPOCH;
        for i in 0..p.page_count() {
            let s = p.span_of(i).unwrap();
            assert_eq!(s.start, cursor);
            cursor = s.end;
        }
        assert_eq!(cursor, SimInstant::EPOCH + secs(95));
    }

    #[test]
    fn page_containing_is_consistent_with_spans() {
        let p = AudioPages::new(secs(95), secs(20));
        for us in (0..95_000_000u64).step_by(3_700_000) {
            let t = SimInstant::from_micros(us);
            let idx = p.page_containing(t).unwrap();
            assert!(p.span_of(idx).unwrap().contains(t));
        }
    }

    #[test]
    fn position_at_end_maps_to_last_page() {
        let p = AudioPages::new(secs(60), secs(20));
        assert_eq!(p.page_containing(SimInstant::EPOCH + secs(60)), Some(2));
        assert_eq!(p.page_containing(SimInstant::EPOCH + secs(999)), Some(2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_page_len_rejected() {
        let _ = AudioPages::new(secs(10), SimDuration::ZERO);
    }

    proptest! {
        #[test]
        fn every_instant_is_on_exactly_one_page(
            total_s in 1u64..500,
            page_s in 1u64..60,
            at_us in 0u64..500_000_000,
        ) {
            let p = AudioPages::new(secs(total_s), secs(page_s));
            let t = SimInstant::from_micros(at_us.min(total_s * 1_000_000 - 1));
            let idx = p.page_containing(t).unwrap();
            let covering: Vec<usize> = (0..p.page_count())
                .filter(|&i| p.span_of(i).unwrap().contains(t))
                .collect();
            prop_assert_eq!(covering, vec![idx]);
        }
    }
}

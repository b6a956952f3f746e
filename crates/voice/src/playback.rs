//! The voice playback state machine.
//!
//! Implements the §2 voice browsing vocabulary: "interrupt the voice
//! output, resume the voice output from the current position, resume the
//! voice output from the beginning of the current voice page, as well as to
//! browse between pages in a similar fashion with text browsing (e.g. next
//! page, previous page, etc.)" — plus the short/long pause rewind. Page
//! browsing itself is not written here: the presentation manager's one
//! page arithmetic, shared with text, moves the position with
//! [`PlaybackEngine::seek`] and [`PlaybackEngine::play`].
//!
//! Playback is driven by the simulated clock: callers `tick` the engine
//! with elapsed simulated time and it advances through the voice part,
//! crossing audio page boundaries without interruption (visual pages turn
//! on command; voice pages do not).

use crate::pages::AudioPages;
use crate::pause::{rewind_position, DetectedPause, PauseKind};
use minos_types::{SimDuration, SimInstant};
use std::ops::Range;

/// Playback state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlaybackState {
    /// Audio is playing; `tick` advances the position.
    Playing,
    /// The user interrupted the output; position is retained.
    Interrupted,
    /// The end of the voice part was reached.
    Finished,
}

/// The playback engine for one voice part.
#[derive(Clone, Debug)]
pub struct PlaybackEngine {
    pages: AudioPages,
    pauses: Vec<DetectedPause>,
    position: SimInstant,
    state: PlaybackState,
}

impl PlaybackEngine {
    /// Creates an engine at the start of the part, interrupted (playback
    /// starts on the first `play`).
    pub fn new(pages: AudioPages, pauses: Vec<DetectedPause>) -> Self {
        PlaybackEngine {
            pages,
            pauses,
            position: SimInstant::EPOCH,
            state: PlaybackState::Interrupted,
        }
    }

    /// Current position within the voice part.
    pub fn position(&self) -> SimInstant {
        self.position
    }

    /// Current state.
    pub fn state(&self) -> PlaybackState {
        self.state
    }

    /// The page structure.
    pub fn pages(&self) -> AudioPages {
        self.pages
    }

    /// The detected pauses available for rewind.
    pub fn pauses(&self) -> &[DetectedPause] {
        &self.pauses
    }

    /// 0-based index of the current audio page.
    pub fn current_page(&self) -> Option<usize> {
        self.pages.page_containing(self.position)
    }

    fn end(&self) -> SimInstant {
        SimInstant::EPOCH + self.pages.total()
    }

    /// While playing, the next position at which a tick would report
    /// something of the playback itself: the next page start, or the end
    /// of the part. `None` unless playing, since nothing else moves.
    pub fn next_boundary(&self) -> Option<SimInstant> {
        if self.state != PlaybackState::Playing {
            return None;
        }
        let next_page = self.current_page().and_then(|p| self.pages.span_of(p + 1));
        Some(next_page.map_or(self.end(), |span| span.start))
    }

    /// Starts or resumes playback from the current position.
    pub fn play(&mut self) {
        if self.position >= self.end() {
            self.state = PlaybackState::Finished;
        } else {
            self.state = PlaybackState::Playing;
        }
    }

    /// Interrupts the voice output, keeping the position.
    pub fn interrupt(&mut self) {
        if self.state == PlaybackState::Playing {
            self.state = PlaybackState::Interrupted;
        }
    }

    /// Resumes from the beginning of the current voice page.
    pub fn resume_page_start(&mut self) {
        if let Some(idx) = self.current_page() {
            if let Some(span) = self.pages.span_of(idx) {
                self.position = span.start;
            }
        }
        self.play();
    }

    /// Replays "starting from a number of short or long pauses back from
    /// the current position" (§2).
    pub fn rewind_pauses(&mut self, kind: PauseKind, n: usize) {
        self.position = rewind_position(&self.pauses, kind, n, self.position);
        self.play();
    }

    /// Seeks to an absolute position (used when branching into a voice
    /// segment from a relevance or logical unit).
    pub fn seek(&mut self, to: SimInstant) {
        self.position = to.min(self.end());
        if self.position >= self.end() {
            self.state = PlaybackState::Finished;
        }
    }

    /// Advances playback by `dt` of simulated time. Returns the pages
    /// entered, in order (speech is *not* interrupted at page
    /// boundaries). No-op unless playing.
    pub fn tick(&mut self, dt: SimDuration) -> Range<usize> {
        if self.state != PlaybackState::Playing {
            return 0..0;
        }
        let start_page = self.current_page().unwrap_or(0);
        let target = (self.position + dt).min(self.end());
        self.position = target;
        if self.position >= self.end() {
            self.state = PlaybackState::Finished;
        }
        let end_page = self.current_page().unwrap_or(start_page);
        start_page + 1..end_page + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_types::TimeSpan;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn t(s: u64) -> SimInstant {
        SimInstant::EPOCH + secs(s)
    }

    fn engine() -> PlaybackEngine {
        // 100s part, 20s pages, pauses at 15s (short) and 55s (long).
        let pages = AudioPages::new(secs(100), secs(20));
        let pauses = vec![
            DetectedPause { span: TimeSpan::new(t(15), t(16)), kind: PauseKind::Short },
            DetectedPause { span: TimeSpan::new(t(55), t(57)), kind: PauseKind::Long },
        ];
        PlaybackEngine::new(pages, pauses)
    }

    #[test]
    fn starts_interrupted_at_beginning() {
        let e = engine();
        assert_eq!(e.state(), PlaybackState::Interrupted);
        assert_eq!(e.position(), SimInstant::EPOCH);
        assert_eq!(e.current_page(), Some(0));
    }

    #[test]
    fn tick_advances_only_while_playing() {
        let mut e = engine();
        assert!(e.tick(secs(5)).is_empty());
        assert_eq!(e.position(), SimInstant::EPOCH);
        e.play();
        e.tick(secs(5));
        assert_eq!(e.position(), t(5));
    }

    #[test]
    fn speech_crosses_page_boundaries_uninterrupted() {
        let mut e = engine();
        e.play();
        let entered = e.tick(secs(45));
        assert_eq!(e.state(), PlaybackState::Playing);
        assert_eq!(e.current_page(), Some(2));
        assert_eq!(entered, 1..3);
    }

    #[test]
    fn playback_finishes_at_end() {
        let mut e = engine();
        e.play();
        e.tick(secs(200));
        assert_eq!(e.state(), PlaybackState::Finished);
        assert_eq!(e.position(), t(100));
        // Play at end stays finished.
        e.play();
        assert_eq!(e.state(), PlaybackState::Finished);
    }

    #[test]
    fn interrupt_and_resume_keep_position() {
        let mut e = engine();
        e.play();
        e.tick(secs(33));
        e.interrupt();
        assert_eq!(e.state(), PlaybackState::Interrupted);
        e.tick(secs(10)); // no effect
        assert_eq!(e.position(), t(33));
        e.play();
        e.tick(secs(1));
        assert_eq!(e.position(), t(34));
    }

    #[test]
    fn resume_page_start_rewinds_to_page_boundary() {
        let mut e = engine();
        e.play();
        e.tick(secs(33));
        e.resume_page_start();
        assert_eq!(e.position(), t(20));
        assert_eq!(e.state(), PlaybackState::Playing);
    }

    #[test]
    fn rewind_short_and_long_pauses() {
        let mut e = engine();
        e.play();
        e.tick(secs(70));
        e.rewind_pauses(PauseKind::Long, 1);
        assert_eq!(e.position(), t(57));
        e.tick(secs(13)); // back to 70
        e.rewind_pauses(PauseKind::Short, 1);
        assert_eq!(e.position(), t(16));
        // More short pauses back than exist: beginning.
        e.rewind_pauses(PauseKind::Short, 3);
        assert_eq!(e.position(), SimInstant::EPOCH);
    }

    #[test]
    fn next_boundary_is_the_next_page_start_then_the_end() {
        let mut e = engine();
        assert_eq!(e.next_boundary(), None, "an interrupted part does not move");
        e.play();
        assert_eq!(e.next_boundary(), Some(t(20)));
        e.tick(secs(20));
        assert_eq!(e.next_boundary(), Some(t(40)), "a page start is already reached");
        e.seek(t(95));
        assert_eq!(e.next_boundary(), Some(t(100)), "the last page ends at the end");
        e.tick(secs(5));
        assert_eq!(e.next_boundary(), None, "a finished part does not move");
    }

    #[test]
    fn seek_past_end_finishes() {
        let mut e = engine();
        e.seek(t(500));
        assert_eq!(e.position(), t(100));
        assert_eq!(e.state(), PlaybackState::Finished);
    }

    #[test]
    fn empty_part_is_inert() {
        let mut e = PlaybackEngine::new(AudioPages::new(SimDuration::ZERO, secs(20)), vec![]);
        assert_eq!(e.current_page(), None);
        e.play();
        assert!(e.tick(secs(1)).is_empty());
    }
}

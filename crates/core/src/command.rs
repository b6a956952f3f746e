//! The symmetric browsing vocabulary, and the one implementation of it.
//!
//! The same [`BrowseCommand`]s drive visual-mode and audio-mode objects:
//! page navigation acts on visual pages or audio pages according to the
//! object's driving mode ("Next page in those objects implies the next
//! audio page", §2); logical and pattern browsing act on the text tree's or
//! the voice marks' [`UnitIndex`], or on the recognized utterances.
//!
//! [`Browse`] is that symmetry as one type. Both engines implement it over
//! their own coordinate (a character offset, an instant) and supply only
//! where they stand, how they jump, what they report when nothing moves,
//! where their pages start and where a pattern occurs next; unit steps,
//! pattern search and page arithmetic are its provided methods, written
//! once. [`browse`] dispatches the shared commands once for either engine.
//! Voice adds realizations that have no visual counterpart
//! (interrupt/resume, pause rewind); [`browse`] hands those back, and
//! visual objects reject them — the menu never offers them there.

use minos_text::{LogicalLevel, UnitIndex};
use minos_types::{ObjectId, PageNumber, SimInstant};
use minos_voice::PauseKind;

/// A browsing command, as selected from the menu.
#[derive(Clone, PartialEq, Debug)]
pub enum BrowseCommand {
    /// Turn to the next page (visual or audio per driving mode).
    NextPage,
    /// Turn to the previous page.
    PreviousPage,
    /// Advance a number of pages forth (positive) or back (negative).
    AdvancePages(i64),
    /// Jump to a page by number.
    GotoPage(PageNumber),
    /// Move to the page with the next start of a logical unit.
    NextUnit(LogicalLevel),
    /// Move to the page with the previous start of a logical unit.
    PreviousUnit(LogicalLevel),
    /// Move to the next occurrence of a pattern (typed text, or a spoken
    /// pattern matched against recognized utterances).
    FindPattern(String),
    /// Interrupt the voice output (audio mode only).
    Interrupt,
    /// Resume the voice output from the current position (audio mode
    /// only).
    Resume,
    /// Resume from the beginning of the current voice page (audio mode
    /// only).
    ResumePageStart,
    /// Replay from `n` short/long pauses back (audio mode only).
    RewindPauses(PauseKind, usize),
    /// Select the `n`-th currently visible relevant object indicator.
    SelectRelevant(usize),
    /// Return from the current relevant object to its parent.
    ReturnFromRelevant,
}

/// What happened as a result of a command (or of simulated time passing).
#[derive(Clone, PartialEq, Debug)]
pub enum BrowseEvent {
    /// A (0-based) page is now presented.
    PageShown(usize),
    /// A voice logical message started playing (message index in the
    /// object's message table).
    VoiceMessagePlayed(usize),
    /// A visual logical message is now pinned to the top of the display.
    VisualMessagePinned(usize),
    /// The pinned visual logical message was removed.
    VisualMessageUnpinned,
    /// A pattern search landed on this position.
    PatternFound {
        /// The page now shown.
        page: usize,
    },
    /// A pattern search found nothing ahead of the current position.
    PatternNotFound,
    /// Browsing entered a relevant object.
    EnteredRelevant(ObjectId),
    /// Browsing returned to the parent object.
    ReturnedToParent(ObjectId),
    /// Voice playback reached the end of the voice part; reported once,
    /// by the tick that reaches it.
    PlaybackFinished,
    /// Voice playback crossed into an audio page (uninterrupted).
    CrossedIntoPage(usize),
    /// Voice playback position (reported after seeks, for tests and UIs).
    VoicePosition(SimInstant),
}

/// A one-dimensional carrier browsed by the §2 primitives. The required
/// methods are all an engine supplies; the provided ones are the shared
/// browsing logic.
pub trait Browse {
    /// The carrier's coordinate: a character offset or an instant.
    type Coord: Copy + Ord;

    /// The current position.
    fn position(&self) -> Self::Coord;

    /// Moves to `to` and reports what the presentation now shows.
    fn jump(&mut self, to: Self::Coord) -> Vec<BrowseEvent>;

    /// What a command that does not move reports.
    fn stay(&self) -> Vec<BrowseEvent>;

    /// The logical units identified on the carrier.
    fn units(&self) -> &UnitIndex<Self::Coord>;

    /// The next occurrence of `pattern` ahead of the position.
    fn find(&self, pattern: &str) -> Option<Self::Coord>;

    /// Number of pages in the carrier's page coordinate system.
    fn page_count(&self) -> usize;

    /// The 0-based page of that system holding the position.
    fn page(&self) -> usize;

    /// Where 0-based page `index` starts, if it has a start.
    fn page_start(&self, index: usize) -> Option<Self::Coord>;

    /// The page the presentation shows, as a found pattern reports it.
    fn shown_page(&self) -> usize {
        self.page()
    }

    /// What a page command reports on a carrier with no pages.
    fn unpaged(&self) -> Vec<BrowseEvent> {
        Vec::new()
    }

    /// Turns to the next page.
    fn next_page(&mut self) -> Vec<BrowseEvent> {
        self.advance_pages(1)
    }

    /// Turns to the previous page.
    fn previous_page(&mut self) -> Vec<BrowseEvent> {
        self.advance_pages(-1)
    }

    /// Advances `delta` pages forth or back, clamped to the carrier.
    fn advance_pages(&mut self, delta: i64) -> Vec<BrowseEvent> {
        match self.page_count() {
            0 => self.unpaged(),
            count => {
                let target = (self.page() as i64 + delta).clamp(0, count as i64 - 1);
                self.jump_or_stay(self.page_start(target as usize))
            }
        }
    }

    /// Jumps to a page by number, clamped to the last page.
    fn goto_page(&mut self, page: PageNumber) -> Vec<BrowseEvent> {
        match self.page_count() {
            0 => self.unpaged(),
            count => self.jump_or_stay(self.page_start(page.index().min(count - 1))),
        }
    }

    /// "See the page with the next start of a logical unit" (§2).
    fn next_unit(&mut self, level: LogicalLevel) -> Vec<BrowseEvent> {
        self.jump_or_stay(self.units().next_start_after(level, self.position()))
    }

    /// The previous start of a logical unit.
    fn previous_unit(&mut self, level: LogicalLevel) -> Vec<BrowseEvent> {
        self.jump_or_stay(self.units().prev_start_before(level, self.position()))
    }

    /// Jumps to `to`, or stays when there is nowhere to go.
    fn jump_or_stay(&mut self, to: Option<Self::Coord>) -> Vec<BrowseEvent> {
        match to {
            Some(to) => self.jump(to),
            None => self.stay(),
        }
    }

    /// "The system returns the next page with the occurrence of this
    /// pattern" (§2).
    fn find_pattern(&mut self, pattern: &str) -> Vec<BrowseEvent> {
        match self.find(pattern) {
            Some(at) => {
                let mut events = self.jump(at);
                events.push(BrowseEvent::PatternFound { page: self.shown_page() });
                events
            }
            None => vec![BrowseEvent::PatternNotFound],
        }
    }
}

/// Applies a command both modes share to `engine`; hands any other command
/// back for the mode's own path.
pub fn browse<E: Browse>(
    engine: &mut E,
    command: BrowseCommand,
) -> Result<Vec<BrowseEvent>, BrowseCommand> {
    Ok(match command {
        BrowseCommand::NextPage => engine.next_page(),
        BrowseCommand::PreviousPage => engine.previous_page(),
        BrowseCommand::AdvancePages(delta) => engine.advance_pages(delta),
        BrowseCommand::GotoPage(page) => engine.goto_page(page),
        BrowseCommand::NextUnit(level) => engine.next_unit(level),
        BrowseCommand::PreviousUnit(level) => engine.previous_unit(level),
        BrowseCommand::FindPattern(pattern) => engine.find_pattern(&pattern),
        other => return Err(other),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_are_comparable_and_cloneable() {
        let a = BrowseCommand::FindPattern("shadow".into());
        assert_eq!(a.clone(), a);
        assert_ne!(a, BrowseCommand::NextPage);
        assert_ne!(
            BrowseCommand::RewindPauses(PauseKind::Short, 1),
            BrowseCommand::RewindPauses(PauseKind::Long, 1)
        );
    }

    #[test]
    fn events_are_comparable() {
        assert_eq!(BrowseEvent::PageShown(3), BrowseEvent::PageShown(3));
        assert_ne!(BrowseEvent::PageShown(3), BrowseEvent::PageShown(4));
    }
}

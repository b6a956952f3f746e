//! The logical structure tree and the unit index both media browse by.
//!
//! "A text segment of a multimedia object in MINOS may be logically
//! subdivided into title, abstract, chapters, and references. Each chapter
//! is subdivided into sections, sections into paragraphs, paragraphs into
//! sentences and sentences into words." (§2)
//!
//! "Browsing capabilities in text or in voice allow the user to see or hear
//! the page with the next or previous start of a logical unit (such as
//! chapter, section, etc.)." That navigation is written once, in
//! [`UnitIndex`]: the sorted unit starts of each [`LogicalLevel`] over any
//! ordered coordinate, searched by binary search. The text tree indexes
//! character offsets ([`LogicalTree::units`], a `UnitIndex<u32>`); the
//! voice substrate's manual marks index instants (`minos_voice::VoiceMarks`,
//! a `UnitIndex<SimInstant>`). One type for both carriers is the paper's
//! symmetry argument made literal.

use minos_types::CharSpan;
use std::fmt;

/// A chapter of a text segment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Chapter {
    /// Heading text.
    pub title: String,
    /// Characters covered (heading through last contained paragraph).
    pub span: CharSpan,
    /// Sections nested within the chapter.
    pub sections: Vec<Section>,
}

/// A section of a chapter.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Section {
    /// Heading text.
    pub title: String,
    /// Characters covered.
    pub span: CharSpan,
}

/// The logical levels a one-dimensional medium may be subdivided into.
///
/// Which levels are *available* depends on the object: "The logical browsing
/// options that are available to the user in MINOS depend on the object
/// (e.g. what logical units have been identified for the object)." (§2)
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum LogicalLevel {
    /// Chapters.
    Chapter,
    /// Sections.
    Section,
    /// Paragraphs.
    Paragraph,
    /// Sentences.
    Sentence,
    /// Words.
    Word,
}

impl LogicalLevel {
    /// All levels, coarsest first.
    pub const ALL: [LogicalLevel; 5] = [
        LogicalLevel::Chapter,
        LogicalLevel::Section,
        LogicalLevel::Paragraph,
        LogicalLevel::Sentence,
        LogicalLevel::Word,
    ];
}

impl fmt::Display for LogicalLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LogicalLevel::Chapter => "chapter",
            LogicalLevel::Section => "section",
            LogicalLevel::Paragraph => "paragraph",
            LogicalLevel::Sentence => "sentence",
            LogicalLevel::Word => "word",
        };
        f.write_str(name)
    }
}

/// The identified logical units of one carrier: per level, the sorted
/// distinct starts of its units in the carrier's coordinate `C`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitIndex<C> {
    starts: [Vec<C>; 5],
}

impl<C> Default for UnitIndex<C> {
    fn default() -> Self {
        UnitIndex { starts: Default::default() }
    }
}

impl<C: Copy + Ord> UnitIndex<C> {
    /// Records the unit starts of `level`, sorted and deduplicated. An
    /// empty list leaves the level unidentified.
    pub fn with_level(mut self, level: LogicalLevel, mut starts: Vec<C>) -> Self {
        starts.sort_unstable();
        starts.dedup();
        self.starts[level as usize] = starts;
        self
    }

    /// The unit starts at `level`, sorted.
    pub fn starts(&self, level: LogicalLevel) -> &[C] {
        &self.starts[level as usize]
    }

    /// Levels with at least one unit, coarsest first. Drives the menu:
    /// only identified levels yield browsing options.
    pub fn available_levels(&self) -> Vec<LogicalLevel> {
        LogicalLevel::ALL.into_iter().filter(|l| !self.starts(*l).is_empty()).collect()
    }

    /// The first unit start at `level` strictly after `at` ("next
    /// chapter").
    pub fn next_start_after(&self, level: LogicalLevel, at: C) -> Option<C> {
        let starts = self.starts(level);
        starts.get(starts.partition_point(|&s| s <= at)).copied()
    }

    /// The last unit start at `level` strictly before `at` ("previous
    /// section").
    pub fn prev_start_before(&self, level: LogicalLevel, at: C) -> Option<C> {
        let starts = self.starts(level);
        starts.partition_point(|&s| s < at).checked_sub(1).map(|i| starts[i])
    }

    /// Number of distinct unit starts at `level`.
    pub fn count(&self, level: LogicalLevel) -> usize {
        self.starts(level).len()
    }
}

/// The logical structure of a text segment.
#[derive(Clone, Debug, Default)]
pub struct LogicalTree {
    /// Title span, if a title was given.
    pub title: Option<CharSpan>,
    /// Abstract span, if an abstract was given.
    pub abstract_span: Option<CharSpan>,
    /// References span, if a references unit was given.
    pub references: Option<CharSpan>,
    /// Chapters in order, with nested sections.
    pub chapters: Vec<Chapter>,
    /// All paragraph spans, document order.
    pub paragraphs: Vec<CharSpan>,
    /// All sentence spans, document order.
    pub sentences: Vec<CharSpan>,
    /// All word spans, document order.
    pub words: Vec<CharSpan>,
    units: UnitIndex<u32>,
}

impl LogicalTree {
    /// Assembles a tree, indexing every unit's start for navigation.
    pub fn new(
        title: Option<CharSpan>,
        abstract_span: Option<CharSpan>,
        references: Option<CharSpan>,
        chapters: Vec<Chapter>,
        paragraphs: Vec<CharSpan>,
        sentences: Vec<CharSpan>,
        words: Vec<CharSpan>,
    ) -> Self {
        let starts = |spans: &[CharSpan]| spans.iter().map(|s| s.start).collect();
        let units = UnitIndex::default()
            .with_level(LogicalLevel::Chapter, chapters.iter().map(|c| c.span.start).collect())
            .with_level(
                LogicalLevel::Section,
                chapters.iter().flat_map(|c| &c.sections).map(|s| s.span.start).collect(),
            )
            .with_level(LogicalLevel::Paragraph, starts(&paragraphs))
            .with_level(LogicalLevel::Sentence, starts(&sentences))
            .with_level(LogicalLevel::Word, starts(&words));
        LogicalTree {
            title,
            abstract_span,
            references,
            chapters,
            paragraphs,
            sentences,
            words,
            units,
        }
    }

    /// The unit starts, in character offsets, that logical browsing steps
    /// between.
    pub fn units(&self) -> &UnitIndex<u32> {
        &self.units
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::DocumentBuilder;

    fn tree() -> (LogicalTree, String) {
        let mut b = DocumentBuilder::new();
        b.begin_chapter("One");
        b.text("First para of one. Second sentence.");
        b.end_paragraph();
        b.begin_section("One A");
        b.text("Section content here.");
        b.end_paragraph();
        b.begin_chapter("Two");
        b.text("Para of two.");
        b.end_paragraph();
        let doc = b.finish();
        let text = doc.text();
        (doc.tree().clone(), text)
    }

    #[test]
    fn available_levels_reflect_content() {
        let (t, _) = tree();
        let levels = t.units().available_levels();
        assert_eq!(
            levels,
            vec![
                LogicalLevel::Chapter,
                LogicalLevel::Section,
                LogicalLevel::Paragraph,
                LogicalLevel::Sentence,
                LogicalLevel::Word
            ]
        );
        let empty = LogicalTree::default();
        assert!(empty.units().available_levels().is_empty());
    }

    #[test]
    fn sentence_navigation_is_fine_grained() {
        let (t, text) = tree();
        let pos = text.find("First para").unwrap() as u32;
        let next = t.units().next_start_after(LogicalLevel::Sentence, pos).unwrap();
        let sentence = t.sentences.iter().find(|s| s.start == next).unwrap();
        let got: String = text
            .chars()
            .skip(sentence.start as usize)
            .take((sentence.end - sentence.start) as usize)
            .collect();
        assert_eq!(got, "Second sentence.");
    }

    #[test]
    fn word_navigation_steps_by_one_word() {
        let (t, _) = tree();
        let units = t.units();
        let next = units.next_start_after(LogicalLevel::Word, t.words[0].start).unwrap();
        assert_eq!(next, t.words[1].start);
        assert_eq!(units.prev_start_before(LogicalLevel::Word, next), Some(t.words[0].start));
    }

    #[test]
    fn counts() {
        let (t, _) = tree();
        assert_eq!(t.units().count(LogicalLevel::Chapter), 2);
        assert_eq!(t.units().count(LogicalLevel::Section), 1);
        assert_eq!(t.units().count(LogicalLevel::Paragraph), 3);
    }
}

/// The unit index's navigation, run once at each coordinate the two
/// carriers use: character offsets and instants.
#[cfg(test)]
mod index_tests {
    use super::*;
    use minos_types::SimInstant;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::fmt::Debug;

    fn chars(v: u64) -> u32 {
        v as u32
    }

    fn instants(v: u64) -> SimInstant {
        SimInstant::from_micros(v * 1_000)
    }

    fn index<C: Copy + Ord>(c: fn(u64) -> C, starts: &[u64]) -> UnitIndex<C> {
        UnitIndex::default()
            .with_level(LogicalLevel::Paragraph, starts.iter().map(|&v| c(v)).collect())
    }

    fn steps_strictly<C: Copy + Ord + Debug>(c: fn(u64) -> C) {
        let m = index(c, &[0, 1_000, 2_000]);
        let level = LogicalLevel::Paragraph;
        assert_eq!(m.next_start_after(level, c(0)), Some(c(1_000)));
        assert_eq!(m.next_start_after(level, c(1_500)), Some(c(2_000)));
        assert_eq!(m.next_start_after(level, c(2_000)), None);
        assert_eq!(m.prev_start_before(level, c(1_500)), Some(c(1_000)));
        assert_eq!(m.prev_start_before(level, c(1_000)), Some(c(0)));
        assert_eq!(m.prev_start_before(level, c(0)), None);
        assert_eq!(m.next_start_after(LogicalLevel::Chapter, c(0)), None);
    }

    fn inverse_on_starts<C: Copy + Ord + Debug>(c: fn(u64) -> C) {
        let m = index(c, &[3, 8, 20, 21, 40]);
        let starts = m.starts(LogicalLevel::Paragraph);
        for pair in starts.windows(2) {
            assert_eq!(m.prev_start_before(LogicalLevel::Paragraph, pair[1]), Some(pair[0]));
            assert_eq!(m.next_start_after(LogicalLevel::Paragraph, pair[0]), Some(pair[1]));
        }
    }

    fn sorts_and_dedups<C: Copy + Ord + Debug>(c: fn(u64) -> C) {
        let m = index(c, &[500, 100, 500, 300]);
        assert_eq!(m.starts(LogicalLevel::Paragraph), &[c(100), c(300), c(500)]);
        assert_eq!(m.count(LogicalLevel::Paragraph), 3);
    }

    fn empty_level_is_absent<C: Copy + Ord + Debug>(c: fn(u64) -> C) {
        let m = index(c, &[]).with_level(LogicalLevel::Word, vec![c(4)]);
        assert_eq!(m.available_levels(), vec![LogicalLevel::Word]);
        assert!(UnitIndex::<C>::default().available_levels().is_empty());
    }

    #[test]
    fn navigation_steps_strictly_past_the_position() {
        steps_strictly(chars);
        steps_strictly(instants);
    }

    #[test]
    fn next_prev_are_inverse_on_starts() {
        inverse_on_starts(chars);
        inverse_on_starts(instants);
    }

    #[test]
    fn with_level_sorts_and_dedups() {
        sorts_and_dedups(chars);
        sorts_and_dedups(instants);
    }

    #[test]
    fn empty_levels_are_not_available() {
        empty_level_is_absent(chars);
        empty_level_is_absent(instants);
    }

    /// Checks the index against a linear scan over the same starts.
    fn agrees_with_a_scan<C: Copy + Ord + Debug>(c: fn(u64) -> C, levels: &[Vec<u64>], at: u64) {
        let mut m = UnitIndex::default();
        for (level, starts) in LogicalLevel::ALL.into_iter().zip(levels) {
            m = m.with_level(level, starts.iter().map(|&v| c(v)).collect());
        }
        let at = c(at);
        for (level, starts) in LogicalLevel::ALL.into_iter().zip(levels) {
            let starts: Vec<C> = starts.iter().map(|&v| c(v)).collect();
            let next = starts.iter().copied().filter(|&s| s > at).min();
            let prev = starts.iter().copied().filter(|&s| s < at).max();
            assert_eq!(m.next_start_after(level, at), next, "next {level}");
            assert_eq!(m.prev_start_before(level, at), prev, "prev {level}");
        }
        let identified: Vec<LogicalLevel> = LogicalLevel::ALL
            .into_iter()
            .zip(levels)
            .filter(|(_, starts)| !starts.is_empty())
            .map(|(level, _)| level)
            .collect();
        assert_eq!(m.available_levels(), identified);
    }

    proptest! {
        #[test]
        fn navigation_matches_a_linear_scan(
            levels in vec(vec(0u64..64, 0..12), 5..6),
            at in 0u64..70,
        ) {
            agrees_with_a_scan(chars, &levels, at);
            agrees_with_a_scan(instants, &levels, at);
        }
    }
}

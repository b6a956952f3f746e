//! Manually identified logical units over voice.
//!
//! "The logical components of voice may be manually identified at the time
//! of the insertion by pressing the appropriate buttons (or at some later
//! point in time). … The degree of desired editing varies according to the
//! importance of information. For example, in a certain object, only
//! identification of chapters may be desirable." (§2)
//!
//! [`VoiceMarks`] is the text tree's own [`UnitIndex`] at the voice
//! coordinate: which levels were identified and the start instants of each
//! unit. Levels, next/previous start and counts are therefore one
//! implementation shared with text, which is the voice half of the paper's
//! symmetric design; this module only adds how marks arise from dictation.

use crate::transcript::Transcript;
use minos_text::{LogicalLevel, UnitIndex};
use minos_types::SimInstant;

/// Logical unit start marks for one voice part. The default (no marks) is
/// the unedited-dictation case: logical browsing is then unavailable and
/// only pause-based browsing works.
pub type VoiceMarks = UnitIndex<SimInstant>;

/// Derives marks from a ground-truth transcript for the given levels —
/// the "edited at insertion time" case where the speaker marked units
/// accurately. Which `levels` are passed models the paper's varying degree
/// of editing.
pub fn from_transcript(transcript: &Transcript, levels: &[LogicalLevel]) -> VoiceMarks {
    let mut marks = VoiceMarks::default();
    for &level in levels {
        let starts: Vec<SimInstant> = match level {
            LogicalLevel::Paragraph | LogicalLevel::Chapter | LogicalLevel::Section => {
                // Voice dictation has no explicit chapter/section
                // structure; the speaker's coarse marks are paragraph
                // starts promoted to the requested level.
                transcript.paragraph_starts.clone()
            }
            LogicalLevel::Sentence => transcript.sentence_starts.clone(),
            LogicalLevel::Word => transcript.words.iter().map(|w| w.span.start).collect(),
        };
        marks = marks.with_level(level, starts);
    }
    marks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, SpeakerProfile};

    #[test]
    fn no_marks_means_no_logical_browsing() {
        let m = VoiceMarks::default();
        assert!(m.available_levels().is_empty());
        assert_eq!(m.next_start_after(LogicalLevel::Chapter, SimInstant::EPOCH), None);
    }

    #[test]
    fn from_transcript_selected_levels_only() {
        let (_, tr) = synthesize(
            "one two three. four five.\nsecond paragraph here.",
            &SpeakerProfile::CLEAR,
            9,
        );
        let m = from_transcript(&tr, &[LogicalLevel::Paragraph]);
        assert_eq!(m.available_levels(), vec![LogicalLevel::Paragraph]);
        assert_eq!(m.count(LogicalLevel::Paragraph), 2);

        let m2 = from_transcript(
            &tr,
            &[LogicalLevel::Paragraph, LogicalLevel::Sentence, LogicalLevel::Word],
        );
        assert_eq!(m2.count(LogicalLevel::Sentence), 3);
        assert_eq!(m2.count(LogicalLevel::Word), tr.words.len());
        assert_eq!(
            m2.available_levels(),
            vec![LogicalLevel::Paragraph, LogicalLevel::Sentence, LogicalLevel::Word]
        );
    }

    #[test]
    fn marks_align_with_transcript_word_starts() {
        let (_, tr) = synthesize("alpha beta. gamma delta.", &SpeakerProfile::CLEAR, 2);
        let m = from_transcript(&tr, &[LogicalLevel::Sentence]);
        for &s in m.starts(LogicalLevel::Sentence) {
            assert!(tr.words.iter().any(|w| w.span.start == s));
        }
    }
}

//! The audio-mode browsing engine.
//!
//! The symmetric counterpart of [`crate::visual`]: canonical state is a
//! time position in the object's voice segment, driven by the simulated
//! clock. The engine implements the same [`Browse`] trait at the instant
//! coordinate, so the shared page arithmetic, unit steps and pattern search
//! run unchanged: pages are audio pages, units the manual voice marks
//! (the text tree's unit index over instants), patterns the recognized
//! utterances ("the same access methods as in text", §2). The
//! voice-specific commands —
//! interrupt, resume, resume-from-page-start, pause rewind — realize the
//! browsing-near-the-context the paper designs for unedited dictation.
//!
//! Visual logical messages anchored to voice spans are *active* while the
//! position is inside the span ("the visual logical message will stay on
//! display for the duration of the play of each voice segment to which it
//! is attached", §2); voice messages anchored to voice positions fire on
//! entry.

use crate::command::{Browse, BrowseEvent};
use minos_object::{Anchor, MessageBody, MultimediaObject};
use minos_types::{MinosError, Result, SimDuration, SimInstant, TimeSpan};
use minos_voice::recognize::UtteranceIndex;
use minos_voice::{AudioPages, PauseKind, PlaybackEngine, PlaybackState, VoiceMarks};
use std::collections::HashSet;

/// The audio-mode engine for one voice segment of an object.
#[derive(Clone, Debug)]
pub struct AudioEngine {
    playback: PlaybackEngine,
    marks: VoiceMarks,
    utterances: UtteranceIndex,
    /// (message index, anchor span) of visual messages on this segment.
    visual_anchors: Vec<(usize, TimeSpan)>,
    /// (message index, anchor span/point) of voice messages.
    voice_anchors: Vec<(usize, TimeSpan)>,
    inside_voice: HashSet<usize>,
    active_visual: Option<usize>,
}

impl AudioEngine {
    /// Builds the engine for `object`'s voice segment `segment`, with
    /// audio pages of `page_len`.
    pub fn new(object: &MultimediaObject, segment: usize, page_len: SimDuration) -> Result<Self> {
        let vs = object
            .voice_segments
            .get(segment)
            .ok_or_else(|| MinosError::UnknownComponent(format!("voice segment {segment}")))?;
        let pages = AudioPages::new(vs.duration(), page_len);
        let playback = PlaybackEngine::new(pages, vs.pauses.clone());

        let mut visual_anchors = Vec::new();
        let mut voice_anchors = Vec::new();
        for (i, message) in object.messages.iter().enumerate() {
            let span = match message.anchor {
                Anchor::VoiceSegment { segment: s, span } if s == segment => span,
                Anchor::VoicePoint { segment: s, at } if s == segment => {
                    // A point anchors the short stretch after it.
                    TimeSpan::starting_at(at, SimDuration::from_millis(1))
                }
                _ => continue,
            };
            match &message.body {
                MessageBody::Visual { .. } => visual_anchors.push((i, span)),
                MessageBody::Voice { .. } => voice_anchors.push((i, span)),
            }
        }
        Ok(AudioEngine {
            playback,
            marks: vs.marks.clone(),
            utterances: UtteranceIndex::new(vs.utterances.clone()),
            visual_anchors,
            voice_anchors,
            inside_voice: HashSet::new(),
            active_visual: None,
        })
    }

    /// Current position within the voice part.
    pub fn position(&self) -> SimInstant {
        self.playback.position()
    }

    /// Current playback state.
    pub fn state(&self) -> PlaybackState {
        self.playback.state()
    }

    /// The visual message currently on display, if any.
    pub fn active_visual_message(&self) -> Option<usize> {
        self.active_visual
    }

    /// The earliest position after the current one at which a tick ending
    /// there would report something: the next page start, a voice or
    /// visual anchor's entry or exit as the message refresh tests it (a
    /// point anchor changes only at its start), or the end of the part.
    /// Until then every tick end samples what the last one did. `None`
    /// unless playing: an interrupted or finished engine stays put.
    pub fn next_change(&self) -> Option<SimInstant> {
        let t = self.playback.position();
        let voice = self.voice_anchors.iter().map(|&(_, span)| (span, !is_point(span)));
        let visual = self.visual_anchors.iter().map(|&(_, span)| (span, true));
        let edges = voice
            .chain(visual)
            .flat_map(|(span, exits)| [Some(span.start), exits.then_some(span.end)])
            .flatten();
        let next = self.playback.next_boundary()?;
        Some(edges.filter(|&edge| edge > t).fold(next, SimInstant::min))
    }

    /// Recomputes message activations after a position change, emitting
    /// transition events.
    fn refresh_messages(&mut self, events: &mut Vec<BrowseEvent>) {
        let t = self.playback.position();
        // Voice messages fire when playback first enters their anchor
        // (point anchors: at or after the point, before re-arming on exit).
        for &(message, span) in &self.voice_anchors {
            let inside = span.contains(t) || (is_point(span) && t >= span.start);
            if inside && self.inside_voice.insert(message) {
                events.push(BrowseEvent::VoiceMessagePlayed(message));
            } else if !inside && !is_point(span) {
                self.inside_voice.remove(&message);
            }
        }
        // Visual messages stay on display while inside their span.
        let now = self.visual_anchors.iter().find(|(_, span)| span.contains(t)).map(|&(m, _)| m);
        if now != self.active_visual {
            if now.is_none() {
                events.push(BrowseEvent::VisualMessageUnpinned);
            }
            if let Some(m) = now {
                events.push(BrowseEvent::VisualMessagePinned(m));
            }
            self.active_visual = now;
        }
    }

    fn report_position(&mut self) -> Vec<BrowseEvent> {
        let mut events = Vec::new();
        self.refresh_messages(&mut events);
        events.push(BrowseEvent::VoicePosition(self.playback.position()));
        if let Some(p) = self.playback.current_page() {
            events.push(BrowseEvent::PageShown(p));
        }
        events
    }

    /// Starts playback from the beginning.
    pub fn open(&mut self) -> Vec<BrowseEvent> {
        self.playback.play();
        self.report_position()
    }

    /// Advances playback by `dt` of simulated time; reports page crossings
    /// (speech is not interrupted at page ends), message transitions, and
    /// the end of the part, once, on the tick that reaches it.
    pub fn tick(&mut self, dt: SimDuration) -> Vec<BrowseEvent> {
        let was_finished = self.playback.state() == PlaybackState::Finished;
        let mut events: Vec<BrowseEvent> =
            self.playback.tick(dt).map(BrowseEvent::CrossedIntoPage).collect();
        self.refresh_messages(&mut events);
        if !was_finished && self.playback.state() == PlaybackState::Finished {
            events.push(BrowseEvent::PlaybackFinished);
        }
        events
    }

    /// Interrupts the voice output.
    pub fn interrupt(&mut self) -> Vec<BrowseEvent> {
        self.playback.interrupt();
        vec![BrowseEvent::VoicePosition(self.playback.position())]
    }

    /// Resumes from the current position.
    pub fn resume(&mut self) -> Vec<BrowseEvent> {
        self.playback.play();
        self.report_position()
    }

    /// Resumes from the beginning of the current voice page.
    pub fn resume_page_start(&mut self) -> Vec<BrowseEvent> {
        self.playback.resume_page_start();
        self.report_position()
    }

    /// Replays from `n` `kind` pauses back.
    pub fn rewind_pauses(&mut self, kind: PauseKind, n: usize) -> Vec<BrowseEvent> {
        self.playback.rewind_pauses(kind, n);
        self.report_position()
    }

    /// Seeks to an absolute position (relevance targets).
    pub fn seek(&mut self, to: SimInstant) -> Vec<BrowseEvent> {
        self.playback.seek(to);
        self.report_position()
    }
}

/// Whether a voice anchor is a point: it fires once playback reaches its
/// start and never re-arms on exit.
fn is_point(span: TimeSpan) -> bool {
    span.duration() <= SimDuration::from_millis(1)
}

/// A jump plays from its target, as the voice page commands always have;
/// a command that finds nowhere to go reports the unchanged position.
impl Browse for AudioEngine {
    type Coord = SimInstant;

    fn position(&self) -> SimInstant {
        self.playback.position()
    }

    fn jump(&mut self, to: SimInstant) -> Vec<BrowseEvent> {
        self.playback.seek(to);
        self.playback.play();
        self.report_position()
    }

    fn stay(&self) -> Vec<BrowseEvent> {
        vec![BrowseEvent::VoicePosition(self.playback.position())]
    }

    fn units(&self) -> &VoiceMarks {
        &self.marks
    }

    fn find(&self, pattern: &str) -> Option<SimInstant> {
        self.utterances.next_occurrence(pattern, self.playback.position())
    }

    fn page_count(&self) -> usize {
        self.playback.pages().page_count()
    }

    fn page(&self) -> usize {
        self.playback.current_page().unwrap_or(0)
    }

    fn page_start(&self, index: usize) -> Option<SimInstant> {
        self.playback.pages().span_of(index).map(|span| span.start)
    }

    fn unpaged(&self) -> Vec<BrowseEvent> {
        self.stay()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_corpus::audio_xray_report;
    use minos_object::LogicalMessage;
    use minos_text::LogicalLevel;
    use minos_types::{ObjectId, PageNumber};

    fn engine() -> (minos_object::MultimediaObject, AudioEngine) {
        let obj = audio_xray_report(ObjectId::new(1), 7);
        let engine = AudioEngine::new(&obj, 0, SimDuration::from_secs(5)).unwrap();
        (obj, engine)
    }

    #[test]
    fn open_starts_playing_at_zero() {
        let (_, mut e) = engine();
        let events = e.open();
        assert_eq!(e.state(), PlaybackState::Playing);
        assert!(events.contains(&BrowseEvent::VoicePosition(SimInstant::EPOCH)));
        assert!(e.page_count() >= 2, "dictation should span several audio pages");
    }

    #[test]
    fn ticking_crosses_pages_and_finishes() {
        let (_, mut e) = engine();
        e.open();
        let events = e.tick(SimDuration::from_secs(6));
        assert!(events.iter().any(|ev| matches!(ev, BrowseEvent::CrossedIntoPage(1))));
        let events = e.tick(SimDuration::from_secs(500));
        assert!(events.contains(&BrowseEvent::PlaybackFinished));
    }

    #[test]
    fn the_end_is_reported_once_per_play_out() {
        // As a tour's `Finished`: the tick that reaches the end reports
        // it, the ticks after report nothing, and playing the last page
        // out again reports it once more.
        let (_, mut e) = engine();
        e.open();
        let ends = |events: Vec<BrowseEvent>| {
            events.iter().filter(|&event| *event == BrowseEvent::PlaybackFinished).count()
        };
        assert_eq!(ends(e.tick(SimDuration::from_secs(500))), 1);
        for _ in 0..3 {
            assert_eq!(e.tick(SimDuration::from_secs(1)), Vec::new(), "a tick after the end");
        }
        e.resume_page_start();
        assert_eq!(e.state(), PlaybackState::Playing);
        assert_eq!(e.page(), e.page_count() - 1);
        assert_eq!(ends(e.tick(SimDuration::from_secs(500))), 1);
        assert_eq!(e.tick(SimDuration::from_secs(1)), Vec::new());
    }

    #[test]
    fn xray_appears_during_finding_paragraph_only() {
        let (obj, mut e) = engine();
        e.open();
        let finding_start = obj.voice_segments[0].transcript.paragraph_starts[1];
        // Before the finding: no visual message.
        assert_eq!(e.active_visual_message(), None);
        let events = e.seek(finding_start + SimDuration::from_millis(10));
        assert!(
            events.contains(&BrowseEvent::VisualMessagePinned(0)),
            "x-ray not shown: {events:?}"
        );
        assert_eq!(e.active_visual_message(), Some(0));
        // After the finding paragraph: removed.
        let para3 = obj.voice_segments[0].transcript.paragraph_starts[2];
        let events = e.seek(para3 + SimDuration::from_millis(10));
        assert!(events.contains(&BrowseEvent::VisualMessageUnpinned));
        assert_eq!(e.active_visual_message(), None);
    }

    #[test]
    fn branching_into_the_finding_also_shows_it() {
        // "if the user during his browsing branches at some section of the
        // speech which relates to the x-ray, the x-ray will automatically
        // be displayed" (§3).
        let (obj, mut e) = engine();
        e.open();
        let finding = obj.voice_segments[0].transcript.paragraph_starts[1];
        e.goto_page(PageNumber::FIRST);
        let events = e.seek(finding + SimDuration::from_millis(5));
        assert!(events.contains(&BrowseEvent::VisualMessagePinned(0)));
    }

    #[test]
    fn interrupt_resume_and_page_restart() {
        let (_, mut e) = engine();
        e.open();
        e.tick(SimDuration::from_secs(7));
        e.interrupt();
        assert_eq!(e.state(), PlaybackState::Interrupted);
        let pos = e.position();
        e.resume();
        assert_eq!(e.state(), PlaybackState::Playing);
        assert_eq!(e.position(), pos);
        e.resume_page_start();
        assert_eq!(e.position(), SimInstant::EPOCH + SimDuration::from_secs(5));
    }

    #[test]
    fn pause_rewind_moves_backwards() {
        let (_, mut e) = engine();
        e.open();
        e.tick(SimDuration::from_secs(8));
        let before = e.position();
        e.rewind_pauses(PauseKind::Short, 2);
        assert!(e.position() < before);
    }

    #[test]
    fn logical_browsing_uses_marks() {
        let (obj, mut e) = engine();
        e.open();
        let events = e.next_unit(LogicalLevel::Paragraph);
        let para2 = obj.voice_segments[0].transcript.paragraph_starts[1];
        assert_eq!(e.position(), para2);
        assert!(events.iter().any(|ev| matches!(ev, BrowseEvent::VoicePosition(_))));
        e.previous_unit(LogicalLevel::Paragraph);
        assert_eq!(e.position(), obj.voice_segments[0].transcript.paragraph_starts[0]);
        // No chapter was marked: the step stays and reports the position.
        let events = e.next_unit(LogicalLevel::Chapter);
        assert_eq!(events, vec![BrowseEvent::VoicePosition(e.position())]);
        assert!(e.units().available_levels().contains(&LogicalLevel::Sentence));
    }

    #[test]
    fn pattern_browsing_seeks_recognized_utterances() {
        let (obj, mut e) = engine();
        e.open();
        let events = e.find_pattern("shadow");
        match events.iter().find(|ev| matches!(ev, BrowseEvent::PatternFound { .. })) {
            Some(_) => {
                // Landed on a recognized "shadow" utterance.
                let seg = &obj.voice_segments[0];
                assert!(seg.utterances.iter().any(|u| u.at == e.position()));
            }
            None => panic!("pattern not found: {events:?}"),
        }
        // Unknown pattern.
        assert_eq!(e.find_pattern("zebra"), vec![BrowseEvent::PatternNotFound]);
    }

    #[test]
    fn page_navigation_is_symmetric_with_text() {
        let (_, mut e) = engine();
        e.open();
        e.next_page();
        assert_eq!(e.page(), 1);
        e.advance_pages(2);
        assert_eq!(e.page(), 3);
        e.previous_page();
        assert_eq!(e.page(), 2);
        e.goto_page(PageNumber::FIRST);
        assert_eq!(e.page(), 0);
    }

    #[test]
    fn page_commands_clamp_and_restart_finished_playback() {
        let (_, mut e) = engine();
        e.open();
        let last = e.page_count() - 1;
        e.previous_page();
        assert_eq!(e.page(), 0);
        e.advance_pages(100);
        assert_eq!(e.page(), last);
        e.next_page();
        assert_eq!(e.page(), last);
        e.goto_page(PageNumber::new(3).unwrap());
        assert_eq!(e.page(), 2);
        assert_eq!(e.position(), SimInstant::EPOCH + SimDuration::from_secs(10));
        e.tick(SimDuration::from_secs(500));
        assert_eq!(e.state(), PlaybackState::Finished);
        e.goto_page(PageNumber::FIRST);
        assert_eq!(e.state(), PlaybackState::Playing);
        assert_eq!(e.position(), SimInstant::EPOCH);
    }

    #[test]
    fn next_change_is_the_first_position_a_tick_can_report() {
        // A voice span and a voice point beside the x-ray's visual span:
        // stepping from change to change, a tick stopping 1 µs short of
        // the next change reports nothing, and the changes are the page
        // starts, every anchor edge (a point's start only) and the end.
        let (mut obj, _) = engine();
        let at = |ms| SimInstant::EPOCH + SimDuration::from_millis(ms);
        let body = MessageBody::Voice { segment: 0, duration: SimDuration::from_secs(1) };
        for anchor in [
            Anchor::VoiceSegment { segment: 0, span: TimeSpan::new(at(2_500), at(7_250)) },
            Anchor::VoicePoint { segment: 0, at: at(16_000) },
        ] {
            obj.messages.push(LogicalMessage { anchor, body: body.clone() });
        }
        let mut e = AudioEngine::new(&obj, 0, SimDuration::from_secs(5)).unwrap();
        assert_eq!(e.next_change(), None, "not playing yet");
        e.open();
        let mut changes = Vec::new();
        while let Some(next) = e.next_change() {
            let mut probe = e.clone();
            let short = next.since(e.position()) - SimDuration::from_micros(1);
            assert_eq!(probe.tick(short), Vec::new(), "a change before {next}");
            let events = e.tick(next.since(e.position()));
            // Leaving a voice span reports nothing: it only re-arms the
            // message for the next entry.
            assert!(!events.is_empty() || next == at(7_250), "nothing changed at {next}");
            changes.push(next);
        }
        assert_eq!(e.state(), PlaybackState::Finished);
        let voice = &obj.voice_segments[0];
        let end = SimInstant::EPOCH + voice.duration();
        let finding = &voice.transcript.paragraph_starts[1..3];
        let mut expected: Vec<SimInstant> = (1..8).map(|p| at(5_000 * p)).collect();
        expected.extend([at(2_500), at(7_250), at(16_000), end]);
        expected.extend(finding);
        expected.sort_unstable();
        assert_eq!(changes, expected);
    }

    #[test]
    fn missing_segment_is_an_error() {
        let obj = audio_xray_report(ObjectId::new(2), 1);
        assert!(AudioEngine::new(&obj, 3, SimDuration::from_secs(5)).is_err());
    }
}

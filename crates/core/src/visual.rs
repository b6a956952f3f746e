//! The visual-mode browsing engine.
//!
//! Canonical state is a character position in the object's text segment.
//! The engine implements [`Browse`] over that position: the shared page,
//! logical and pattern commands move it through [`Browse::jump`], and the
//! engine then decides what the screen shows:
//!
//! * normally, the base presentation form's page containing the position;
//! * inside the anchor of a *visual logical message*, the related text is
//!   re-paginated under the pinned message ("the logical message is
//!   displayed at the upper part of the screen while the lower part of the
//!   screen is devoted to the display of parts of the related visual
//!   segment", §2) — paging walks the related text page by page and the
//!   first turn past its end drops the pinned message, exactly the Figure
//!   3–4 sequence;
//! * entering the anchor of a *voice logical message* plays it ("the voice
//!   logical message will be played when the user first branches into the
//!   corresponding segments during browsing", §2).

use crate::command::{Browse, BrowseEvent};
use minos_object::{Anchor, MessageBody, MultimediaObject};
use minos_text::{
    Document, PaginateConfig, PatternSearcher, PresentationForm, UnitIndex, VisualPage,
};
use minos_types::{CharSpan, MinosError, Result};
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::OnceLock;

/// A pinned-message region: the message, its anchor span, and the related
/// text's own pagination under the reserved top area.
#[derive(Debug)]
struct PinnedRegion {
    message: usize,
    span: CharSpan,
    reserved: u32,
    form: PresentationForm,
    show_once: bool,
}

/// What the display presents right now.
#[derive(Clone, Debug)]
pub struct VisualView {
    /// The visual page to render.
    pub page: VisualPage,
    /// 0-based index of the page within the active form.
    pub page_index: usize,
    /// Page count of the active form.
    pub page_count: usize,
    /// The message pinned at the top, if any (index into the object's
    /// message table).
    pub pinned_message: Option<usize>,
    /// Vertical pixels reserved for the pinned message.
    pub reserved_top: u32,
}

/// The pagination of one text segment of an object: the base form, the
/// pinned regions and the voice anchors. It is a pure function of the
/// object, the segment and the page configuration, so one layout serves
/// every engine on that object: a session entering an object again reuses
/// the layout it built on the first entry.
#[derive(Debug)]
pub(crate) struct VisualLayout {
    segment: usize,
    base_form: PresentationForm,
    regions: Vec<PinnedRegion>,
    voice_anchors: Vec<(usize, CharSpan)>,
}

impl VisualLayout {
    /// Paginates `object`'s text segment `segment` under `config`.
    pub(crate) fn new(
        object: &MultimediaObject,
        segment: usize,
        config: PaginateConfig,
    ) -> Result<Self> {
        // Segment 0 of a text-less object (a pure image object like the
        // subway map) browses as an empty document: page commands are
        // no-ops and only image facilities apply. Higher segment indices
        // must exist.
        if segment >= object.text_segments.len() && segment != 0 {
            return Err(MinosError::UnknownComponent(format!("text segment {segment}")));
        }
        let doc = segment_of(object, segment);
        let base_form = PresentationForm::paginate(doc, config);

        let mut regions = Vec::new();
        let mut voice_anchors = Vec::new();
        for (i, message) in object.messages.iter().enumerate() {
            let Anchor::TextSegment { segment: s, span } = message.anchor else { continue };
            if s != segment {
                continue;
            }
            match &message.body {
                MessageBody::Voice { .. } => voice_anchors.push((i, span)),
                MessageBody::Visual { content, show_once } => {
                    // Reserve space for the pinned content: the image's
                    // height (clamped to half a page) plus a caption strip.
                    let image_height = content
                        .image
                        .and_then(|idx| object.images.get(idx))
                        .map(|img| img.size().height)
                        .unwrap_or(0);
                    let reserved = (image_height + 24).min(config.page_size.height / 2).max(40);
                    let sub = Self::paginate_span(doc, span, config.with_reserved_top(reserved));
                    regions.push(PinnedRegion {
                        message: i,
                        span,
                        reserved,
                        form: sub,
                        show_once: *show_once,
                    });
                }
            }
        }
        Ok(VisualLayout { segment, base_form, regions, voice_anchors })
    }

    /// Paginates only the blocks of `doc` lying within `span` (the related
    /// visual segment of a pinned message).
    fn paginate_span(doc: &Document, span: CharSpan, config: PaginateConfig) -> PresentationForm {
        let blocks: Vec<minos_text::LaidBlock> = doc
            .blocks()
            .iter()
            .filter(|b| b.span().map(|s| span.contains_span(&s)).unwrap_or(false))
            .map(|b| minos_text::layout::layout_block(doc, b, config.content_width()))
            .collect();
        PresentationForm::from_blocks(&blocks, config)
    }
}

/// The visual-mode engine for one text segment of an object.
#[derive(Clone, Debug)]
pub struct VisualEngine {
    /// The browsed object, shared with the session that holds it: the
    /// engine reads its text segment in place.
    object: Rc<MultimediaObject>,
    /// The segment's pagination, shared with every engine on the object
    /// that the session builds.
    layout: Rc<VisualLayout>,
    pos: u32,
    inside_voice: HashSet<usize>,
    shown_once: HashSet<usize>,
    pinned_now: Option<usize>,
}

impl VisualEngine {
    /// Builds the engine for `object`'s text segment `segment`.
    pub fn new(
        object: Rc<MultimediaObject>,
        segment: usize,
        config: PaginateConfig,
    ) -> Result<Self> {
        let layout = VisualLayout::new(&object, segment, config)?;
        Ok(Self::with_layout(object, Rc::new(layout)))
    }

    /// Builds an engine on `object` over `layout`, which must have been
    /// paginated from this very object.
    pub(crate) fn with_layout(object: Rc<MultimediaObject>, layout: Rc<VisualLayout>) -> Self {
        let mut engine = VisualEngine {
            object,
            layout,
            pos: 0,
            inside_voice: HashSet::new(),
            shown_once: HashSet::new(),
            pinned_now: None,
        };
        // Establish initial message state without reporting entry events;
        // `open()` reports them.
        engine.pinned_now = engine.active_region_index().map(|r| engine.layout.regions[r].message);
        engine
    }

    /// The document being browsed.
    pub fn document(&self) -> &Document {
        segment_of(&self.object, self.layout.segment)
    }

    /// The index of the active pinned region, honouring show-once
    /// suppression.
    fn active_region_index(&self) -> Option<usize> {
        self.layout.regions.iter().position(|r| {
            (r.span.contains(self.pos) || (r.span.is_empty() && r.span.start == self.pos))
                && !(r.show_once && self.shown_once.contains(&r.message))
        })
    }

    /// The active pinned region, if any, and the form the screen pages
    /// through: the region's own pagination, or the base form.
    fn active_form(&self) -> (Option<&PinnedRegion>, &PresentationForm) {
        match self.active_region_index() {
            Some(ri) => (Some(&self.layout.regions[ri]), &self.layout.regions[ri].form),
            None => (None, &self.layout.base_form),
        }
    }

    /// What the screen shows now.
    pub fn view(&self) -> VisualView {
        let (region, form) = self.active_form();
        let idx = form.page_containing(self.pos).unwrap_or(0);
        VisualView {
            page: form.page(idx).cloned().unwrap_or_default(),
            page_index: idx,
            page_count: form.page_count(),
            pinned_message: region.map(|r| r.message),
            reserved_top: region.map_or(0, |r| r.reserved),
        }
    }

    /// Reports the initial presentation (messages anchored at the start
    /// fire here).
    pub fn open(&mut self) -> Vec<BrowseEvent> {
        self.pinned_now = None;
        self.jump(0)
    }

    /// Seeks directly to a character position (relevance targets).
    pub fn seek(&mut self, pos: u32) -> Vec<BrowseEvent> {
        self.jump(pos)
    }

    /// The show-once messages already displayed, in ascending order —
    /// checkpoint state: a resumed engine that forgot these would re-pin
    /// a "show once" message the user has already seen.
    pub fn shown_once(&self) -> Vec<usize> {
        let mut shown: Vec<usize> = self.shown_once.iter().copied().collect();
        shown.sort_unstable();
        shown
    }

    /// Marks `messages` as already shown (checkpoint restore). Call
    /// before [`VisualEngine::seek`]: the seek recomputes the active
    /// region honouring the restored suppression.
    pub fn restore_shown_once(&mut self, messages: &[usize]) {
        self.shown_once.extend(messages.iter().copied());
        self.pinned_now = self.active_region_index().map(|r| self.layout.regions[r].message);
    }
}

#[cfg(test)]
impl VisualEngine {
    /// The pagination this engine pages through.
    pub(crate) fn layout(&self) -> &Rc<VisualLayout> {
        &self.layout
    }
}

/// Text segment `segment` of `object`; segment 0 of a text-less object is
/// the empty document.
fn segment_of(object: &MultimediaObject, segment: usize) -> &Document {
    static EMPTY: OnceLock<Document> = OnceLock::new();
    object.text_segments.get(segment).unwrap_or_else(|| EMPTY.get_or_init(Document::default))
}

/// Page commands address the base form (user-facing page numbering), but
/// the shown page is the active form's, and next/previous page walk the
/// active form so that paging runs through a pinned region.
impl Browse for VisualEngine {
    type Coord = u32;

    fn position(&self) -> u32 {
        self.pos
    }

    /// Moves the canonical position, emitting entry/exit events for
    /// logical messages and the page-shown event.
    fn jump(&mut self, pos: u32) -> Vec<BrowseEvent> {
        let mut events = Vec::new();
        self.pos = pos.min(self.document().len());
        // Voice messages: fire on entry.
        for &(message, span) in &self.layout.voice_anchors {
            let inside = span.contains(self.pos) || (span.is_empty() && span.start == self.pos);
            if inside && self.inside_voice.insert(message) {
                events.push(BrowseEvent::VoiceMessagePlayed(message));
            } else if !inside {
                self.inside_voice.remove(&message);
            }
        }
        // Visual messages: pin/unpin transitions.
        let now = self.active_region_index().map(|r| self.layout.regions[r].message);
        if now != self.pinned_now {
            if now.is_none() {
                events.push(BrowseEvent::VisualMessageUnpinned);
            }
            if let Some(m) = now {
                self.shown_once.insert(m);
                events.push(BrowseEvent::VisualMessagePinned(m));
            }
            self.pinned_now = now;
        }
        events.push(BrowseEvent::PageShown(self.shown_page()));
        events
    }

    fn stay(&self) -> Vec<BrowseEvent> {
        vec![BrowseEvent::PageShown(self.shown_page())]
    }

    fn units(&self) -> &UnitIndex<u32> {
        self.document().tree().units()
    }

    fn find(&self, pattern: &str) -> Option<u32> {
        PatternSearcher::new(pattern).find_next(self.document().chars(), self.pos + 1)
    }

    fn page_count(&self) -> usize {
        self.layout.base_form.page_count()
    }

    fn page(&self) -> usize {
        self.layout.base_form.page_containing(self.pos).unwrap_or(0)
    }

    fn page_start(&self, index: usize) -> Option<u32> {
        self.layout.base_form.page(index).and_then(|p| p.span).map(|s| s.start)
    }

    /// The shown page's index within the active form: the
    /// [`VisualView::page_index`] of [`VisualEngine::view`], without
    /// cloning the page.
    fn shown_page(&self) -> usize {
        self.active_form().1.page_containing(self.pos).unwrap_or(0)
    }

    /// Turns to the next page of the active form; past the end of a pinned
    /// region this exits the region (Figure 4's final page turn).
    fn next_page(&mut self) -> Vec<BrowseEvent> {
        let (region, form) = self.active_form();
        let idx = form.page_containing(self.pos).unwrap_or(0);
        let next = form.page(idx + 1).and_then(|p| p.span).map(|s| s.start);
        let exit = region.map(|r| r.span.end.min(self.document().len()));
        self.jump_or_stay(next.or(exit))
    }

    /// Turns to the previous page of the active form; before a pinned
    /// region's first page this exits backwards.
    fn previous_page(&mut self) -> Vec<BrowseEvent> {
        let (region, form) = self.active_form();
        let idx = form.page_containing(self.pos).unwrap_or(0);
        let prev =
            idx.checked_sub(1).and_then(|i| form.page(i)).and_then(|p| p.span).map(|s| s.start);
        let exit = region.map(|r| r.span.start.saturating_sub(1));
        self.jump_or_stay(prev.or(exit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_corpus::medical_report;
    use minos_text::LogicalLevel;
    use minos_types::{ObjectId, PageNumber};

    /// Small pages, so the report and its pinned region span several.
    fn small_pages() -> PaginateConfig {
        PaginateConfig { page_size: minos_types::Size::new(420, 260), margin: 10, block_gap: 6 }
    }

    fn engine() -> (MultimediaObject, VisualEngine) {
        let obj = medical_report(ObjectId::new(1), 42);
        let engine = VisualEngine::new(Rc::new(obj.clone()), 0, small_pages()).unwrap();
        (obj, engine)
    }

    use minos_object::MultimediaObject;

    #[test]
    fn open_shows_first_page() {
        let (_, mut e) = engine();
        let events = e.open();
        assert!(events.contains(&BrowseEvent::PageShown(0)));
        assert_eq!(e.view().page_index, 0);
        assert!(e.page_count() > 1);
    }

    #[test]
    fn paging_walks_forward_and_back() {
        let (_, mut e) = engine();
        e.open();
        let start_pos = e.position();
        e.next_page();
        assert!(e.position() > start_pos);
        e.previous_page();
        // Back on page 0 (position is the page start, not necessarily 0).
        assert_eq!(e.view().page_index, 0);
    }

    #[test]
    fn next_page_terminates_at_the_end() {
        let (_, mut e) = engine();
        e.open();
        // Paging forward always terminates: the position is monotone and
        // eventually stops changing.
        let mut last_pos = e.position();
        for _ in 0..200 {
            e.next_page();
            let pos = e.position();
            assert!(pos >= last_pos, "position moved backwards");
            if pos == last_pos {
                break;
            }
            last_pos = pos;
        }
        let final_pos = e.position();
        let events = e.next_page();
        assert_eq!(e.position(), final_pos, "stuck position must stay put");
        assert!(events.iter().any(|ev| matches!(ev, BrowseEvent::PageShown(_))));
    }

    #[test]
    fn entering_findings_pins_the_xray() {
        let (obj, mut e) = engine();
        e.open();
        let findings_start = obj.text_segments[0].tree().chapters[0].span.start;
        let events = e.seek(findings_start);
        assert!(events.contains(&BrowseEvent::VisualMessagePinned(0)), "no pin event: {events:?}");
        let view = e.view();
        assert_eq!(view.pinned_message, Some(0));
        assert!(view.reserved_top > 0);
        assert!(view.page_count >= 2, "related text should span pages, got {}", view.page_count);
    }

    #[test]
    fn paging_past_related_text_unpins() {
        let (obj, mut e) = engine();
        e.open();
        let findings = obj.text_segments[0].tree().chapters[0].span;
        e.seek(findings.start);
        let sub_pages = e.view().page_count;
        let mut unpinned = false;
        for _ in 0..sub_pages + 2 {
            let events = e.next_page();
            if events.contains(&BrowseEvent::VisualMessageUnpinned) {
                unpinned = true;
                break;
            }
        }
        assert!(unpinned, "never exited the pinned region");
        assert_eq!(e.view().pinned_message, None);
        assert!(e.position() >= findings.end);
    }

    #[test]
    fn logical_browsing_moves_between_chapters() {
        let (obj, mut e) = engine();
        e.open();
        e.next_unit(LogicalLevel::Chapter);
        let ch0 = obj.text_segments[0].tree().chapters[0].span;
        assert_eq!(e.position(), ch0.start);
        e.next_unit(LogicalLevel::Chapter);
        let ch1 = obj.text_segments[0].tree().chapters[1].span;
        assert_eq!(e.position(), ch1.start);
        // No further chapter: stays put.
        let before = e.position();
        e.next_unit(LogicalLevel::Chapter);
        assert_eq!(e.position(), before);
        e.previous_unit(LogicalLevel::Chapter);
        assert_eq!(e.position(), ch0.start);
    }

    #[test]
    fn pattern_browsing_finds_next_page_with_pattern() {
        let (_, mut e) = engine();
        e.open();
        let events = e.find_pattern("shadow");
        assert!(events.iter().any(|ev| matches!(ev, BrowseEvent::PatternFound { .. })));
        let first_hit = e.position();
        // Search again: next occurrence or not found.
        let events2 = e.find_pattern("shadow");
        if events2.iter().any(|ev| matches!(ev, BrowseEvent::PatternFound { .. })) {
            assert!(e.position() > first_hit);
        }
        let none = e.find_pattern("zzznotthere");
        assert_eq!(none, vec![BrowseEvent::PatternNotFound]);
    }

    #[test]
    fn goto_page_is_absolute() {
        let (_, mut e) = engine();
        e.open();
        e.goto_page(PageNumber::new(2).unwrap());
        assert_eq!(e.page(), 1);
        e.goto_page(PageNumber::new(999).unwrap());
        assert_eq!(e.page(), e.page_count() - 1);
    }

    #[test]
    fn voice_note_plays_on_entry_once_until_exit() {
        let mut obj = minos_corpus::office_document(ObjectId::new(2), 5, 3);
        // Un-archive trick: rebuild an editing copy to attach a message.
        let mut fresh =
            MultimediaObject::new(ObjectId::new(2), "annotated", minos_object::DrivingMode::Visual);
        fresh.text_segments = obj.text_segments.clone();
        let span = {
            let tree = fresh.text_segments[0].tree();
            tree.chapters[1].span
        };
        minos_corpus::objects::attach_voice_note(&mut fresh, span, "note for chapter two", 9);
        fresh.archive().unwrap();
        obj = fresh;

        let mut e = VisualEngine::new(Rc::new(obj), 0, PaginateConfig::default()).unwrap();
        e.open();
        let events = e.seek(span.start);
        assert!(events.contains(&BrowseEvent::VoiceMessagePlayed(0)));
        // Moving within the span does not replay.
        let events = e.seek(span.start + 5);
        assert!(!events.contains(&BrowseEvent::VoiceMessagePlayed(0)));
        // Leaving and re-entering replays ("first branches into").
        e.seek(0);
        let events = e.seek(span.start + 1);
        assert!(events.contains(&BrowseEvent::VoiceMessagePlayed(0)));
    }

    #[test]
    fn page_index_matches_the_view_through_a_scripted_walk() {
        // The report's text with a pinned x-ray over the findings chapter
        // and a show-once note over the conclusion.
        let report = medical_report(ObjectId::new(1), 42);
        let mut obj =
            MultimediaObject::new(ObjectId::new(6), "walk", minos_object::DrivingMode::Visual);
        obj.text_segments = report.text_segments.clone();
        obj.images = report.images.clone();
        let chapters: Vec<CharSpan> =
            obj.text_segments[0].tree().chapters.iter().map(|c| c.span).collect();
        for (span, image, show_once) in [(chapters[0], Some(0), false), (chapters[1], None, true)] {
            obj.messages.push(minos_object::LogicalMessage {
                anchor: Anchor::TextSegment { segment: 0, span },
                body: MessageBody::Visual {
                    content: minos_object::VisualMessageContent {
                        text: Some("note".into()),
                        image,
                    },
                    show_once,
                },
            });
        }
        obj.archive().unwrap();
        let mut e = VisualEngine::new(Rc::new(obj), 0, small_pages()).unwrap();
        let end = e.document().len();
        let mut seen = Vec::new();
        macro_rules! step {
            ($call:expr) => {{
                let events = $call;
                assert_eq!(
                    e.shown_page(),
                    e.view().page_index,
                    "after {} at {}",
                    stringify!($call),
                    e.position()
                );
                seen.extend(events);
            }};
        }
        step!(e.open());
        // Backwards from the end: into the show-once note, out of it, into
        // the pinned x-ray and out of its front.
        step!(e.seek(end));
        for _ in 0..60 {
            step!(e.previous_page());
        }
        assert_eq!(e.shown_page(), 0);
        // Forwards: into and out of the x-ray; the note stays suppressed.
        for _ in 0..60 {
            step!(e.next_page());
        }
        assert!(e.position() >= chapters[1].start, "paged past the x-ray");
        for delta in [-3, 2, -100, 1] {
            step!(e.advance_pages(delta));
        }
        for page in [2, 5, 999, 1] {
            step!(e.goto_page(PageNumber::new(page).unwrap()));
        }
        for level in [LogicalLevel::Chapter, LogicalLevel::Paragraph] {
            for _ in 0..4 {
                step!(e.next_unit(level));
            }
            for _ in 0..3 {
                step!(e.previous_unit(level));
            }
        }
        step!(e.seek(0));
        for pattern in ["shadow", "shadow", "shadow", "three months", "zzznotthere"] {
            step!(e.find_pattern(pattern));
        }
        let count = |event: BrowseEvent| seen.iter().filter(|ev| **ev == event).count();
        assert_eq!(count(BrowseEvent::VisualMessagePinned(1)), 1, "show-once pins once");
        assert!(count(BrowseEvent::VisualMessagePinned(0)) >= 2, "x-ray pinned both ways");
        assert!(count(BrowseEvent::VisualMessageUnpinned) >= 3, "regions left both ways");
        assert!(seen.iter().any(|ev| matches!(ev, BrowseEvent::PatternFound { .. })));
    }

    #[test]
    fn a_text_less_object_has_no_pages_to_turn() {
        let (map, _) = minos_corpus::subway_map_object(
            ObjectId::new(3),
            ObjectId::new(4),
            ObjectId::new(5),
            11,
        );
        let mut e = VisualEngine::new(Rc::new(map), 0, PaginateConfig::default()).unwrap();
        e.open();
        assert_eq!(e.page_count(), 0);
        assert!(e.advance_pages(2).is_empty());
        assert!(e.goto_page(PageNumber::FIRST).is_empty());
        assert_eq!(e.next_unit(LogicalLevel::Word), vec![BrowseEvent::PageShown(0)]);
    }

    #[test]
    fn missing_segment_is_an_error() {
        let obj = medical_report(ObjectId::new(3), 1);
        assert!(VisualEngine::new(Rc::new(obj), 5, PaginateConfig::default()).is_err());
    }
}

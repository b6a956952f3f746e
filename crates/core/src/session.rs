//! The browsing session: driving-mode dispatch, menus, and relevant-object
//! navigation.
//!
//! One session browses one object at a time, but keeps a stack: selecting a
//! relevant object indicator pushes the target object ("The user can browse
//! through the information of the relevant object by using the driving mode
//! of the relevant object"), and returning pops it, re-establishing the
//! parent's browsing state exactly where it was — "At this point the mode
//! of browsing of the parent object is reestablished." (§2)

use crate::audio::AudioEngine;
use crate::command::{browse, Browse, BrowseCommand, BrowseEvent};
use crate::visual::{VisualEngine, VisualLayout, VisualView};
use minos_object::{relevant, DrivingMode, MultimediaObject, RelevantLink};
use minos_screen::{Menu, MenuItem};
use minos_text::PaginateConfig;
use minos_types::{Decoder, Encoder, MinosError, ObjectId, Result, SimDuration, SimInstant};
use minos_voice::PlaybackState;
use std::collections::HashMap;
use std::rc::{Rc, Weak};

/// Source of multimedia objects for relevant-object navigation.
pub trait ObjectStore {
    /// Fetches an archived object by id.
    fn fetch(&mut self, id: ObjectId) -> Result<MultimediaObject>;

    /// Fetches an archived object by id as a shared handle, the form a
    /// [`BrowsingSession`] holds it in. The default wraps
    /// [`ObjectStore::fetch`]'s copy; a store that already holds the
    /// object behind an `Rc` hands out that `Rc`, so browsing the object
    /// costs no copy of it.
    fn fetch_shared(&mut self, id: ObjectId) -> Result<Rc<MultimediaObject>> {
        self.fetch(id).map(Rc::new)
    }

    /// Observes the objects the user is likely to request next — the
    /// targets of the relevant-object indicators currently on screen.
    /// Remote stores prefetch them (§5 anticipation); the default ignores
    /// the hint, and a wrong hint can only ever waste transfer, never
    /// change what `fetch` returns.
    fn note_upcoming(&mut self, _targets: &[ObjectId]) {}
}

impl ObjectStore for HashMap<ObjectId, MultimediaObject> {
    fn fetch(&mut self, id: ObjectId) -> Result<MultimediaObject> {
        self.get(&id).cloned().ok_or_else(|| MinosError::UnknownObject(id.to_string()))
    }
}

/// The per-object engine, chosen by the object's driving mode.
#[derive(Clone, Debug)]
enum ModeEngine {
    Visual(Box<VisualEngine>),
    Audio(Box<AudioEngine>),
}

/// Checkpoint of one stack frame: the object, where browsing stood in
/// it, and the presentation state a rebuilt engine cannot rederive.
#[derive(Clone, Debug, PartialEq, Eq)]
struct FrameCheckpoint {
    /// The browsed object (the driving mode — and hence the meaning of
    /// `position` — is rederived from the refetched object).
    object: ObjectId,
    /// Visual: character offset. Audio: playback position in µs.
    position: u64,
    /// Audio only: whether playback was running (a checkpoint taken
    /// mid-interrupt must resume interrupted).
    playing: bool,
    /// Visual only: show-once messages already displayed.
    shown_once: Vec<usize>,
}

/// Wire flag: the frame's audio playback was running at checkpoint time.
const CHECKPOINT_PLAYING: u8 = 1;

/// A compact, codec'd snapshot of a [`BrowsingSession`]'s browsing state:
/// the relevant-object stack bottom-up, each frame's position, and the
/// presentation state a rebuilt engine cannot rederive. Everything else —
/// pagination, menus, message anchors — is a pure function of the objects
/// and is rebuilt on [`BrowsingSession::resume`], so the record stays a
/// few dozen bytes no matter how large the browsed documents are.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionCheckpoint {
    frames: Vec<FrameCheckpoint>,
}

/// Version byte leading every encoded checkpoint record.
const CHECKPOINT_VERSION: u8 = 1;

impl SessionCheckpoint {
    /// Nesting depth recorded in the snapshot.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// The object ids on the recorded stack, bottom-up.
    pub fn objects(&self) -> Vec<ObjectId> {
        self.frames.iter().map(|f| f.object).collect()
    }

    /// Encodes the snapshot to its wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(CHECKPOINT_VERSION);
        e.put_varint(self.frames.len() as u64);
        for frame in &self.frames {
            e.put_varint(frame.object.raw());
            e.put_varint(frame.position);
            e.put_u8(if frame.playing { CHECKPOINT_PLAYING } else { 0 });
            e.put_varint(frame.shown_once.len() as u64);
            for &m in &frame.shown_once {
                e.put_varint(m as u64);
            }
        }
        e.finish()
    }

    /// Decodes a snapshot, rejecting unknown versions, unknown flag bits,
    /// and trailing bytes with typed errors.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut d = Decoder::new(bytes);
        let version = d.get_u8()?;
        if version != CHECKPOINT_VERSION {
            return Err(MinosError::Codec(format!("unknown checkpoint version {version}")));
        }
        let count = d.get_len()?;
        if count == 0 {
            return Err(MinosError::Codec("checkpoint records an empty stack".into()));
        }
        let mut frames = Vec::new();
        for _ in 0..count {
            let object = ObjectId::new(d.get_varint()?);
            let position = d.get_varint()?;
            let flags = d.get_u8()?;
            if flags & !CHECKPOINT_PLAYING != 0 {
                return Err(MinosError::Codec(format!("unknown checkpoint flags {flags:#x}")));
            }
            let shown = d.get_len()?;
            let mut shown_once = Vec::with_capacity(shown);
            for _ in 0..shown {
                let index = usize::try_from(d.get_varint()?).map_err(|_| {
                    MinosError::Codec("checkpoint message index overflows usize".into())
                })?;
                shown_once.push(index);
            }
            frames.push(FrameCheckpoint {
                object,
                position,
                playing: flags & CHECKPOINT_PLAYING != 0,
                shown_once,
            });
        }
        d.expect_end()?;
        Ok(SessionCheckpoint { frames })
    }
}

#[derive(Clone, Debug)]
struct Frame {
    object: Rc<MultimediaObject>,
    engine: ModeEngine,
}

/// A browsing session over an object store.
pub struct BrowsingSession<S: ObjectStore> {
    store: S,
    stack: Vec<Frame>,
    config: PaginateConfig,
    audio_page_len: SimDuration,
    /// Each visual layout this session has built, by the id of the object
    /// it paginated and that object's allocation. Entering the same `Rc`
    /// again reuses the layout; an object republished under the id is
    /// another allocation and is paginated afresh. The key is weak, so
    /// the session keeps no object alive that it no longer browses, and a
    /// layout is dropped with the last handle on its object when the
    /// session returns from it.
    layouts: HashMap<ObjectId, (Weak<MultimediaObject>, Rc<VisualLayout>)>,
}

impl<S: ObjectStore> BrowsingSession<S> {
    /// Opens a session on `id`, returning the session and the initial
    /// presentation events.
    pub fn open(
        mut store: S,
        id: ObjectId,
        config: PaginateConfig,
        audio_page_len: SimDuration,
    ) -> Result<(Self, Vec<BrowseEvent>)> {
        let object = store.fetch_shared(id)?;
        let mut session = BrowsingSession {
            store,
            stack: Vec::new(),
            config,
            audio_page_len,
            layouts: HashMap::new(),
        };
        let events = session.push_object(object)?;
        session.announce_upcoming();
        Ok((session, events))
    }

    /// Snapshots the browsing state: the relevant-object stack bottom-up
    /// with each frame's position and presentation state. The snapshot
    /// holds ids, not objects — [`BrowsingSession::resume`] refetches them,
    /// so a record survives a server restart as long as the archive does.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        let frames = self
            .stack
            .iter()
            .map(|frame| match &frame.engine {
                ModeEngine::Visual(e) => FrameCheckpoint {
                    object: frame.object.id,
                    position: u64::from(e.position()),
                    playing: false,
                    shown_once: e.shown_once(),
                },
                ModeEngine::Audio(e) => FrameCheckpoint {
                    object: frame.object.id,
                    position: e.position().since(SimInstant::EPOCH).as_micros(),
                    playing: e.state() == PlaybackState::Playing,
                    shown_once: Vec::new(),
                },
            })
            .collect();
        SessionCheckpoint { frames }
    }

    /// Resumes a session from `checkpoint`: refetches every stacked object
    /// bottom-up, rebuilds its engine, and seeks it back to the recorded
    /// position — restoring show-once suppression and playback state, so
    /// the resumed session presents byte-identically to the one that was
    /// checkpointed. Entry/seek events are swallowed: nothing "happened"
    /// from the user's point of view, the session simply continues.
    pub fn resume(
        store: S,
        checkpoint: &SessionCheckpoint,
        config: PaginateConfig,
        audio_page_len: SimDuration,
    ) -> Result<Self> {
        if checkpoint.frames.is_empty() {
            return Err(MinosError::WrongState("checkpoint records an empty stack".into()));
        }
        let mut session = BrowsingSession {
            store,
            stack: Vec::new(),
            config,
            audio_page_len,
            layouts: HashMap::new(),
        };
        for frame in &checkpoint.frames {
            let object = session.store.fetch_shared(frame.object)?;
            if !object.is_archived() {
                return Err(MinosError::WrongState(format!(
                    "{} is not archived; browsing applies to archived objects",
                    object.id
                )));
            }
            let mut engine = session.build_engine(&object)?;
            match &mut engine {
                ModeEngine::Visual(e) => {
                    let position = u32::try_from(frame.position).map_err(|_| {
                        MinosError::Codec(format!(
                            "visual position {} exceeds the document range",
                            frame.position
                        ))
                    })?;
                    e.restore_shown_once(&frame.shown_once);
                    let _ = e.seek(position);
                }
                ModeEngine::Audio(e) => {
                    let _ = e.seek(SimInstant::EPOCH + SimDuration::from_micros(frame.position));
                    if frame.playing {
                        let _ = e.resume();
                    }
                }
            }
            session.stack.push(Frame { object, engine });
        }
        session.announce_upcoming();
        Ok(session)
    }

    /// Reports the visible relevant-object targets to the store so it can
    /// anticipate the user's next selection.
    fn announce_upcoming(&mut self) {
        let targets: Vec<ObjectId> =
            self.visible_relevant().iter().map(|(_, link)| link.target).collect();
        self.store.note_upcoming(&targets);
    }

    fn build_engine(&mut self, object: &Rc<MultimediaObject>) -> Result<ModeEngine> {
        Ok(match object.driving_mode {
            DrivingMode::Visual => {
                let layout = self.layout_of(object)?;
                ModeEngine::Visual(Box::new(VisualEngine::with_layout(Rc::clone(object), layout)))
            }
            DrivingMode::Audio => {
                ModeEngine::Audio(Box::new(AudioEngine::new(object, 0, self.audio_page_len)?))
            }
        })
    }

    /// The layout of `object`'s first text segment: the one this session
    /// built when it last entered this very `Rc`, or a fresh pagination.
    fn layout_of(&mut self, object: &Rc<MultimediaObject>) -> Result<Rc<VisualLayout>> {
        if let Some((paginated, layout)) = self.layouts.get(&object.id) {
            if std::ptr::eq(paginated.as_ptr(), Rc::as_ptr(object)) {
                return Ok(Rc::clone(layout));
            }
        }
        let layout = Rc::new(VisualLayout::new(object, 0, self.config)?);
        self.layouts.insert(object.id, (Rc::downgrade(object), Rc::clone(&layout)));
        Ok(layout)
    }

    fn push_object(&mut self, object: Rc<MultimediaObject>) -> Result<Vec<BrowseEvent>> {
        if !object.is_archived() {
            return Err(MinosError::WrongState(format!(
                "{} is not archived; browsing applies to archived objects",
                object.id
            )));
        }
        let mut engine = self.build_engine(&object)?;
        let events = match &mut engine {
            ModeEngine::Visual(e) => e.open(),
            ModeEngine::Audio(e) => e.open(),
        };
        self.stack.push(Frame { object, engine });
        Ok(events)
    }

    fn top(&self) -> &Frame {
        self.stack.last().expect("session always has an open object")
    }

    fn top_mut(&mut self) -> &mut Frame {
        self.stack.last_mut().expect("session always has an open object")
    }

    /// The object currently browsed.
    pub fn object(&self) -> &MultimediaObject {
        &self.top().object
    }

    /// The underlying object store (accounting, prefetch state).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable store access (schedulers drain landed transfers here).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Nesting depth (1 = the originally opened object).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// The current visual view (visual-mode objects only).
    pub fn visual_view(&self) -> Option<VisualView> {
        match &self.top().engine {
            ModeEngine::Visual(e) => Some(e.view()),
            ModeEngine::Audio(_) => None,
        }
    }

    /// The exact character position of the visual engine (visual-mode
    /// objects only).
    pub fn visual_position(&self) -> Option<u32> {
        match &self.top().engine {
            ModeEngine::Visual(e) => Some(e.position()),
            ModeEngine::Audio(_) => None,
        }
    }

    /// The audio engine (audio-mode objects only).
    pub fn audio(&self) -> Option<&AudioEngine> {
        match &self.top().engine {
            ModeEngine::Audio(e) => Some(e),
            ModeEngine::Visual(_) => None,
        }
    }

    /// The relevant links whose indicator is visible at the current
    /// browsing position. Links anchored to images are visible whenever the
    /// object displays images (the map case of Figures 7–8).
    pub fn visible_relevant(&self) -> Vec<(usize, &RelevantLink)> {
        let frame = self.top();
        let links = &frame.object.relevant;
        let mut indices: Vec<usize> = match &frame.engine {
            ModeEngine::Visual(e) => relevant::links_at_text(links, 0, e.position()),
            ModeEngine::Audio(e) => relevant::links_at_voice(links, 0, e.position()),
        };
        for image in 0..frame.object.images.len() {
            for i in relevant::links_at_image(links, image) {
                if !indices.contains(&i) {
                    indices.push(i);
                }
            }
        }
        indices.sort_unstable();
        indices.into_iter().map(|i| (i, &links[i])).collect()
    }

    /// Derives the menu for the current object and position: "The menu
    /// options which are displayed define the set of available
    /// operations." (§2)
    pub fn menu(&self) -> Menu {
        let frame = self.top();
        let mut items = vec![
            MenuItem::new("next page"),
            MenuItem::new("previous page"),
            MenuItem::new("advance pages"),
            MenuItem::new("goto page"),
            MenuItem::new("find pattern"),
        ];
        let levels = match &frame.engine {
            ModeEngine::Visual(e) => e.units().available_levels(),
            ModeEngine::Audio(e) => e.units().available_levels(),
        };
        for level in levels {
            items.push(MenuItem::new(format!("next {level}")));
            items.push(MenuItem::new(format!("previous {level}")));
        }
        if matches!(frame.engine, ModeEngine::Audio(_)) {
            items.push(MenuItem::new("interrupt"));
            items.push(MenuItem::new("resume"));
            items.push(MenuItem::new("resume page start"));
            items.push(MenuItem::new("rewind short pauses"));
            items.push(MenuItem::new("rewind long pauses"));
        }
        for (_, link) in self.visible_relevant() {
            items.push(MenuItem::new(format!("relevant: {}", link.label)));
        }
        if self.depth() > 1 {
            items.push(MenuItem::new("return from relevant object"));
        }
        Menu::new(items)
    }

    /// Applies a browsing command.
    pub fn apply(&mut self, command: BrowseCommand) -> Result<Vec<BrowseEvent>> {
        let events = self.dispatch(command)?;
        // Whatever the command changed (page, object, mode), the now-
        // visible indicators are the store's prefetch hint.
        self.announce_upcoming();
        Ok(events)
    }

    fn dispatch(&mut self, command: BrowseCommand) -> Result<Vec<BrowseEvent>> {
        match command {
            BrowseCommand::SelectRelevant(n) => return self.select_relevant(n),
            BrowseCommand::ReturnFromRelevant => return self.return_from_relevant(),
            _ => {}
        }
        // The shared commands run the one generic path; only the voice
        // operations keep a per-mode one.
        match &mut self.top_mut().engine {
            ModeEngine::Visual(e) => browse(e.as_mut(), command).map_err(|cmd| {
                MinosError::OperationUnavailable(format!(
                    "{cmd:?} is a voice operation; this object drives visually"
                ))
            }),
            ModeEngine::Audio(e) => Ok(match browse(e.as_mut(), command) {
                Ok(events) => events,
                Err(BrowseCommand::Interrupt) => e.interrupt(),
                Err(BrowseCommand::Resume) => e.resume(),
                Err(BrowseCommand::ResumePageStart) => e.resume_page_start(),
                Err(BrowseCommand::RewindPauses(kind, n)) => e.rewind_pauses(kind, n),
                // Relevant navigation was dispatched above.
                Err(_) => unreachable!("handled before engine dispatch"),
            }),
        }
    }

    /// Advances simulated time (audio playback, message durations).
    pub fn tick(&mut self, dt: SimDuration) -> Vec<BrowseEvent> {
        match &mut self.top_mut().engine {
            ModeEngine::Audio(e) => e.tick(dt),
            ModeEngine::Visual(_) => Vec::new(),
        }
    }

    /// Explicitly selects the `n`-th visible relevant object indicator.
    fn select_relevant(&mut self, n: usize) -> Result<Vec<BrowseEvent>> {
        let target = {
            let visible = self.visible_relevant();
            let (_, link) = visible.get(n).ok_or_else(|| {
                MinosError::OperationUnavailable(format!("no relevant object indicator {n} here"))
            })?;
            link.target
        };
        let object = self.store.fetch_shared(target)?;
        let mut events = vec![BrowseEvent::EnteredRelevant(target)];
        events.extend(self.push_object(object)?);
        Ok(events)
    }

    /// Explicitly returns from the current relevant object.
    fn return_from_relevant(&mut self) -> Result<Vec<BrowseEvent>> {
        if self.stack.len() <= 1 {
            return Err(MinosError::OperationUnavailable("not inside a relevant object".into()));
        }
        let left = self.stack.pop().expect("the stack holds the relevant object");
        // An object no one else holds can never be entered again as this
        // allocation: its layout goes with it.
        if Rc::strong_count(&left.object) == 1 {
            self.layouts.remove(&left.object.id);
        }
        let parent = self.top().object.id;
        let mut events = vec![BrowseEvent::ReturnedToParent(parent)];
        // Re-announce the restored page so UIs repaint.
        events.push(BrowseEvent::PageShown(match &self.top().engine {
            ModeEngine::Visual(e) => e.shown_page(),
            ModeEngine::Audio(e) => e.shown_page(),
        }));
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_corpus::{audio_xray_report, medical_report, subway_map_object};

    use minos_voice::PauseKind;

    fn store() -> HashMap<ObjectId, MultimediaObject> {
        let mut map = HashMap::new();
        let report = medical_report(ObjectId::new(1), 42);
        map.insert(report.id, report);
        let dictation = audio_xray_report(ObjectId::new(2), 7);
        map.insert(dictation.id, dictation);
        let (parent, overlays) =
            subway_map_object(ObjectId::new(3), ObjectId::new(4), ObjectId::new(5), 11);
        map.insert(parent.id, parent);
        for o in overlays {
            map.insert(o.id, o);
        }
        map
    }

    fn open(id: u64) -> (BrowsingSession<HashMap<ObjectId, MultimediaObject>>, Vec<BrowseEvent>) {
        BrowsingSession::open(
            store(),
            ObjectId::new(id),
            PaginateConfig::default(),
            SimDuration::from_secs(5),
        )
        .unwrap()
    }

    #[test]
    fn open_visual_object_shows_page_zero() {
        let (session, events) = open(1);
        assert!(events.contains(&BrowseEvent::PageShown(0)));
        assert!(session.visual_view().is_some());
        assert!(session.audio().is_none());
        assert_eq!(session.depth(), 1);
    }

    #[test]
    fn open_audio_object_starts_playback() {
        let (session, _) = open(2);
        assert!(session.audio().is_some());
        assert!(session.visual_view().is_none());
        assert_eq!(session.audio().unwrap().state(), minos_voice::PlaybackState::Playing);
    }

    #[test]
    fn same_commands_drive_both_modes() {
        for id in [1u64, 2] {
            let (mut session, _) = open(id);
            for cmd in [
                BrowseCommand::NextPage,
                BrowseCommand::PreviousPage,
                BrowseCommand::AdvancePages(2),
                BrowseCommand::FindPattern("shadow".into()),
            ] {
                session
                    .apply(cmd.clone())
                    .unwrap_or_else(|e| panic!("command {cmd:?} failed on object {id}: {e}"));
            }
        }
    }

    #[test]
    fn voice_commands_rejected_on_visual_objects() {
        let (mut session, _) = open(1);
        for cmd in [
            BrowseCommand::Interrupt,
            BrowseCommand::Resume,
            BrowseCommand::ResumePageStart,
            BrowseCommand::RewindPauses(PauseKind::Short, 1),
        ] {
            assert!(
                matches!(session.apply(cmd.clone()), Err(MinosError::OperationUnavailable(_))),
                "{cmd:?} should be unavailable"
            );
        }
    }

    #[test]
    fn voice_commands_work_on_audio_objects() {
        let (mut session, _) = open(2);
        session.tick(SimDuration::from_secs(8));
        session.apply(BrowseCommand::Interrupt).unwrap();
        session.apply(BrowseCommand::RewindPauses(PauseKind::Short, 2)).unwrap();
        session.apply(BrowseCommand::Resume).unwrap();
    }

    #[test]
    fn menu_reflects_driving_mode_and_structure() {
        let (visual, _) = open(1);
        let labels: Vec<String> = visual.menu().items().iter().map(|i| i.label.clone()).collect();
        assert!(labels.contains(&"next page".to_string()));
        assert!(labels.contains(&"next chapter".to_string()));
        assert!(!labels.contains(&"interrupt".to_string()));

        let (audio, _) = open(2);
        let labels: Vec<String> = audio.menu().items().iter().map(|i| i.label.clone()).collect();
        assert!(labels.contains(&"interrupt".to_string()));
        assert!(labels.contains(&"rewind short pauses".to_string()));
        assert!(labels.contains(&"next paragraph".to_string()));
        assert!(!labels.contains(&"next chapter".to_string())); // only paragraph/sentence marked
    }

    #[test]
    fn relevant_indicators_appear_on_the_map() {
        let (session, _) = open(3);
        let visible = session.visible_relevant();
        assert_eq!(visible.len(), 2);
        assert_eq!(visible[0].1.label, "hospitals");
        let labels: Vec<String> = session.menu().items().iter().map(|i| i.label.clone()).collect();
        assert!(labels.contains(&"relevant: hospitals".to_string()));
    }

    #[test]
    fn select_and_return_from_relevant_object() {
        let (mut session, _) = open(3);
        let events = session.apply(BrowseCommand::SelectRelevant(0)).unwrap();
        assert!(events.contains(&BrowseEvent::EnteredRelevant(ObjectId::new(4))));
        assert_eq!(session.depth(), 2);
        assert_eq!(session.object().id, ObjectId::new(4));
        // The menu now offers the return option.
        let labels: Vec<String> = session.menu().items().iter().map(|i| i.label.clone()).collect();
        assert!(labels.contains(&"return from relevant object".to_string()));

        let events = session.apply(BrowseCommand::ReturnFromRelevant).unwrap();
        assert!(events.contains(&BrowseEvent::ReturnedToParent(ObjectId::new(3))));
        assert_eq!(session.depth(), 1);
        assert_eq!(session.object().id, ObjectId::new(3));
    }

    /// A parent of driving mode `mode` — the report's text, or the
    /// dictation's voice — whose one relevant link, to `target`, is
    /// anchored over the second half of the part, past its first page.
    fn parent_with_late_link(mode: DrivingMode, target: ObjectId) -> MultimediaObject {
        let mut parent = MultimediaObject::new(ObjectId::new(20), "late link", mode);
        let anchor = match mode {
            DrivingMode::Visual => {
                parent.text_segments = medical_report(ObjectId::new(1), 42).text_segments;
                let len = parent.text_segments[0].len();
                minos_object::Anchor::TextSegment {
                    segment: 0,
                    span: minos_types::CharSpan::new(len / 2, len),
                }
            }
            DrivingMode::Audio => {
                parent.voice_segments = audio_xray_report(ObjectId::new(2), 7).voice_segments;
                let end = SimInstant::EPOCH + parent.voice_segments[0].duration();
                let half = SimInstant::EPOCH + parent.voice_segments[0].duration() / 2;
                minos_object::Anchor::VoiceSegment {
                    segment: 0,
                    span: minos_types::TimeSpan::new(half, end),
                }
            }
        };
        parent.relevant.push(minos_object::RelevantLink {
            label: "related".into(),
            target,
            anchor,
            relevances: vec![],
        });
        parent.archive().unwrap();
        parent
    }

    #[test]
    fn parent_browsing_state_is_reestablished() {
        // A visual parent: page forward until the link's indicator shows,
        // browse the (audio) relevant object, and return.
        let mut map = store();
        let parent = parent_with_late_link(DrivingMode::Visual, ObjectId::new(2));
        map.insert(parent.id, parent);
        // Small pages, so the report spans several.
        let config = PaginateConfig {
            page_size: minos_types::Size::new(420, 260),
            margin: 10,
            block_gap: 6,
        };
        let (mut session, _) =
            BrowsingSession::open(map, ObjectId::new(20), config, SimDuration::from_secs(5))
                .unwrap();
        for _ in 0..100 {
            if !session.visible_relevant().is_empty() {
                break;
            }
            session.apply(BrowseCommand::NextPage).unwrap();
        }
        let position = session.visual_position();
        let page = session.visual_view().unwrap().page_index;
        assert!(page > 0, "the link sits past page 1");
        session.apply(BrowseCommand::SelectRelevant(0)).unwrap();
        session.tick(SimDuration::from_secs(3));
        session.apply(BrowseCommand::NextPage).unwrap();
        session.apply(BrowseCommand::ReturnFromRelevant).unwrap();
        assert_eq!(session.object().id, ObjectId::new(20));
        assert_eq!(session.visual_position(), position);
        assert_eq!(session.visual_view().unwrap().page_index, page);

        // An audio parent: play into the link's anchor, interrupt, browse
        // the (visual) relevant object, and return.
        let mut map = store();
        let parent = parent_with_late_link(DrivingMode::Audio, ObjectId::new(1));
        map.insert(parent.id, parent);
        let (mut session, _) =
            BrowsingSession::open(map, ObjectId::new(20), config, SimDuration::from_secs(5))
                .unwrap();
        for _ in 0..100 {
            if !session.visible_relevant().is_empty() {
                break;
            }
            session.tick(SimDuration::from_secs(1));
        }
        session.apply(BrowseCommand::Interrupt).unwrap();
        let position = session.audio().unwrap().position();
        let state = session.audio().unwrap().state();
        assert!(position > SimInstant::EPOCH + SimDuration::from_secs(5), "past page 1");
        session.apply(BrowseCommand::SelectRelevant(0)).unwrap();
        session.apply(BrowseCommand::NextPage).unwrap();
        session.apply(BrowseCommand::ReturnFromRelevant).unwrap();
        assert_eq!(session.object().id, ObjectId::new(20));
        assert_eq!(session.audio().unwrap().position(), position);
        assert_eq!(session.audio().unwrap().state(), state);
    }

    /// A store that hands out its own `Rc`s, as the server's does.
    struct SharedStore(HashMap<ObjectId, Rc<MultimediaObject>>);

    impl ObjectStore for SharedStore {
        fn fetch(&mut self, id: ObjectId) -> Result<MultimediaObject> {
            self.fetch_shared(id).map(|object| MultimediaObject::clone(&object))
        }

        fn fetch_shared(&mut self, id: ObjectId) -> Result<Rc<MultimediaObject>> {
            self.0.get(&id).cloned().ok_or_else(|| MinosError::UnknownObject(id.to_string()))
        }
    }

    #[test]
    fn entering_an_object_again_reuses_its_layout_until_it_is_republished() {
        let objects = store().into_iter().map(|(id, object)| (id, Rc::new(object))).collect();
        // Small pages, so the report spans several.
        let config = PaginateConfig {
            page_size: minos_types::Size::new(420, 260),
            margin: 10,
            block_gap: 6,
        };
        let (mut session, _) = BrowsingSession::open(
            SharedStore(objects),
            ObjectId::new(3),
            config,
            SimDuration::from_secs(5),
        )
        .unwrap();
        let enter = |session: &mut BrowsingSession<SharedStore>| {
            session.apply(BrowseCommand::SelectRelevant(0)).unwrap();
            let ModeEngine::Visual(engine) = &session.top().engine else {
                panic!("the hospitals overlay drives visually");
            };
            let entered = (Rc::clone(engine.layout()), engine.page_count());
            session.apply(BrowseCommand::ReturnFromRelevant).unwrap();
            entered
        };
        let (first, before) = enter(&mut session);
        let (again, _) = enter(&mut session);
        assert!(Rc::ptr_eq(&first, &again), "the second entry paginated the overlay again");

        // The overlay is republished under its id with the report's text:
        // the next entry pages through the new text.
        let mut republished =
            MultimediaObject::new(ObjectId::new(4), "hospitals, annotated", DrivingMode::Visual);
        republished.text_segments = medical_report(ObjectId::new(1), 42).text_segments;
        republished.archive().unwrap();
        let republished = Rc::new(republished);
        session.store_mut().0.insert(ObjectId::new(4), Rc::clone(&republished));
        let (fresh, pages) = enter(&mut session);
        assert!(!Rc::ptr_eq(&first, &fresh), "the republished object kept the old layout");
        let expected = VisualEngine::new(republished, 0, config).unwrap().page_count();
        assert_ne!(expected, before, "the report's text pages differently");
        assert_eq!(pages, expected);
    }

    #[test]
    fn return_at_top_level_is_unavailable() {
        let (mut session, _) = open(1);
        assert!(matches!(
            session.apply(BrowseCommand::ReturnFromRelevant),
            Err(MinosError::OperationUnavailable(_))
        ));
    }

    #[test]
    fn selecting_missing_indicator_fails() {
        let (mut session, _) = open(1);
        assert!(session.apply(BrowseCommand::SelectRelevant(0)).is_err());
    }

    #[test]
    fn unknown_object_fails_to_open() {
        let result = BrowsingSession::open(
            store(),
            ObjectId::new(404),
            PaginateConfig::default(),
            SimDuration::from_secs(5),
        );
        assert!(result.is_err());
    }

    #[test]
    fn checkpoint_round_trips_through_the_codec() {
        let (mut session, _) = open(3);
        session.apply(BrowseCommand::SelectRelevant(1)).unwrap();
        session.apply(BrowseCommand::NextPage).unwrap();
        let checkpoint = session.checkpoint();
        assert_eq!(checkpoint.depth(), 2);
        assert_eq!(checkpoint.objects(), vec![ObjectId::new(3), ObjectId::new(5)]);
        let decoded = SessionCheckpoint::decode(&checkpoint.encode()).unwrap();
        assert_eq!(decoded, checkpoint);
    }

    #[test]
    fn mutated_checkpoints_fail_typed() {
        let (session, _) = open(1);
        let bytes = session.checkpoint().encode();
        // Truncation, a bumped version byte, unknown flag bits, and
        // trailing garbage all fail typed — never a panic, never a
        // silently different session.
        for cut in 0..bytes.len() {
            assert!(SessionCheckpoint::decode(&bytes[..cut]).is_err(), "truncated at {cut}");
        }
        let mut wrong_version = bytes.clone();
        wrong_version[0] = 9;
        assert!(matches!(SessionCheckpoint::decode(&wrong_version), Err(MinosError::Codec(_))));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(SessionCheckpoint::decode(&trailing).is_err());
    }

    #[test]
    fn resumed_visual_session_presents_byte_identically() {
        let (mut session, _) = open(1);
        session.apply(BrowseCommand::NextPage).unwrap();
        session.apply(BrowseCommand::NextPage).unwrap();
        let checkpoint = session.checkpoint();
        let resumed = BrowsingSession::resume(
            store(),
            &SessionCheckpoint::decode(&checkpoint.encode()).unwrap(),
            PaginateConfig::default(),
            SimDuration::from_secs(5),
        )
        .unwrap();
        assert_eq!(resumed.depth(), session.depth());
        assert_eq!(resumed.object().id, session.object().id);
        assert_eq!(resumed.visual_position(), session.visual_position());
        assert_eq!(resumed.visual_view().unwrap().page, session.visual_view().unwrap().page);
        assert_eq!(resumed.menu(), session.menu());
    }

    #[test]
    fn resume_restores_the_relevant_object_stack() {
        let (mut session, _) = open(3);
        session.apply(BrowseCommand::SelectRelevant(0)).unwrap();
        let checkpoint = session.checkpoint();
        let mut resumed = BrowsingSession::resume(
            store(),
            &checkpoint,
            PaginateConfig::default(),
            SimDuration::from_secs(5),
        )
        .unwrap();
        assert_eq!(resumed.depth(), 2);
        assert_eq!(resumed.object().id, ObjectId::new(4));
        // The parent's browsing state was reestablished too: returning
        // lands on the map exactly as the original session would.
        let expect = session.apply(BrowseCommand::ReturnFromRelevant).unwrap();
        let got = resumed.apply(BrowseCommand::ReturnFromRelevant).unwrap();
        assert_eq!(got, expect);
        assert_eq!(resumed.object().id, ObjectId::new(3));
    }

    #[test]
    fn resume_restores_audio_position_and_interrupt_state() {
        let (mut session, _) = open(2);
        session.tick(SimDuration::from_secs(8));
        session.apply(BrowseCommand::Interrupt).unwrap();
        let interrupted = session.checkpoint();
        let resumed = BrowsingSession::resume(
            store(),
            &interrupted,
            PaginateConfig::default(),
            SimDuration::from_secs(5),
        )
        .unwrap();
        let original = session.audio().unwrap();
        let restored = resumed.audio().unwrap();
        assert_eq!(restored.position(), original.position());
        assert_eq!(restored.state(), minos_voice::PlaybackState::Interrupted);

        // And a checkpoint taken while playing resumes playing: the next
        // tick advances both sessions identically.
        session.apply(BrowseCommand::Resume).unwrap();
        let playing = session.checkpoint();
        let mut resumed = BrowsingSession::resume(
            store(),
            &playing,
            PaginateConfig::default(),
            SimDuration::from_secs(5),
        )
        .unwrap();
        assert_eq!(resumed.audio().unwrap().state(), minos_voice::PlaybackState::Playing);
        let expect = session.tick(SimDuration::from_secs(3));
        let got = resumed.tick(SimDuration::from_secs(3));
        assert_eq!(got, expect);
        assert_eq!(resumed.audio().unwrap().position(), session.audio().unwrap().position());
    }

    #[test]
    fn resume_preserves_show_once_suppression() {
        // Browsing into the x-ray pins it once; paging away and back must
        // not re-pin it — and neither may a resume that crosses the same
        // position.
        let (mut session, _) = open(1);
        let mut pinned_pages = 0;
        for _ in 0..6 {
            let events = session.apply(BrowseCommand::NextPage).unwrap();
            if events.iter().any(|e| matches!(e, BrowseEvent::VisualMessagePinned(_))) {
                pinned_pages += 1;
            }
        }
        let checkpoint = session.checkpoint();
        let mut resumed = BrowsingSession::resume(
            store(),
            &checkpoint,
            PaginateConfig::default(),
            SimDuration::from_secs(5),
        )
        .unwrap();
        // Walk both sessions back to the front and forward again: the
        // suppression state must agree at every step.
        for _ in 0..6 {
            let expect = session.apply(BrowseCommand::PreviousPage).unwrap();
            let got = resumed.apply(BrowseCommand::PreviousPage).unwrap();
            assert_eq!(got, expect);
        }
        for _ in 0..6 {
            let expect = session.apply(BrowseCommand::NextPage).unwrap();
            let got = resumed.apply(BrowseCommand::NextPage).unwrap();
            assert_eq!(got, expect);
        }
        let _ = pinned_pages;
    }

    #[test]
    fn resume_with_missing_object_fails_typed() {
        let (session, _) = open(1);
        let checkpoint = session.checkpoint();
        let empty: HashMap<ObjectId, MultimediaObject> = HashMap::new();
        assert!(matches!(
            BrowsingSession::resume(
                empty,
                &checkpoint,
                PaginateConfig::default(),
                SimDuration::from_secs(5),
            ),
            Err(MinosError::UnknownObject(_))
        ));
    }

    #[test]
    fn relevant_object_uses_its_own_driving_mode() {
        // Push an audio relevant object under a visual parent.
        let mut map = store();
        let mut parent = medical_report(ObjectId::new(10), 1);
        // Rebuild as editing to add a link (generator archives).
        let mut fresh = MultimediaObject::new(ObjectId::new(10), "parent", DrivingMode::Visual);
        fresh.text_segments = parent.text_segments.clone();
        fresh.relevant.push(minos_object::RelevantLink {
            label: "dictation".into(),
            target: ObjectId::new(2),
            anchor: minos_object::Anchor::TextSegment {
                segment: 0,
                span: minos_types::CharSpan::new(0, fresh.text_segments[0].len()),
            },
            relevances: vec![],
        });
        fresh.archive().unwrap();
        parent = fresh;
        map.insert(parent.id, parent);

        let (mut session, _) = BrowsingSession::open(
            map,
            ObjectId::new(10),
            PaginateConfig::default(),
            SimDuration::from_secs(5),
        )
        .unwrap();
        assert!(session.visual_view().is_some());
        session.apply(BrowseCommand::SelectRelevant(0)).unwrap();
        // Now browsing the audio dictation with audio semantics.
        assert!(session.audio().is_some());
        session.apply(BrowseCommand::Interrupt).unwrap();
        session.apply(BrowseCommand::ReturnFromRelevant).unwrap();
        assert!(session.visual_view().is_some());
    }
}

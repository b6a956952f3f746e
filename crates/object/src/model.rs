//! The in-memory multimedia object.
//!
//! "Multimedia objects may be in an editing state or in an archived state.
//! Objects in an editing state are allowed to be modified. Objects in the
//! archived state are not allowed to be modified. The presentation and
//! browsing capabilities … are applicable to multimedia objects which are
//! in the archived state." (§2)
//!
//! "Each multimedia object has a driving mode associated with it. The
//! driving mode is the principal way of presenting the information in the
//! object, and it can be either visual or audio." (§2)

use crate::messages::LogicalMessage;
use crate::relevant::RelevantLink;
use minos_image::{Image, Overwrite, Tour, TransparencyDisplay};
use minos_text::{Document, LogicalLevel};
use minos_types::{MinosError, ObjectId, Result, SimDuration};
use minos_voice::{
    pause::PauseDetector, recognize::RecognizedUtterance, synth::SpeakerProfile, synthesize,
    AudioBuffer, DetectedPause, Recognizer, Transcript, VoiceMarks,
};

/// The principal presentation medium of an object.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DrivingMode {
    /// Page browsing commands act on visual pages. The default for
    /// documents.
    Visual,
    /// Page browsing commands act on audio pages. "The reason for enforcing
    /// a driving mode … is so that the users do not become confused trying
    /// to navigate in two different media at the same time." (§2)
    Audio,
}

/// Lifecycle state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ObjectState {
    /// Modifiable; lives in workstation disk files.
    Editing,
    /// Immutable; lives in the archiver. Browsing applies here.
    Archived,
}

/// A formatted attribute of the object (author, date, patient id, …).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Attribute {
    /// Attribute name.
    pub name: String,
    /// Attribute value.
    pub value: String,
}

/// One voice segment with everything browsing needs: the digitized audio,
/// ground-truth transcript (the synthetic stand-in for the speaker),
/// detected pauses, manual logical marks, and recognized utterances.
#[derive(Clone, Debug)]
pub struct VoiceSegment {
    /// The digitized audio.
    pub audio: AudioBuffer,
    /// Ground-truth transcript (simulation artifact; see DESIGN.md).
    pub transcript: Transcript,
    /// Pauses found by the detector at insertion time.
    pub pauses: Vec<DetectedPause>,
    /// Manually identified logical units (may be empty).
    pub marks: VoiceMarks,
    /// Utterances recognized at insertion or idle time (may be empty).
    pub utterances: Vec<RecognizedUtterance>,
}

impl VoiceSegment {
    /// Creates a segment by "dictating" `text` with the given speaker
    /// profile: synthesizes the audio and runs pause detection, as the real
    /// system would at insertion time.
    pub fn dictate(text: &str, profile: &SpeakerProfile, seed: u64) -> Self {
        let (audio, transcript) = synthesize(text, profile, seed);
        let pauses = PauseDetector::new().detect(&audio);
        VoiceSegment {
            audio,
            transcript,
            pauses,
            marks: VoiceMarks::default(),
            utterances: Vec::new(),
        }
    }

    /// Adds manual logical marks for the given levels (the speaker pressed
    /// the buttons while dictating).
    pub fn with_marks(mut self, levels: &[LogicalLevel]) -> Self {
        self.marks = minos_voice::marks::from_transcript(&self.transcript, levels);
        self
    }

    /// Runs the (simulated) recognizer and stores its utterances.
    pub fn with_recognition(mut self, recognizer: &Recognizer) -> Self {
        self.utterances = recognizer.recognize(&self.transcript);
        self
    }

    /// Total duration of the segment.
    pub fn duration(&self) -> SimDuration {
        self.audio.duration()
    }
}

/// A transparency set defined over images of the object image part.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TransparencySetSpec {
    /// Image the set is projected over (the "last page before the set").
    pub base_image: usize,
    /// Image indices serving as the transparencies, in designer order.
    pub sheets: Vec<usize>,
    /// The designer's display method.
    pub display: TransparencyDisplay,
}

/// A tour defined over one image of the object.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TourSpec {
    /// The toured image.
    pub image: usize,
    /// The tour definition (stop messages index into the object's message
    /// table).
    pub tour: Tour,
}

/// One step of a process simulation.
#[derive(Clone, PartialEq, Debug)]
pub struct ProcessStep {
    /// The overwrite applied when this step's page turns.
    pub overwrite: Overwrite,
    /// Logical message attached to the page (index into the object's
    /// message table). When the message is audio, "the next visual page is
    /// only shown after the logical audio message has been played" (§2).
    pub message: Option<usize>,
}

/// A process simulation: automatically turned pages over a base image.
#[derive(Clone, PartialEq, Debug)]
pub struct ProcessSimulation {
    /// The image the simulation starts from.
    pub base_image: usize,
    /// Steps in play order.
    pub steps: Vec<ProcessStep>,
    /// "The relative speed by which pages are placed one on the top of
    /// another is set at object creation time but it may be altered by the
    /// user." (§2)
    pub interval: SimDuration,
}

/// The unit of information in MINOS.
#[derive(Clone, Debug)]
pub struct MultimediaObject {
    /// Unique object identifier.
    pub id: ObjectId,
    /// Human name (editing-state objects are "retriev\[ed\] by name", §5).
    pub name: String,
    /// Formatted attributes.
    pub attributes: Vec<Attribute>,
    /// The object text part: a collection of text segments.
    pub text_segments: Vec<Document>,
    /// The object voice part: a collection of voice segments.
    pub voice_segments: Vec<VoiceSegment>,
    /// The object image part: a collection of images.
    pub images: Vec<Image>,
    /// The principal presentation medium.
    pub driving_mode: DrivingMode,
    /// Logical messages owned by the object.
    pub messages: Vec<LogicalMessage>,
    /// Relevant object links.
    pub relevant: Vec<RelevantLink>,
    /// Transparency sets.
    pub transparency_sets: Vec<TransparencySetSpec>,
    /// Tours.
    pub tours: Vec<TourSpec>,
    /// Process simulations.
    pub process_sims: Vec<ProcessSimulation>,
    state: ObjectState,
}

impl MultimediaObject {
    /// Creates an empty object in editing state.
    pub fn new(id: ObjectId, name: impl Into<String>, driving_mode: DrivingMode) -> Self {
        MultimediaObject {
            id,
            name: name.into(),
            attributes: Vec::new(),
            text_segments: Vec::new(),
            voice_segments: Vec::new(),
            images: Vec::new(),
            driving_mode,
            messages: Vec::new(),
            relevant: Vec::new(),
            transparency_sets: Vec::new(),
            tours: Vec::new(),
            process_sims: Vec::new(),
            state: ObjectState::Editing,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ObjectState {
        self.state
    }

    /// Whether the object may be browsed (archived state).
    pub fn is_archived(&self) -> bool {
        self.state == ObjectState::Archived
    }

    /// Errors unless the object is still modifiable.
    pub fn ensure_editing(&self) -> Result<()> {
        if self.state == ObjectState::Editing {
            Ok(())
        } else {
            Err(MinosError::WrongState(format!("{} is archived and may not be modified", self.id)))
        }
    }

    /// Validates all internal references: every message anchor, relevant
    /// link, transparency sheet, tour and process simulation must refer to
    /// existing parts and messages.
    pub fn validate(&self) -> Result<()> {
        let check = |ok: bool, what: String| {
            if ok {
                Ok(())
            } else {
                Err(MinosError::UnknownComponent(what))
            }
        };
        for (i, m) in self.messages.iter().enumerate() {
            use crate::messages::{Anchor, MessageBody};
            match &m.anchor {
                Anchor::TextSegment { segment, .. } => check(
                    *segment < self.text_segments.len(),
                    format!("message {i}: text segment {segment}"),
                )?,
                Anchor::Image { image } => {
                    check(*image < self.images.len(), format!("message {i}: image {image}"))?
                }
                Anchor::VoiceSegment { segment, .. } | Anchor::VoicePoint { segment, .. } => check(
                    *segment < self.voice_segments.len(),
                    format!("message {i}: voice segment {segment}"),
                )?,
            }
            match &m.body {
                MessageBody::Voice { segment, .. } => check(
                    *segment < self.voice_segments.len(),
                    format!("message {i}: body voice segment {segment}"),
                )?,
                MessageBody::Visual { content, .. } => {
                    if let Some(img) = content.image {
                        check(img < self.images.len(), format!("message {i}: body image {img}"))?;
                    }
                }
            }
        }
        for (i, set) in self.transparency_sets.iter().enumerate() {
            check(
                set.base_image < self.images.len(),
                format!("transparency set {i}: base image {}", set.base_image),
            )?;
            for &s in &set.sheets {
                check(s < self.images.len(), format!("transparency set {i}: sheet {s}"))?;
            }
        }
        for (i, t) in self.tours.iter().enumerate() {
            check(t.image < self.images.len(), format!("tour {i}: image {}", t.image))?;
            for stop in t.tour.stops() {
                if let Some(m) = stop.message {
                    check(m < self.messages.len(), format!("tour {i}: message {m}"))?;
                }
            }
        }
        for (i, p) in self.process_sims.iter().enumerate() {
            check(
                p.base_image < self.images.len(),
                format!("process sim {i}: base image {}", p.base_image),
            )?;
            for (j, step) in p.steps.iter().enumerate() {
                if let Some(m) = step.message {
                    check(
                        m < self.messages.len(),
                        format!("process sim {i} step {j}: message {m}"),
                    )?;
                }
            }
        }
        Ok(())
    }

    /// Freezes the object: validates and transitions to archived state.
    pub fn archive(&mut self) -> Result<()> {
        self.ensure_editing()?;
        self.validate()?;
        self.state = ObjectState::Archived;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Anchor, MessageBody, VisualMessageContent};
    use minos_image::Bitmap;
    use minos_types::CharSpan;

    fn base_object() -> MultimediaObject {
        let mut obj = MultimediaObject::new(ObjectId::new(1), "report", DrivingMode::Visual);
        obj.text_segments.push(minos_text::parse_markup(".ch One\nBody text here.\n").unwrap());
        obj.images.push(Image::Bitmap(Bitmap::new(10, 10)));
        obj
    }

    #[test]
    fn new_object_is_editing() {
        let obj = base_object();
        assert_eq!(obj.state(), ObjectState::Editing);
        assert!(!obj.is_archived());
        obj.ensure_editing().unwrap();
    }

    #[test]
    fn archive_freezes() {
        let mut obj = base_object();
        obj.archive().unwrap();
        assert!(obj.is_archived());
        assert!(obj.ensure_editing().is_err());
        assert!(obj.archive().is_err(), "double archive rejected");
    }

    #[test]
    fn validate_catches_bad_message_anchor() {
        let mut obj = base_object();
        obj.messages.push(LogicalMessage {
            anchor: Anchor::TextSegment { segment: 5, span: CharSpan::new(0, 1) },
            body: MessageBody::Visual {
                content: VisualMessageContent::default(),
                show_once: false,
            },
        });
        assert!(obj.validate().is_err());
        assert!(obj.archive().is_err(), "archive must validate");
    }

    #[test]
    fn validate_catches_bad_body_image() {
        let mut obj = base_object();
        obj.messages.push(LogicalMessage {
            anchor: Anchor::TextSegment { segment: 0, span: CharSpan::new(0, 1) },
            body: MessageBody::Visual {
                content: VisualMessageContent { text: None, image: Some(9) },
                show_once: false,
            },
        });
        assert!(obj.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_transparency_sheet() {
        let mut obj = base_object();
        obj.transparency_sets.push(TransparencySetSpec {
            base_image: 0,
            sheets: vec![0, 3],
            display: TransparencyDisplay::Stacked,
        });
        assert!(obj.validate().is_err());
    }

    #[test]
    fn validate_accepts_consistent_object() {
        let mut obj = base_object();
        obj.messages.push(LogicalMessage {
            anchor: Anchor::Image { image: 0 },
            body: MessageBody::Visual {
                content: VisualMessageContent { text: Some("note".into()), image: Some(0) },
                show_once: true,
            },
        });
        obj.transparency_sets.push(TransparencySetSpec {
            base_image: 0,
            sheets: vec![0],
            display: TransparencyDisplay::Separate,
        });
        obj.validate().unwrap();
    }

    #[test]
    fn dictated_voice_segment_has_pauses() {
        let seg = VoiceSegment::dictate(
            "one two three. four five six.\nsecond paragraph words.",
            &SpeakerProfile::CLEAR,
            11,
        );
        assert!(!seg.pauses.is_empty());
        assert!(seg.duration() > SimDuration::from_secs(2));
        assert!(seg.marks.available_levels().is_empty());
        let marked = seg.with_marks(&[LogicalLevel::Paragraph]);
        assert_eq!(marked.marks.available_levels(), vec![LogicalLevel::Paragraph]);
    }

    #[test]
    fn recognition_populates_utterances() {
        use minos_voice::recognize::RecognizerConfig;
        let recognizer = Recognizer::new(
            ["alpha"],
            RecognizerConfig { hit_rate: 1.0, false_alarm_rate: 0.0, seed: 0 },
        );
        let seg = VoiceSegment::dictate("alpha beta alpha.", &SpeakerProfile::CLEAR, 2)
            .with_recognition(&recognizer);
        assert_eq!(seg.utterances.len(), 2);
    }
}

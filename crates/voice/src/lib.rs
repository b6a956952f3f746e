//! Voice substrate for the MINOS reproduction.
//!
//! The paper treats voice as a first-class medium: "The information system
//! should provide symmetric capabilities for entering, presenting, and
//! browsing through voice or text" (§1). The original used voice
//! digitization/playback boards on a SUN-3; the reproduction substitutes a
//! *synthetic digitized-speech model* (see DESIGN.md): speech is generated
//! as sampled audio with a per-word energy envelope and speaker-dependent
//! silence gaps, together with a ground-truth transcript. Everything the
//! paper's voice browsing relies on — samples, silences, constant-length
//! audio pages, recognized utterances — is present and measurable.
//!
//! * [`pcm`] — sampled audio buffers and energy analysis;
//! * [`transcript`] — ground-truth word/sentence/paragraph timing, the
//!   synthetic stand-in for a human speaker;
//! * [`synth`] — speaker profiles and the digitized-speech generator;
//! * [`pause`] — the energy-based pause detector with the paper's adaptive
//!   short/long classification ("decided from the current context by
//!   sampling", §2);
//! * [`pages`] — audio pages: "consecutive partitions of the audio object
//!   part which are of approximately constant time length" (§2);
//! * [`playback`] — the playback state machine (interrupt, resume, resume
//!   from page start, rewind by short/long pauses, seek);
//! * [`marks`] — manually identified logical units over voice: the text
//!   substrate's [`minos_text::UnitIndex`] at the voice coordinate;
//! * [`recognize`] — the limited-vocabulary recognizer simulation used for
//!   content addressability;
//! * [`eval`] — ground-truth evaluation of pause detection and rewinds
//!   (experiment E2).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod eval;
pub mod marks;
pub mod pages;
pub mod pause;
pub mod pcm;
pub mod playback;
pub mod recognize;
pub mod synth;
pub mod transcript;

pub use marks::VoiceMarks;
pub use pages::AudioPages;
pub use pause::{DetectedPause, PauseDetector, PauseKind};
pub use pcm::AudioBuffer;
pub use playback::{PlaybackEngine, PlaybackState};
pub use recognize::{RecognizedUtterance, Recognizer, RecognizerConfig};
pub use synth::{synthesize, SpeakerProfile};
pub use transcript::{SpokenUnit, Transcript};

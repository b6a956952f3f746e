//! Shared vocabulary for the MINOS reproduction.
//!
//! Every other crate in the workspace builds on the small set of concepts
//! defined here: strongly-typed identifiers, integer screen geometry, a
//! discrete simulated clock (the reproduction's substitute for wall-clock
//! audio/disk/network hardware), byte/character/time spans, the common error
//! type, and the hand-rolled binary codec used by object descriptors.
//!
//! The crate is dependency-free so that substrates can be tested in
//! isolation.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod error;
pub mod geom;
pub mod id;
pub mod span;
pub mod time;

pub use codec::{varint_len, Decoder, Encoder};
pub use error::{MinosError, Result};
pub use geom::{bounding_box, polygon_contains, Point, Rect, Size};
pub use id::{DataFileId, ObjectId, PageNumber, PartIndex, SegmentId, VersionId};
pub use span::{ByteSpan, CharSpan, TimeSpan};
pub use time::{SimDuration, SimInstant};

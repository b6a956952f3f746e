//! The multimedia object server subsystem (§5).
//!
//! "Users submit queries based on object content from their workstation.
//! The queries are evaluated by the server subsystem against the multimedia
//! data base. … Miniatures of qualifying objects may be returned to the
//! user using a sequential browsing interface in order to facilitate
//! browsing through a large number of objects that may qualify." (§5)
//!
//! * [`index`] — the inverted index over text words, recognized voice
//!   utterances and image-label text (one access method for all media —
//!   the paper's "same access methods as in text");
//! * [`server`] — the object server: archiver-backed storage, query
//!   evaluation, miniature service, and the view service that ships only a
//!   window's bytes.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod index;
pub mod server;
pub mod service;

pub use index::InvertedIndex;
pub use server::{ObjectServer, PublishReceipt};
pub use service::{ServiceConfig, ServiceStats};

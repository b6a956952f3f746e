//! Text substrate for the MINOS reproduction.
//!
//! MINOS "supports text presentation facilities similar to those that are
//! provided by text formatters" (§2): character fonts, letter sizes,
//! paragraphing, indenting, and a logical subdivision of every text segment
//! into title, abstract, chapters, sections, paragraphs, sentences and
//! words. This crate provides:
//!
//! * [`markup`] — the declarative tag language users write (`.ch`, `.se`,
//!   `.pp`, inline emphasis), in the spirit of the paper's "tags that the
//!   user inserts in order to format the text";
//! * [`document`] — the parsed document: a canonical character stream,
//!   style runs, layout blocks, and figure anchors;
//! * [`logical`] — the logical structure tree, and the unit index over any
//!   ordered coordinate that text and voice both navigate by
//!   (next/previous chapter, section, paragraph, sentence, word);
//! * [`font`] — deterministic font metrics for the simulated workstation
//!   display;
//! * [`layout`] — line breaking and justification;
//! * [`paginate`] — assembly of laid-out lines into *visual pages*, the
//!   paper's unit of text presentation;
//! * [`search`] — pattern-match browsing support (Boyer–Moore–Horspool over
//!   the canonical stream plus a word index).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod document;
pub mod font;
pub mod layout;
pub mod logical;
pub mod markup;
pub mod paginate;
pub mod search;

pub use document::{Block, Document, DocumentBuilder, FigureRef, Style, StyleRun};
pub use font::{Emphasis, FontFamily, FontMetrics, FontSpec};
pub use layout::{LaidBlock, Line, PlacedRun};
pub use logical::{LogicalLevel, LogicalTree, UnitIndex};
pub use markup::parse_markup;
pub use paginate::{PageElement, PaginateConfig, PresentationForm, VisualPage};
pub use search::{PatternSearcher, WordIndex};

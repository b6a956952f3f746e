//! Office-document text generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The word pool: enough distinct words for interesting indexes and
/// pattern-search targets, biased toward the paper's own vocabulary.
pub const WORDS: &[&str] = &[
    "multimedia",
    "object",
    "presentation",
    "manager",
    "browsing",
    "voice",
    "text",
    "image",
    "workstation",
    "optical",
    "disk",
    "archive",
    "server",
    "page",
    "chapter",
    "section",
    "paragraph",
    "sentence",
    "word",
    "pattern",
    "menu",
    "option",
    "screen",
    "bitmap",
    "graphics",
    "label",
    "view",
    "tour",
    "transparency",
    "overwrite",
    "miniature",
    "descriptor",
    "synthesis",
    "composition",
    "attribute",
    "segment",
    "pause",
    "recognition",
    "symmetric",
    "driving",
    "mode",
    "relevant",
    "indicator",
    "message",
    "logical",
    "doctor",
    "patient",
    "x-ray",
    "shadow",
    "hospital",
    "report",
    "office",
    "document",
    "system",
    "information",
    "bandwidth",
    "communication",
    "storage",
    "retrieval",
    "query",
    "content",
    "keyword",
    "index",
];

/// A deterministic pseudo-sentence of `len` words ending with a period.
pub fn sentence(rng: &mut StdRng, len: usize) -> String {
    let mut out = String::new();
    for i in 0..len.max(1) {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
    }
    out.push('.');
    out
}

/// A paragraph of `sentences` sentences.
pub fn paragraph(rng: &mut StdRng, sentences: usize) -> String {
    (0..sentences.max(1))
        .map(|_| {
            let len = rng.gen_range(6..14);
            sentence(rng, len)
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Generates a full office document in MINOS markup: title, abstract,
/// `chapters` chapters of `sections_per` sections with
/// `paragraphs_per` paragraphs each, and references.
pub fn office_markup(
    seed: u64,
    chapters: usize,
    sections_per: usize,
    paragraphs_per: usize,
) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::new();
    out.push_str(&format!(".ti Report number {} on multimedia presentation\n", seed % 1000));
    out.push_str(".ab\n");
    out.push_str(&paragraph(&mut rng, 2));
    out.push('\n');
    for c in 0..chapters.max(1) {
        out.push_str(&format!(".ch Chapter {} {}\n", c + 1, WORDS[c % WORDS.len()]));
        out.push_str(&paragraph(&mut rng, 2));
        out.push('\n');
        for s in 0..sections_per {
            out.push_str(&format!(".se Section {}.{}\n", c + 1, s + 1));
            for _ in 0..paragraphs_per.max(1) {
                out.push_str(".pp\n");
                let n_sentences = rng.gen_range(2..5);
                out.push_str(&paragraph(&mut rng, n_sentences));
                out.push('\n');
            }
        }
    }
    out.push_str(".rf\n[Christodoulakis 85] Issues in the architecture of a document archiver.\n");
    out
}

/// Parses a generated office document straight into a [`minos_text::Document`].
pub fn office_document_text(seed: u64, chapters: usize) -> minos_text::Document {
    minos_text::parse_markup(&office_markup(seed, chapters, 2, 3)).expect("generated markup parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_text::LogicalLevel;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(office_markup(7, 3, 2, 2), office_markup(7, 3, 2, 2));
        assert_ne!(office_markup(7, 3, 2, 2), office_markup(8, 3, 2, 2));
    }

    #[test]
    fn generated_markup_parses_with_requested_structure() {
        let doc = office_document_text(3, 4);
        let tree = doc.tree();
        assert_eq!(tree.chapters.len(), 4);
        assert!(tree.title.is_some());
        assert!(tree.abstract_span.is_some());
        assert!(tree.references.is_some());
        assert_eq!(tree.chapters[0].sections.len(), 2);
        assert!(tree.units().count(LogicalLevel::Paragraph) >= 4 * 2 * 3);
    }

    #[test]
    fn size_scales_with_parameters() {
        let small = office_markup(1, 1, 1, 1).len();
        let large = office_markup(1, 8, 3, 5).len();
        assert!(large > small * 5);
    }

    #[test]
    fn sentences_end_with_periods() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = sentence(&mut rng, 8);
        assert!(s.ends_with('.'));
        assert_eq!(s.split_whitespace().count(), 8);
    }
}

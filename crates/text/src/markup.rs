//! The declarative markup language.
//!
//! Objects "generated interactively in a given environment" carry "tags that
//! the user inserts in order to format the text" (§2), and the object
//! formatter is "declarative … emphasiz\[ing\] more the logical structure of
//! the object instead of how to do the formatting" (§4). This module defines
//! that tag language for the reproduction: a line-oriented format in the
//! tradition of the formatters the paper cites (Scribe, troff, TeX).
//!
//! # Grammar
//!
//! Directive lines start with `.` in column one:
//!
//! | Directive | Meaning |
//! |---|---|
//! | `.ti <text>`        | document title |
//! | `.ab`               | begin abstract |
//! | `.ch <text>`        | begin chapter |
//! | `.se <text>`        | begin section |
//! | `.pp`               | begin a new paragraph |
//! | `.rf`               | begin references |
//! | `.fig <tag> <w> <h> [caption…]` | anchor an image data file |
//! | `.ft <family>`      | switch font family (`roman`, `bold`, `italic`, `typewriter`) |
//! | `.sz <points>`      | switch font size |
//! | `.in <pixels>`      | set paragraph first-line indent |
//!
//! Any other line is paragraph text. Inline emphasis toggles: `*…*` bold,
//! `_…_` underline, `~…~` tilted (italic). A literal `*`, `_`, `~` or
//! leading `.` is escaped with a backslash. Blank lines end the current
//! paragraph (equivalent to `.pp`).

use crate::document::{Document, DocumentBuilder, FigureRef};
use crate::font::{Emphasis, FontFamily, FontSpec};
use minos_types::{MinosError, Result, Size};

/// Parses markup source into a [`Document`].
pub fn parse_markup(source: &str) -> Result<Document> {
    let mut b = DocumentBuilder::new();
    for (lineno0, raw_line) in source.lines().enumerate() {
        let lineno = lineno0 as u32 + 1;
        let line = raw_line.trim_end();
        if let Some(rest) = directive(line) {
            apply_directive(&mut b, rest, lineno)?;
        } else if line.trim().is_empty() {
            b.end_paragraph();
        } else {
            push_inline_text(&mut b, line, lineno)?;
            b.soft_break();
        }
    }
    // Unbalanced emphasis at end of input is an error: silent imbalance
    // would silently restyle the rest of any appended text.
    if !b.emphasis().is_none() {
        return Err(MinosError::parse(
            source.lines().count() as u32,
            "unclosed inline emphasis at end of input",
        ));
    }
    Ok(b.finish())
}

/// Returns the directive body if `line` is a directive (starts with an
/// unescaped `.`).
fn directive(line: &str) -> Option<&str> {
    let stripped = line.strip_prefix('.')?;
    Some(stripped)
}

fn apply_directive(b: &mut DocumentBuilder, body: &str, lineno: u32) -> Result<()> {
    let mut parts = body.splitn(2, char::is_whitespace);
    let name = parts.next().unwrap_or("");
    let arg = parts.next().unwrap_or("").trim();
    match name {
        "ti" => {
            if arg.is_empty() {
                return Err(MinosError::parse(lineno, ".ti requires title text"));
            }
            b.title(arg);
        }
        "ab" => b.begin_abstract(),
        "ch" => {
            if arg.is_empty() {
                return Err(MinosError::parse(lineno, ".ch requires a heading"));
            }
            b.begin_chapter(arg);
        }
        "se" => {
            if arg.is_empty() {
                return Err(MinosError::parse(lineno, ".se requires a heading"));
            }
            b.begin_section(arg);
        }
        "pp" => b.end_paragraph(),
        "rf" => b.begin_references(),
        "fig" => {
            let mut words = arg.split_whitespace();
            let tag = words
                .next()
                .ok_or_else(|| MinosError::parse(lineno, ".fig requires a data-file tag"))?;
            let w: u32 = words
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| MinosError::parse(lineno, ".fig requires a width"))?;
            let h: u32 = words
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| MinosError::parse(lineno, ".fig requires a height"))?;
            if w == 0 || h == 0 {
                return Err(MinosError::parse(lineno, ".fig dimensions must be positive"));
            }
            let caption: String = words.collect::<Vec<_>>().join(" ");
            b.figure(FigureRef {
                tag: tag.to_string(),
                size: Size::new(w, h),
                caption: (!caption.is_empty()).then_some(caption),
            });
        }
        "ft" => {
            let family = FontFamily::parse(arg)
                .ok_or_else(|| MinosError::parse(lineno, format!("unknown font family {arg:?}")))?;
            let size = b.font().size;
            b.set_font(FontSpec::new(family, size));
        }
        "sz" => {
            let size: u8 = arg
                .parse()
                .ok()
                .filter(|&s| (4..=72).contains(&s))
                .ok_or_else(|| MinosError::parse(lineno, "size must be 4..=72 points"))?;
            let family = b.font().family;
            b.set_font(FontSpec::new(family, size));
        }
        "in" => {
            let indent: u32 = arg
                .parse()
                .map_err(|_| MinosError::parse(lineno, "indent must be a pixel count"))?;
            b.set_indent(indent);
        }
        other => {
            return Err(MinosError::parse(lineno, format!("unknown directive .{other}")));
        }
    }
    Ok(())
}

/// Pushes one source line of paragraph text, interpreting inline emphasis
/// markers and backslash escapes.
fn push_inline_text(b: &mut DocumentBuilder, line: &str, lineno: u32) -> Result<()> {
    let mut buf = String::new();
    let mut chars = line.chars();
    while let Some(ch) = chars.next() {
        match ch {
            '\\' => match chars.next() {
                Some(escaped) => buf.push(escaped),
                None => return Err(MinosError::parse(lineno, "dangling backslash at end of line")),
            },
            '*' | '_' | '~' => {
                if !buf.is_empty() {
                    b.text(&buf);
                    buf.clear();
                }
                let e = match ch {
                    '*' => Emphasis::BOLD,
                    '_' => Emphasis::UNDERLINE,
                    _ => Emphasis::ITALIC,
                };
                b.toggle_emphasis(e);
            }
            _ => buf.push(ch),
        }
    }
    if !buf.is_empty() {
        b.text(&buf);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Block;
    use crate::font::FontFamily;
    use crate::logical::LogicalLevel;
    use minos_types::MinosError;

    const SAMPLE: &str = "\
.ti Multimedia Presentation in MINOS
.ab
We describe the presentation manager.
It treats text and voice *symmetrically*.
.ch Introduction
Workstations appeared in the market.
Optical disks become reality.
.se Voice
Voice will be a very important way of communication.
.fig fig1 200 120 A visual page
.ch Conclusions
The manager treats media symmetrically.
.rf
[Knuth 79] TEX: A System for Technical Text.
";

    #[test]
    fn parses_full_structure() {
        let doc = parse_markup(SAMPLE).unwrap();
        let tree = doc.tree();
        assert!(tree.title.is_some());
        assert!(tree.abstract_span.is_some());
        assert!(tree.references.is_some());
        assert_eq!(tree.chapters.len(), 2);
        assert_eq!(tree.chapters[0].sections.len(), 1);
        assert_eq!(doc.figures().len(), 1);
        assert_eq!(doc.figures()[0].caption.as_deref(), Some("A visual page"));
    }

    #[test]
    fn lines_of_same_paragraph_are_joined() {
        let doc = parse_markup(SAMPLE).unwrap();
        let text = doc.text();
        assert!(text.contains("Workstations appeared in the market. Optical disks become reality."));
    }

    #[test]
    fn blank_line_splits_paragraphs() {
        let doc = parse_markup("one one\n\ntwo two\n").unwrap();
        assert_eq!(doc.tree().units().count(LogicalLevel::Paragraph), 2);
    }

    #[test]
    fn pp_splits_paragraphs() {
        let doc = parse_markup("one one\n.pp\ntwo two\n").unwrap();
        assert_eq!(doc.tree().units().count(LogicalLevel::Paragraph), 2);
    }

    #[test]
    fn inline_emphasis_is_applied() {
        let doc = parse_markup("plain *bold* _under_ ~tilt~ done\n").unwrap();
        let text = doc.text();
        assert_eq!(text, "plain bold under tilt done\n");
        let at = |needle: &str| text.find(needle).unwrap() as u32;
        assert!(doc.style_at(at("bold")).emphasis.contains(Emphasis::BOLD));
        assert!(doc.style_at(at("under")).emphasis.contains(Emphasis::UNDERLINE));
        assert!(doc.style_at(at("tilt")).emphasis.contains(Emphasis::ITALIC));
        assert!(doc.style_at(at("done")).emphasis.is_none());
    }

    #[test]
    fn escapes_produce_literals() {
        let doc = parse_markup("a \\*star\\* and \\.dot\n").unwrap();
        assert_eq!(doc.text(), "a *star* and .dot\n");
    }

    #[test]
    fn escaped_leading_dot_is_text() {
        let doc = parse_markup("\\.pp is a directive name\n").unwrap();
        assert!(doc.text().starts_with(".pp is"));
        assert_eq!(doc.tree().units().count(LogicalLevel::Paragraph), 1);
    }

    #[test]
    fn font_directives_change_style() {
        let doc = parse_markup(".ft typewriter\n.sz 10\nverbatim text\n").unwrap();
        let style = doc.style_at(0);
        assert_eq!(style.font.family, FontFamily::Typewriter);
        assert_eq!(style.font.size, 10);
    }

    #[test]
    fn indent_applies_to_paragraph_blocks() {
        let doc = parse_markup(".in 24\nindented paragraph\n").unwrap();
        match &doc.blocks()[0] {
            Block::Paragraph { indent, .. } => assert_eq!(*indent, 24),
            other => panic!("expected paragraph, got {other:?}"),
        }
    }

    #[test]
    fn unknown_directive_is_an_error() {
        let err = parse_markup("hello\n.zz what\n").unwrap_err();
        assert_eq!(err, MinosError::parse(2, "unknown directive .zz"));
    }

    #[test]
    fn missing_heading_is_an_error() {
        assert!(matches!(parse_markup(".ch\n"), Err(MinosError::Parse { line: 1, .. })));
        assert!(matches!(parse_markup(".se  \n"), Err(MinosError::Parse { line: 1, .. })));
    }

    #[test]
    fn bad_fig_arguments_are_errors() {
        assert!(parse_markup(".fig\n").is_err());
        assert!(parse_markup(".fig t\n").is_err());
        assert!(parse_markup(".fig t 10\n").is_err());
        assert!(parse_markup(".fig t 0 10\n").is_err());
        assert!(parse_markup(".fig t 10 10\n").is_ok());
    }

    #[test]
    fn bad_size_is_an_error() {
        assert!(parse_markup(".sz 3\n").is_err());
        assert!(parse_markup(".sz 80\n").is_err());
        assert!(parse_markup(".sz twelve\n").is_err());
    }

    #[test]
    fn unclosed_emphasis_is_an_error() {
        let err = parse_markup("oops *bold forever\n").unwrap_err();
        assert!(matches!(err, MinosError::Parse { .. }));
    }

    #[test]
    fn dangling_backslash_is_an_error() {
        assert!(parse_markup("line ends badly \\\n").is_err());
    }

    #[test]
    fn empty_input_is_an_empty_document() {
        let doc = parse_markup("").unwrap();
        assert!(doc.is_empty());
        assert!(doc.tree().units().available_levels().is_empty());
    }

    #[test]
    fn emphasis_spanning_lines_within_paragraph() {
        let doc = parse_markup("start *bold\nstill bold* end\n").unwrap();
        let text = doc.text();
        let at = |needle: &str| text.find(needle).unwrap() as u32;
        assert!(doc.style_at(at("still")).emphasis.contains(Emphasis::BOLD));
        assert!(doc.style_at(at("end")).emphasis.is_none());
    }
}

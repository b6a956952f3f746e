//! The parsed document model.
//!
//! A [`Document`] is the crate's central data structure: the canonical
//! character stream of a text segment, the style runs over it, the ordered
//! layout blocks (headings, paragraphs, figure anchors) the paginator
//! consumes, and the logical structure tree used for logical browsing.
//!
//! Positions are character offsets into the canonical stream. The same
//! offsets are used by style runs, the logical tree, pattern search results,
//! logical-message anchors and relevances — which is what lets the
//! presentation manager move between all of those representations.

use crate::font::{Emphasis, FontSpec};
use crate::logical::{Chapter, LogicalTree, Section};
use minos_types::{CharSpan, Size};

/// Character style: the concrete font plus inline emphasis.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Style {
    /// Base font before emphasis is applied.
    pub font: FontSpec,
    /// Inline emphasis flags.
    pub emphasis: Emphasis,
}

impl Style {
    /// The font to measure/render with, after emphasis is applied.
    pub fn effective_font(self) -> FontSpec {
        self.font.with_emphasis(self.emphasis)
    }

    /// Whether the renderer should draw an underline.
    pub fn underlined(self) -> bool {
        self.emphasis.contains(Emphasis::UNDERLINE)
    }
}

/// A maximal run of characters sharing one style.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StyleRun {
    /// Characters covered.
    pub span: CharSpan,
    /// Their style.
    pub style: Style,
}

/// A reference to image data embedded in the text flow.
///
/// In MINOS "text is intermixed with images in the same page" (§2). At the
/// text level a figure is an anchor: a tag naming a data file (resolved by
/// the object layer) and the pixel extent it will occupy on the page.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FigureRef {
    /// Tag naming the data file in the synthesis file (§4).
    pub tag: String,
    /// Pixel extent the figure occupies in the page flow.
    pub size: Size,
    /// Optional caption shown under the figure.
    pub caption: Option<String>,
}

/// One ordered element of the document's presentation flow.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Block {
    /// The object title.
    Title(CharSpan),
    /// A chapter (`level == 1`) or section (`level == 2`) heading.
    Heading {
        /// 1 for chapter, 2 for section.
        level: u8,
        /// Characters of the heading text.
        span: CharSpan,
    },
    /// A body paragraph.
    Paragraph {
        /// Characters of the paragraph.
        span: CharSpan,
        /// First-line indent in pixels.
        indent: u32,
    },
    /// An anchored figure; index into [`Document::figures`].
    Figure(usize),
}

impl Block {
    /// The characters this block covers, if any (figures cover none).
    pub fn span(&self) -> Option<CharSpan> {
        match self {
            Block::Title(s) => Some(*s),
            Block::Heading { span, .. } => Some(*span),
            Block::Paragraph { span, .. } => Some(*span),
            Block::Figure(_) => None,
        }
    }
}

/// A fully built text document.
#[derive(Clone, Debug, Default)]
pub struct Document {
    chars: Vec<char>,
    runs: Vec<StyleRun>,
    blocks: Vec<Block>,
    figures: Vec<FigureRef>,
    tree: LogicalTree,
}

impl Document {
    /// The canonical character stream.
    pub fn chars(&self) -> &[char] {
        &self.chars
    }

    /// Total length in characters.
    pub fn len(&self) -> u32 {
        self.chars.len() as u32
    }

    /// Whether the document is empty.
    pub fn is_empty(&self) -> bool {
        self.chars.is_empty()
    }

    /// The whole stream as a `String` (for display; search reads
    /// [`Document::chars`] in place).
    pub fn text(&self) -> String {
        self.chars.iter().collect()
    }

    /// The characters covered by `span` as a `String`.
    pub fn slice(&self, span: CharSpan) -> String {
        let start = (span.start as usize).min(self.chars.len());
        let end = (span.end as usize).min(self.chars.len());
        self.chars[start..end].iter().collect()
    }

    /// Style in effect at character `pos`. Positions past the end get the
    /// default style.
    pub fn style_at(&self, pos: u32) -> Style {
        match self.runs.binary_search_by(|r| {
            if pos < r.span.start {
                std::cmp::Ordering::Greater
            } else if pos >= r.span.end {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => self.runs[i].style,
            Err(_) => Style::default(),
        }
    }

    /// All style runs, in stream order.
    pub fn runs(&self) -> &[StyleRun] {
        &self.runs
    }

    /// Ordered layout blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Figure anchors.
    pub fn figures(&self) -> &[FigureRef] {
        &self.figures
    }

    /// The logical structure tree.
    pub fn tree(&self) -> &LogicalTree {
        &self.tree
    }
}

/// Incrementally constructs a [`Document`].
///
/// Used by the markup parser and directly by synthetic corpus generators.
/// The builder tracks the open chapter/section/abstract/references unit and
/// records logical spans as units close.
#[derive(Debug)]
pub struct DocumentBuilder {
    chars: Vec<char>,
    runs: Vec<StyleRun>,
    blocks: Vec<Block>,
    figures: Vec<FigureRef>,

    // Style state.
    font: FontSpec,
    emphasis: Emphasis,
    indent: u32,

    // Paragraph accumulation: normalized (char, style) pairs.
    para: Vec<(char, Style)>,

    // Logical structure accumulation.
    title: Option<CharSpan>,
    abstract_start: Option<u32>,
    abstract_span: Option<CharSpan>,
    references_start: Option<u32>,
    references_span: Option<CharSpan>,
    chapters: Vec<Chapter>,
    open_chapter: Option<(String, u32, Vec<Section>)>,
    open_section: Option<(String, u32)>,
    paragraphs: Vec<CharSpan>,
    sentences: Vec<CharSpan>,
    words: Vec<CharSpan>,
}

impl Default for DocumentBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DocumentBuilder {
    /// Creates an empty builder with the default body style.
    pub fn new() -> Self {
        DocumentBuilder {
            chars: Vec::new(),
            runs: Vec::new(),
            blocks: Vec::new(),
            figures: Vec::new(),
            font: FontSpec::BODY,
            emphasis: Emphasis::NONE,
            indent: 0,
            para: Vec::new(),
            title: None,
            abstract_start: None,
            abstract_span: None,
            references_start: None,
            references_span: None,
            chapters: Vec::new(),
            open_chapter: None,
            open_section: None,
            paragraphs: Vec::new(),
            sentences: Vec::new(),
            words: Vec::new(),
        }
    }

    fn pos(&self) -> u32 {
        self.chars.len() as u32
    }

    fn push_char(&mut self, ch: char, style: Style) {
        let at = self.pos();
        self.chars.push(ch);
        match self.runs.last_mut() {
            Some(last) if last.style == style && last.span.end == at => {
                last.span.end = at + 1;
            }
            _ => self.runs.push(StyleRun { span: CharSpan::at(at, 1), style }),
        }
    }

    /// Current base font.
    pub fn font(&self) -> FontSpec {
        self.font
    }

    /// Sets the base font family/size for subsequent text.
    pub fn set_font(&mut self, font: FontSpec) {
        self.font = font;
    }

    /// Sets the first-line indent (pixels) for subsequent paragraphs.
    pub fn set_indent(&mut self, indent: u32) {
        self.indent = indent;
    }

    /// Toggles emphasis flags (markup markers toggle on and off).
    pub fn toggle_emphasis(&mut self, e: Emphasis) {
        self.emphasis = self.emphasis.toggled(e);
    }

    /// Current emphasis flags.
    pub fn emphasis(&self) -> Emphasis {
        self.emphasis
    }

    /// Appends running text to the current paragraph. Whitespace is
    /// normalized at paragraph end; any whitespace separates words.
    pub fn text(&mut self, s: &str) {
        let style = Style { font: self.font, emphasis: self.emphasis };
        for ch in s.chars() {
            self.para.push((ch, style));
        }
    }

    /// Appends a single space worth of separation (used between source
    /// lines of the same paragraph).
    pub fn soft_break(&mut self) {
        let style = Style { font: self.font, emphasis: self.emphasis };
        self.para.push((' ', style));
    }

    /// Emits the accumulated words of `self.para` into the canonical
    /// stream, recording word and sentence spans. Returns the span of the
    /// emitted text (without the trailing newline), or `None` if the buffer
    /// held no words.
    fn flush_words(&mut self) -> Option<CharSpan> {
        // Group into words: maximal runs of non-whitespace.
        let mut emitted_start: Option<u32> = None;
        let mut sentence_start: Option<u32> = None;
        let mut i = 0;
        let para = std::mem::take(&mut self.para);
        while i < para.len() {
            // Skip whitespace.
            while i < para.len() && para[i].0.is_whitespace() {
                i += 1;
            }
            if i >= para.len() {
                break;
            }
            // Separate from previous word.
            if emitted_start.is_some() {
                let sep_style = para[i].1;
                self.push_char(' ', sep_style);
            }
            let word_start = self.pos();
            if emitted_start.is_none() {
                emitted_start = Some(word_start);
            }
            if sentence_start.is_none() {
                sentence_start = Some(word_start);
            }
            let mut last_ch = ' ';
            while i < para.len() && !para[i].0.is_whitespace() {
                let (ch, style) = para[i];
                self.push_char(ch, style);
                last_ch = ch;
                i += 1;
            }
            let word_end = self.pos();
            self.words.push(CharSpan::new(word_start, word_end));
            if matches!(last_ch, '.' | '!' | '?') {
                self.sentences.push(CharSpan::new(sentence_start.take().unwrap(), word_end));
            }
        }
        // Unterminated tail is still a sentence.
        if let Some(start) = sentence_start {
            self.sentences.push(CharSpan::new(start, self.pos()));
        }
        emitted_start.map(|s| CharSpan::new(s, self.pos()))
    }

    /// Closes the current paragraph, if it holds any words, recording a
    /// paragraph span and a layout block.
    pub fn end_paragraph(&mut self) {
        let indent = self.indent;
        if let Some(span) = self.flush_words() {
            let style = Style { font: self.font, emphasis: self.emphasis };
            self.push_char('\n', style);
            self.paragraphs.push(span);
            self.blocks.push(Block::Paragraph { span, indent });
        }
    }

    /// Sets the document title. Title text participates in the canonical
    /// stream so that pattern search can find it.
    pub fn title(&mut self, text: &str) {
        self.end_paragraph();
        let saved_font = self.font;
        self.font = FontSpec::new(crate::font::FontFamily::Bold, saved_font.size + 6);
        self.text(text);
        if let Some(span) = self.flush_words() {
            let style = Style { font: self.font, emphasis: self.emphasis };
            self.push_char('\n', style);
            self.title = Some(span);
            self.blocks.push(Block::Title(span));
        }
        self.font = saved_font;
    }

    fn close_section(&mut self) {
        if let Some((title, start)) = self.open_section.take() {
            let span = CharSpan::new(start, self.pos());
            if let Some((_, _, sections)) = self.open_chapter.as_mut() {
                sections.push(Section { title, span });
            }
        }
    }

    fn close_chapter(&mut self) {
        self.close_section();
        if let Some((title, start, sections)) = self.open_chapter.take() {
            let span = CharSpan::new(start, self.pos());
            self.chapters.push(Chapter { title, span, sections });
        }
    }

    fn close_abstract(&mut self) {
        if let Some(start) = self.abstract_start.take() {
            self.abstract_span = Some(CharSpan::new(start, self.pos()));
        }
    }

    fn close_references(&mut self) {
        if let Some(start) = self.references_start.take() {
            self.references_span = Some(CharSpan::new(start, self.pos()));
        }
    }

    /// Begins the abstract. Ends any open chapter.
    pub fn begin_abstract(&mut self) {
        self.end_paragraph();
        self.close_chapter();
        self.close_references();
        self.abstract_start = Some(self.pos());
    }

    /// Begins a new chapter with the given heading text.
    pub fn begin_chapter(&mut self, heading: &str) {
        self.end_paragraph();
        self.close_chapter();
        self.close_abstract();
        self.close_references();
        let start = self.pos();
        self.emit_heading(heading, 1);
        self.open_chapter = Some((heading.to_string(), start, Vec::new()));
    }

    /// Begins a new section within the open chapter.
    pub fn begin_section(&mut self, heading: &str) {
        self.end_paragraph();
        self.close_section();
        let start = self.pos();
        self.emit_heading(heading, 2);
        self.open_section = Some((heading.to_string(), start));
    }

    /// Begins the references unit.
    pub fn begin_references(&mut self) {
        self.end_paragraph();
        self.close_chapter();
        self.close_abstract();
        self.references_start = Some(self.pos());
    }

    fn emit_heading(&mut self, text: &str, level: u8) {
        let saved_font = self.font;
        let bump = if level == 1 { 4 } else { 2 };
        self.font = FontSpec::new(crate::font::FontFamily::Bold, saved_font.size + bump);
        self.text(text);
        if let Some(span) = self.flush_words() {
            let style = Style { font: self.font, emphasis: self.emphasis };
            self.push_char('\n', style);
            self.blocks.push(Block::Heading { level, span });
        }
        self.font = saved_font;
    }

    /// Anchors a figure at the current position in the flow. Closes the
    /// current paragraph first: figures sit between paragraphs, as in the
    /// paper's visual pages.
    pub fn figure(&mut self, fig: FigureRef) {
        self.end_paragraph();
        let idx = self.figures.len();
        self.figures.push(fig);
        self.blocks.push(Block::Figure(idx));
    }

    /// Finishes the document, closing all open units.
    pub fn finish(mut self) -> Document {
        self.end_paragraph();
        self.close_chapter();
        self.close_abstract();
        self.close_references();
        let tree = LogicalTree::new(
            self.title,
            self.abstract_span,
            self.references_span,
            self.chapters,
            self.paragraphs,
            self.sentences,
            self.words,
        );
        Document {
            chars: self.chars,
            runs: self.runs,
            blocks: self.blocks,
            figures: self.figures,
            tree,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::font::FontFamily;

    fn simple_doc() -> Document {
        let mut b = DocumentBuilder::new();
        b.title("The MINOS System");
        b.begin_abstract();
        b.text("We present MINOS. It is symmetric.");
        b.end_paragraph();
        b.begin_chapter("Introduction");
        b.text("Workstations appeared in the market. They are powerful.");
        b.end_paragraph();
        b.begin_section("Motivation");
        b.text("Voice matters! Does text?");
        b.end_paragraph();
        b.begin_chapter("Conclusions");
        b.text("The end.");
        b.end_paragraph();
        b.finish()
    }

    #[test]
    fn stream_is_normalized() {
        let doc = simple_doc();
        let text = doc.text();
        assert!(text.starts_with("The MINOS System\n"));
        assert!(text.contains("We present MINOS. It is symmetric.\n"));
        // No double spaces anywhere after normalization.
        assert!(!text.contains("  "));
    }

    #[test]
    fn whitespace_is_collapsed() {
        let mut b = DocumentBuilder::new();
        b.text("a   b\t\tc");
        b.soft_break();
        b.text("   d");
        b.end_paragraph();
        let doc = b.finish();
        assert_eq!(doc.text(), "a b c d\n");
        assert_eq!(doc.tree().words.len(), 4);
    }

    #[test]
    fn empty_paragraphs_are_dropped() {
        let mut b = DocumentBuilder::new();
        b.end_paragraph();
        b.text("   ");
        b.end_paragraph();
        b.text("real");
        b.end_paragraph();
        let doc = b.finish();
        assert_eq!(doc.tree().paragraphs.len(), 1);
        assert_eq!(doc.blocks().len(), 1);
    }

    #[test]
    fn word_spans_match_slices() {
        let doc = simple_doc();
        for w in &doc.tree().words {
            let s = doc.slice(*w);
            assert!(!s.is_empty());
            assert!(!s.contains(' '), "word {s:?} contains space");
        }
    }

    #[test]
    fn sentence_boundaries() {
        let doc = simple_doc();
        let sentences: Vec<String> = doc.tree().sentences.iter().map(|s| doc.slice(*s)).collect();
        assert!(sentences.contains(&"We present MINOS.".to_string()));
        assert!(sentences.contains(&"It is symmetric.".to_string()));
        assert!(sentences.contains(&"Voice matters!".to_string()));
        assert!(sentences.contains(&"Does text?".to_string()));
    }

    #[test]
    fn headings_are_single_sentences() {
        let doc = simple_doc();
        let sentences: Vec<String> = doc.tree().sentences.iter().map(|s| doc.slice(*s)).collect();
        assert!(sentences.contains(&"Introduction".to_string()));
    }

    #[test]
    fn chapter_and_section_structure() {
        let doc = simple_doc();
        let tree = doc.tree();
        assert_eq!(tree.chapters.len(), 2);
        assert_eq!(tree.chapters[0].title, "Introduction");
        assert_eq!(tree.chapters[0].sections.len(), 1);
        assert_eq!(tree.chapters[0].sections[0].title, "Motivation");
        assert_eq!(tree.chapters[1].sections.len(), 0);
        // Chapter spans cover their section content.
        let ch = &tree.chapters[0];
        assert!(ch.span.contains_span(&ch.sections[0].span));
        // Chapters do not overlap.
        assert!(!tree.chapters[0].span.overlaps(&tree.chapters[1].span));
    }

    #[test]
    fn abstract_span_covers_its_paragraph() {
        let doc = simple_doc();
        let abs = doc.tree().abstract_span.expect("abstract");
        let text = doc.slice(abs);
        assert!(text.contains("We present MINOS."));
        assert!(!text.contains("Workstations"));
    }

    #[test]
    fn title_is_recorded_and_styled() {
        let doc = simple_doc();
        let title = doc.tree().title.expect("title");
        assert_eq!(doc.slice(title), "The MINOS System");
        let style = doc.style_at(title.start);
        assert_eq!(style.font.family, FontFamily::Bold);
        assert_eq!(style.font.size, 18);
    }

    #[test]
    fn style_runs_cover_stream_without_gaps() {
        let doc = simple_doc();
        let mut pos = 0;
        for run in doc.runs() {
            assert_eq!(run.span.start, pos, "gap before run");
            pos = run.span.end;
        }
        assert_eq!(pos, doc.len());
    }

    #[test]
    fn adjacent_same_style_runs_merge() {
        let mut b = DocumentBuilder::new();
        b.text("one ");
        b.text("two");
        b.end_paragraph();
        let doc = b.finish();
        assert_eq!(doc.runs().len(), 1);
    }

    #[test]
    fn emphasis_toggles_create_runs() {
        let mut b = DocumentBuilder::new();
        b.text("plain ");
        b.toggle_emphasis(Emphasis::BOLD);
        b.text("bold");
        b.toggle_emphasis(Emphasis::BOLD);
        b.text(" plain");
        b.end_paragraph();
        let doc = b.finish();
        assert_eq!(doc.text(), "plain bold plain\n");
        let bold_pos = doc.text().find("bold").unwrap() as u32;
        assert!(doc.style_at(bold_pos).emphasis.contains(Emphasis::BOLD));
        assert!(doc.style_at(0).emphasis.is_none());
        assert!(doc.style_at(bold_pos).effective_font().family == FontFamily::Bold);
    }

    #[test]
    fn figures_anchor_between_paragraphs() {
        let mut b = DocumentBuilder::new();
        b.text("before");
        b.figure(FigureRef { tag: "xray".into(), size: Size::new(100, 80), caption: None });
        b.text("after");
        b.end_paragraph();
        let doc = b.finish();
        assert_eq!(doc.figures().len(), 1);
        assert_eq!(doc.figures()[0].tag, "xray");
        // Order: paragraph("before"), figure, paragraph("after").
        assert!(matches!(doc.blocks()[0], Block::Paragraph { .. }));
        assert!(matches!(doc.blocks()[1], Block::Figure(0)));
        assert!(matches!(doc.blocks()[2], Block::Paragraph { .. }));
    }

    #[test]
    fn style_at_past_end_is_default() {
        let doc = simple_doc();
        assert_eq!(doc.style_at(doc.len() + 100), Style::default());
    }

    #[test]
    fn references_unit() {
        let mut b = DocumentBuilder::new();
        b.begin_chapter("Body");
        b.text("Content.");
        b.end_paragraph();
        b.begin_references();
        b.text("[Knuth 79] TEX.");
        b.end_paragraph();
        let doc = b.finish();
        let refs = doc.tree().references.expect("references");
        assert!(doc.slice(refs).contains("[Knuth 79]"));
        // Chapter closed before references start.
        assert!(doc.tree().chapters[0].span.end <= refs.start);
    }

    #[test]
    fn block_spans_are_ordered_and_disjoint() {
        let doc = simple_doc();
        let mut prev_end = 0;
        for block in doc.blocks() {
            if let Some(span) = block.span() {
                assert!(span.start >= prev_end);
                prev_end = span.end;
            }
        }
    }
}

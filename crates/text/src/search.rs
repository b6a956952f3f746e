//! Pattern-match browsing support.
//!
//! "A user types a text pattern … and the system returns the next page with
//! the occurrence of this pattern in the object's text" (§2). The searcher
//! here finds occurrences in the canonical character stream; the
//! presentation layer maps them to pages via
//! [`crate::paginate::PresentationForm::page_containing`].
//!
//! Two engines are provided: a Boyer–Moore–Horspool searcher (the access
//! method proper) and a naive scan kept as the baseline for experiment E10.
//! A [`WordIndex`] over the document's words provides the word-granularity
//! content addressability that recognized voice utterances also use
//! (`minos-server` builds its inverted index from the same tokenization).

use crate::document::Document;
use std::collections::HashMap;

/// Characters the shift table indexes directly: ASCII, which is every
/// character of the reproduction's corpora.
const TABLE: usize = 128;

/// Folds one character for case-insensitive matching: ASCII by
/// `to_ascii_lowercase`, anything else by the first character of its
/// lowercase form. Pattern and haystack fold by this one rule, so a
/// pattern always finds its own text, even one whose lowercase form
/// expands (`İ` lowercases to `i` plus a combining dot).
fn fold(c: char) -> char {
    if c.is_ascii() {
        c.to_ascii_lowercase()
    } else {
        c.to_lowercase().next().unwrap_or(c)
    }
}

/// A compiled pattern for repeated searches over character streams.
#[derive(Clone, Debug)]
pub struct PatternSearcher {
    pattern: Vec<char>,
    /// Horspool shift table for an ASCII window-last character `c`: the
    /// distance to shift when the window ends in `c`. A character absent
    /// from the pattern shifts by the full pattern length; a non-ASCII one
    /// takes its shift from a scan of the pattern ([`Self::shift`]).
    skip: [usize; TABLE],
    case_insensitive: bool,
}

impl PatternSearcher {
    /// Compiles a case-insensitive searcher (the browsing default: users
    /// type patterns, capitalization in the object shouldn't hide hits).
    pub fn new(pattern: &str) -> Self {
        Self::with_case(pattern, false)
    }

    /// Compiles a searcher; `case_sensitive` controls matching.
    pub fn with_case(pattern: &str, case_sensitive: bool) -> Self {
        let pattern: Vec<char> = if case_sensitive {
            pattern.chars().collect()
        } else {
            pattern.chars().map(fold).collect()
        };
        let m = pattern.len();
        let mut skip = [m; TABLE];
        if m > 0 {
            for (i, &c) in pattern[..m - 1].iter().enumerate() {
                if c.is_ascii() {
                    skip[c as usize] = m - 1 - i;
                }
            }
        }
        PatternSearcher { pattern, skip, case_insensitive: !case_sensitive }
    }

    /// Pattern length in characters.
    pub fn len(&self) -> usize {
        self.pattern.len()
    }

    /// Whether the pattern is empty (matches nowhere).
    pub fn is_empty(&self) -> bool {
        self.pattern.is_empty()
    }

    fn normalize(&self, c: char) -> char {
        if self.case_insensitive {
            fold(c)
        } else {
            c
        }
    }

    /// The Horspool shift for a window ending in `last`: from the table
    /// for ASCII, else from the last occurrence of `last` in the pattern
    /// before its final character (patterns are a few characters long).
    fn shift(&self, last: char) -> usize {
        if last.is_ascii() {
            return self.skip[last as usize];
        }
        let m = self.pattern.len();
        self.pattern[..m - 1].iter().rposition(|&c| c == last).map_or(m, |i| m - 1 - i)
    }

    /// Finds the first occurrence at or after `from` (character offset).
    pub fn find_next(&self, haystack: &[char], from: u32) -> Option<u32> {
        let m = self.pattern.len();
        let n = haystack.len();
        if m == 0 || n < m {
            return None;
        }
        let mut i = from as usize;
        while i + m <= n {
            let last = self.normalize(haystack[i + m - 1]);
            if last == self.pattern[m - 1] {
                let mut j = 0;
                while j + 1 < m && self.normalize(haystack[i + j]) == self.pattern[j] {
                    j += 1;
                }
                if j + 1 == m {
                    return Some(i as u32);
                }
            }
            i += self.shift(last);
        }
        None
    }

    /// Finds the last occurrence strictly before `before`.
    pub fn find_prev(&self, haystack: &[char], before: u32) -> Option<u32> {
        // Occurrences are sparse in browsing workloads; a forward scan
        // collecting the last hit before the bound is simple and adequate.
        let mut found = None;
        let mut from = 0;
        while let Some(hit) = self.find_next(haystack, from) {
            if hit >= before {
                break;
            }
            found = Some(hit);
            from = hit + 1;
        }
        found
    }

    /// All occurrences, in order.
    pub fn find_all(&self, haystack: &[char]) -> Vec<u32> {
        let mut hits = Vec::new();
        let mut from = 0;
        while let Some(hit) = self.find_next(haystack, from) {
            hits.push(hit);
            from = hit + 1;
        }
        hits
    }
}

/// Naive character-by-character search, the baseline for experiment E10.
/// It folds case by the same rule as [`PatternSearcher::new`].
pub fn naive_find_next(haystack: &[char], pattern: &str, from: u32) -> Option<u32> {
    let pat: Vec<char> = pattern.chars().map(fold).collect();
    let m = pat.len();
    let n = haystack.len();
    if m == 0 || n < m {
        return None;
    }
    'outer: for i in from as usize..=(n - m) {
        for j in 0..m {
            if fold(haystack[i + j]) != pat[j] {
                continue 'outer;
            }
        }
        return Some(i as u32);
    }
    None
}

/// Word-granularity index over a document.
///
/// Maps each lowercased word to the character offsets where it starts.
/// This is the same structure the server's inverted index uses per object,
/// and the structure recognized voice utterances are merged into for
/// symmetric voice pattern browsing (§2: "The recognized voice segments are
/// used to provide content addressibility and browsing by using the same
/// access methods as in text").
#[derive(Clone, Debug, Default)]
pub struct WordIndex {
    map: HashMap<String, Vec<u32>>,
    word_count: usize,
}

impl WordIndex {
    /// Builds the index from a document's word spans.
    pub fn build(doc: &Document) -> Self {
        let mut map: HashMap<String, Vec<u32>> = HashMap::new();
        let mut word_count = 0;
        for span in &doc.tree().words {
            let word = normalize_word(&doc.slice(*span));
            if word.is_empty() {
                continue;
            }
            word_count += 1;
            map.entry(word).or_default().push(span.start);
        }
        WordIndex { map, word_count }
    }

    /// Offsets at which `word` starts (normalized), in document order.
    pub fn positions(&self, word: &str) -> &[u32] {
        self.map.get(&normalize_word(word)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// First occurrence of `word` at or after `from`.
    pub fn next_occurrence(&self, word: &str, from: u32) -> Option<u32> {
        let positions = self.positions(word);
        let idx = positions.partition_point(|&p| p < from);
        positions.get(idx).copied()
    }

    /// Number of distinct words.
    pub fn vocabulary_size(&self) -> usize {
        self.map.len()
    }

    /// Total number of indexed word occurrences.
    pub fn word_count(&self) -> usize {
        self.word_count
    }

    /// Iterates over (word, positions) pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[u32])> {
        self.map.iter().map(|(w, p)| (w.as_str(), p.as_slice()))
    }
}

/// Lowercases and strips leading/trailing punctuation, the tokenizer shared
/// by the word index and the server's inverted index.
pub fn normalize_word(word: &str) -> String {
    word.trim_matches(|c: char| !c.is_alphanumeric()).to_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::DocumentBuilder;
    use proptest::prelude::*;

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    #[test]
    fn finds_all_occurrences() {
        let hay = chars("the voice and the text and the image");
        let s = PatternSearcher::new("the");
        assert_eq!(s.find_all(&hay), vec![0, 14, 27]);
    }

    #[test]
    fn find_next_respects_from() {
        let hay = chars("abcabcabc");
        let s = PatternSearcher::new("abc");
        assert_eq!(s.find_next(&hay, 0), Some(0));
        assert_eq!(s.find_next(&hay, 1), Some(3));
        assert_eq!(s.find_next(&hay, 7), None);
    }

    #[test]
    fn find_prev_finds_last_before() {
        let hay = chars("abcabcabc");
        let s = PatternSearcher::new("abc");
        assert_eq!(s.find_prev(&hay, 9), Some(6));
        assert_eq!(s.find_prev(&hay, 6), Some(3));
        assert_eq!(s.find_prev(&hay, 1), Some(0));
        assert_eq!(s.find_prev(&hay, 0), None);
    }

    #[test]
    fn case_insensitive_by_default() {
        let hay = chars("X-Ray observations: the x-ray shows");
        let s = PatternSearcher::new("x-ray");
        assert_eq!(s.find_all(&hay).len(), 2);
        let cs = PatternSearcher::with_case("x-ray", true);
        assert_eq!(cs.find_all(&hay).len(), 1);
    }

    #[test]
    fn empty_pattern_matches_nothing() {
        let hay = chars("anything");
        let s = PatternSearcher::new("");
        assert!(s.is_empty());
        assert_eq!(s.find_next(&hay, 0), None);
        assert_eq!(naive_find_next(&hay, "", 0), None);
    }

    #[test]
    fn pattern_longer_than_haystack() {
        let hay = chars("ab");
        assert_eq!(PatternSearcher::new("abc").find_next(&hay, 0), None);
    }

    #[test]
    fn overlapping_occurrences_are_found() {
        let hay = chars("aaaa");
        let s = PatternSearcher::new("aa");
        assert_eq!(s.find_all(&hay), vec![0, 1, 2]);
    }

    #[test]
    fn matches_at_both_ends() {
        let hay = chars("edge middle edge");
        let s = PatternSearcher::new("edge");
        assert_eq!(s.find_all(&hay), vec![0, 12]);
    }

    #[test]
    fn pattern_whose_lowercase_expands_finds_its_text() {
        // `İ` lowercases to two characters; the haystack folds it to one.
        let hay = chars("Welcome to İstanbul");
        assert_eq!(PatternSearcher::with_case("İstanbul", true).find_next(&hay, 0), Some(11));
        assert_eq!(PatternSearcher::new("İstanbul").find_next(&hay, 0), Some(11));
        assert_eq!(naive_find_next(&hay, "İstanbul", 0), Some(11));
    }

    #[test]
    fn non_ascii_window_ends_shift_by_their_last_occurrence() {
        // The window ending in `é` shifts by 2 to align the pattern's `é`.
        let hay = chars("xxéyz éyzé");
        let s = PatternSearcher::with_case("éyz", true);
        assert_eq!(s.find_all(&hay), vec![2, 6]);
        assert_eq!(s.shift('é'), 2);
        assert_eq!(s.shift('ß'), 3);
        assert_eq!(s.shift('y'), 1);
    }

    /// The last hit strictly before `before`, by comparing the folded
    /// pattern at every offset (the haystack's folding rule: the first
    /// character of each lowercase form).
    fn last_hit_before(hay: &[char], pattern: &str, before: u32) -> Option<u32> {
        let lower = |c: char| c.to_lowercase().next().unwrap_or(c);
        let pat: Vec<char> = pattern.chars().map(lower).collect();
        let offsets = 0..(hay.len() + 1).saturating_sub(pat.len()).min(before as usize);
        offsets
            .rev()
            .find(|&i| hay[i..i + pat.len()].iter().copied().map(lower).eq(pat.iter().copied()))
            .map(|i| i as u32)
    }

    proptest! {
        /// BMH agrees with the naive scanner on random inputs. The alphabet
        /// mixes cased ASCII and non-ASCII letters, so the searches take
        /// both the ASCII table's shifts and the pattern scan's.
        #[test]
        fn bmh_agrees_with_naive(
            hay in "[aAbBéÉİıßσΣ ]{0,64}",
            pat in "[aAbBéÉİıßσΣ ]{1,6}",
            from in 0u32..64,
        ) {
            let hay_chars = chars(&hay);
            let s = PatternSearcher::new(&pat);
            prop_assert_eq!(
                s.find_next(&hay_chars, from),
                naive_find_next(&hay_chars, &pat, from)
            );
        }

        /// `find_prev` is the last hit before the bound, in a haystack
        /// that holds the pattern at least once.
        #[test]
        fn find_prev_agrees_with_a_naive_scan(
            head in "[aAbBéÉİıßσΣ ]{0,32}",
            pat in "[aAbBéÉİıßσΣ ]{1,4}",
            tail in "[aAbBéÉİıßσΣ ]{0,32}",
            before in 0u32..72,
        ) {
            let hay_chars = chars(&format!("{head}{pat}{tail}"));
            let s = PatternSearcher::new(&pat);
            prop_assert_eq!(
                s.find_prev(&hay_chars, before),
                last_hit_before(&hay_chars, &pat, before)
            );
        }

        /// A case-insensitive pattern always finds its own text, wherever
        /// it sits in the haystack.
        #[test]
        fn case_insensitive_pattern_finds_its_own_text(
            before in "[aAbBéÉİıßσΣ ]{0,16}",
            pat in "[aAbBéÉİıßσΣ ]{1,8}",
        ) {
            let hay = chars(&format!("{before}{pat}"));
            let at = before.chars().count() as u32;
            let s = PatternSearcher::new(&pat);
            prop_assert!(s.find_next(&hay, 0).is_some_and(|hit| hit <= at));
            prop_assert_eq!(s.find_prev(&hay, at + 1).map(|hit| hit <= at), Some(true));
            prop_assert!(naive_find_next(&hay, &pat, 0).is_some_and(|hit| hit <= at));
        }

        /// find_all returns strictly increasing offsets and every offset is
        /// a real match.
        #[test]
        fn find_all_offsets_are_matches(hay in "[abc]{0,80}", pat in "[abc]{1,4}") {
            let hay_chars = chars(&hay);
            let s = PatternSearcher::new(&pat);
            let hits = s.find_all(&hay_chars);
            for pair in hits.windows(2) {
                prop_assert!(pair[0] < pair[1]);
            }
            let pat_chars = chars(&pat);
            for hit in hits {
                let window = &hay_chars[hit as usize..hit as usize + pat_chars.len()];
                prop_assert_eq!(window, &pat_chars[..]);
            }
        }
    }

    fn sample_doc() -> Document {
        let mut b = DocumentBuilder::new();
        b.text("The doctor examined the x-ray. The X-RAY showed a shadow.");
        b.end_paragraph();
        b.text("No shadow appeared on the second x-ray image.");
        b.end_paragraph();
        b.finish()
    }

    #[test]
    fn word_index_counts_and_positions() {
        let doc = sample_doc();
        let idx = WordIndex::build(&doc);
        assert_eq!(idx.positions("x-ray").len(), 3);
        assert_eq!(idx.positions("shadow").len(), 2);
        assert_eq!(idx.positions("absent").len(), 0);
        assert!(idx.vocabulary_size() > 5);
        assert_eq!(idx.word_count(), doc.tree().words.len());
    }

    #[test]
    fn word_index_normalizes_case_and_punctuation() {
        let doc = sample_doc();
        let idx = WordIndex::build(&doc);
        // "x-ray." and "X-RAY" both normalize to "x-ray".
        assert_eq!(idx.positions("X-Ray"), idx.positions("x-ray"));
        // Positions are document order.
        let p = idx.positions("x-ray");
        assert!(p.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn next_occurrence_walks_forward() {
        let doc = sample_doc();
        let idx = WordIndex::build(&doc);
        let first = idx.next_occurrence("x-ray", 0).unwrap();
        let second = idx.next_occurrence("x-ray", first + 1).unwrap();
        assert!(second > first);
        let third = idx.next_occurrence("x-ray", second + 1).unwrap();
        assert_eq!(idx.next_occurrence("x-ray", third + 1), None);
    }

    #[test]
    fn normalize_word_edge_cases() {
        assert_eq!(normalize_word("Hello,"), "hello");
        assert_eq!(normalize_word("(MINOS)"), "minos");
        assert_eq!(normalize_word("..."), "");
        assert_eq!(normalize_word("x-ray."), "x-ray");
    }
}

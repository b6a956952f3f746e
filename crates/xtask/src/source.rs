//! Source loading, comment/string stripping, and `#[cfg(test)]` masking.
//!
//! Every pass works over a *code view* of each file: the raw text with
//! comment and string-literal contents blanked to spaces (newlines kept, so
//! byte offsets and line numbers are preserved). Scanning the code view
//! means `"panic!"` inside an error message or an example in a doc comment
//! can never trip a rule. A per-line test mask marks the extent of every
//! `#[cfg(test)]` item so test-only code is exempt.

use crate::parse::{is_ident_byte, item_end};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One workspace source file prepared for scanning.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Workspace-relative path with `/` separators (used in diagnostics).
    pub rel: String,
    /// The raw file contents.
    pub raw: String,
    /// The code view: comments and literal contents blanked, same length
    /// and line structure as `raw`.
    pub code: String,
    /// `test_mask[i]` is true when 0-based line `i` is inside a
    /// `#[cfg(test)]` item.
    pub test_mask: Vec<bool>,
}

impl SourceFile {
    /// Loads and prepares `path`, reporting it as `rel` in diagnostics.
    pub fn load(path: &Path, rel: &str) -> io::Result<SourceFile> {
        let raw = fs::read_to_string(path)?;
        Ok(SourceFile::from_text(path.to_path_buf(), rel.to_string(), raw))
    }

    /// Prepares already-read text (used by fixture tests).
    pub fn from_text(path: PathBuf, rel: String, raw: String) -> SourceFile {
        let code = strip_code(&raw);
        let test_mask = test_mask(&code);
        SourceFile { path, rel, raw, code, test_mask }
    }

    /// The code view split into lines (same count as the raw lines).
    pub fn code_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.code.lines().enumerate().map(|(i, l)| (i + 1, l))
    }

    /// Whether 1-based `line` is inside a `#[cfg(test)]` item.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_mask.get(line.saturating_sub(1)).copied().unwrap_or(false)
    }

    /// The library code lines, as `minos-xtask code-lines` counts them:
    /// lines of `raw` that are not blank, do not start with `//` (comments
    /// and doc comments), and lie outside every `#[cfg(test)]` item.
    pub fn code_line_count(&self) -> usize {
        let counted = |(i, line): &(usize, &str)| {
            let line = line.trim_start();
            !line.is_empty() && !line.starts_with("//") && !self.is_test_line(i + 1)
        };
        self.raw.lines().enumerate().filter(counted).count()
    }

    /// 1-based line number of byte offset `pos` in the code view.
    pub fn line_of(&self, pos: usize) -> usize {
        self.code.as_bytes()[..pos.min(self.code.len())].iter().filter(|&&b| b == b'\n').count() + 1
    }
}

/// Blanks comment and string/char-literal contents to spaces, preserving
/// newlines and overall length.
pub fn strip_code(raw: &str) -> String {
    let bytes = raw.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    let blank = |out: &mut Vec<u8>, b: u8| out.push(if b == b'\n' { b'\n' } else { b' ' });

    while i < bytes.len() {
        let b = bytes[i];
        // Line comment.
        if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                blank(&mut out, bytes[i]);
                i += 1;
            }
            continue;
        }
        // Block comment (nesting honoured).
        if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
            let mut depth = 0usize;
            while i < bytes.len() {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    blank(&mut out, bytes[i]);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    blank(&mut out, bytes[i]);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    blank(&mut out, bytes[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw string literal r"..." / r#"..."# (with optional b prefix).
        if b == b'r' || (b == b'b' && bytes.get(i + 1) == Some(&b'r')) {
            let start = if b == b'b' { i + 1 } else { i };
            let prev_ident = i > 0 && is_ident_byte(bytes[i - 1]);
            let mut j = start + 1;
            let mut hashes = 0usize;
            while bytes.get(j) == Some(&b'#') {
                hashes += 1;
                j += 1;
            }
            if !prev_ident && bytes.get(j) == Some(&b'"') {
                // Emit the prefix as-is, blank the contents.
                out.extend_from_slice(&bytes[i..=j]);
                let mut k = j + 1;
                'raw: while k < bytes.len() {
                    if bytes[k] == b'"' {
                        let mut h = 0usize;
                        while bytes.get(k + 1 + h) == Some(&b'#') {
                            h += 1;
                        }
                        if h >= hashes {
                            out.push(b'"');
                            out.extend_from_slice(&bytes[k + 1..k + 1 + hashes]);
                            k += 1 + hashes;
                            break 'raw;
                        }
                    }
                    blank(&mut out, bytes[k]);
                    k += 1;
                }
                i = k;
                continue;
            }
        }
        // Normal string literal (with optional b prefix handled by falling
        // through: the b is emitted as code, the quote starts the literal).
        if b == b'"' {
            out.push(b'"');
            i += 1;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => {
                        blank(&mut out, bytes[i]);
                        if i + 1 < bytes.len() {
                            blank(&mut out, bytes[i + 1]);
                        }
                        i += 2;
                    }
                    b'"' => {
                        out.push(b'"');
                        i += 1;
                        break;
                    }
                    other => {
                        blank(&mut out, other);
                        i += 1;
                    }
                }
            }
            continue;
        }
        // Char literal vs lifetime: 'a' / '\n' are literals, 'a in `<'a>`
        // is a lifetime and passes through.
        if b == b'\'' {
            let is_char = match bytes.get(i + 1) {
                Some(b'\\') => true,
                Some(_) => bytes.get(i + 2) == Some(&b'\''),
                None => false,
            };
            if is_char {
                out.push(b'\'');
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => {
                            blank(&mut out, bytes[i]);
                            if i + 1 < bytes.len() {
                                blank(&mut out, bytes[i + 1]);
                            }
                            i += 2;
                        }
                        b'\'' => {
                            out.push(b'\'');
                            i += 1;
                            break;
                        }
                        other => {
                            blank(&mut out, other);
                            i += 1;
                        }
                    }
                }
                continue;
            }
        }
        out.push(b);
        i += 1;
    }
    // Blanking only ever replaces bytes with ASCII spaces, and multi-byte
    // UTF-8 sequences are either copied whole or blanked whole.
    String::from_utf8(out).unwrap_or_default()
}

/// Computes the per-line `#[cfg(test)]` mask over a code view.
///
/// For each `#[cfg(test)]` attribute the masked extent is the attributed
/// item, as [`crate::parse::item_end`] ends it: through the close brace of
/// its body, or through its `;` if it has none (a `#[cfg(test)] use` line).
pub fn test_mask(code: &str) -> Vec<bool> {
    const ATTR: &str = "#[cfg(test)]";
    let line_count = code.lines().count();
    let mut mask = vec![false; line_count];
    let newlines_before = |at: usize| code.as_bytes()[..at].iter().filter(|&&b| b == b'\n').count();
    let mut search_from = 0;
    while let Some(found) = code[search_from..].find(ATTR) {
        let attr_at = search_from + found;
        let end = item_end(code, attr_at + ATTR.len()).map_or(code.len(), |(_, end)| end);
        let (first_line, last_line) = (newlines_before(attr_at), newlines_before(end));
        for m in mask.iter_mut().take((last_line + 1).min(line_count)).skip(first_line) {
            *m = true;
        }
        search_from = end;
    }
    mask
}

/// Walks the workspace's lintable source set rooted at `root`:
/// `crates/*/src/**/*.rs` plus the facade's `src/**/*.rs`, excluding the
/// xtask crate itself and everything outside `src` (integration tests,
/// benches, examples and vendored stand-ins are not hot-path code).
pub fn workspace_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "xtask"))
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir.join("src"), root, &mut files)?;
    }
    collect_rs(&root.join("src"), root, &mut files)?;
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile::load(&path, &rel)?);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(raw: &str) -> SourceFile {
        SourceFile::from_text(PathBuf::from("mem.rs"), "mem.rs".into(), raw.to_string())
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let s = sf("let x = \"unwrap() panic!\"; // unwrap()\nlet y = 1;\n");
        assert!(!s.code.contains("unwrap"));
        assert!(!s.code.contains("panic"));
        assert!(s.code.contains("let y = 1;"));
        assert_eq!(s.code.len(), s.raw.len());
    }

    #[test]
    fn block_comments_nest_and_keep_lines() {
        let s = sf("a /* outer /* inner */ still */ b\nc\n");
        assert!(s.code.contains('a'));
        assert!(s.code.contains('b'));
        assert!(!s.code.contains("inner"));
        assert_eq!(s.code.lines().count(), s.raw.lines().count());
    }

    #[test]
    fn raw_strings_and_chars_are_blanked_but_lifetimes_survive() {
        let s = sf("let p = r#\"panic!\"#; let c = '['; fn f<'a>(x: &'a u8) {}\n");
        assert!(!s.code.contains("panic"));
        assert!(!s.code.contains('['));
        assert!(s.code.contains("<'a>"));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let s = sf("let x = \"a\\\"unwrap()\\\"b\"; let y = 2;\n");
        assert!(!s.code.contains("unwrap"));
        assert!(s.code.contains("let y = 2;"));
    }

    #[test]
    fn cfg_test_mask_covers_the_module() {
        let s = sf("fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}\n");
        assert!(!s.is_test_line(1));
        assert!(s.is_test_line(2));
        assert!(s.is_test_line(3));
        assert!(s.is_test_line(4));
        assert!(s.is_test_line(5));
        assert!(!s.is_test_line(6));
    }

    #[test]
    fn line_of_maps_offsets() {
        let s = sf("one\ntwo\nthree\n");
        assert_eq!(s.line_of(0), 1);
        assert_eq!(s.line_of(4), 2);
        assert_eq!(s.line_of(9), 3);
    }

    #[test]
    fn code_lines_skip_blanks_comments_and_test_items() {
        // Counted: `use std::fmt;`, the three lines of `S`, both lines of
        // the block comment, `OPEN`, `BRACE`, the five live lines of
        // `impl S` and `tail`. The brace in the raw string, the char and
        // the byte char are no item boundaries. A scanner that ended
        // `table` at the `;` of `[u8; 4]` would count its last two lines.
        let s = sf(r##"//! Module doc.
use std::fmt;

/// A doc comment.
pub struct S {
    a: u8, /* trailing */
}

/* outer /* inner */ still
   inside */
const OPEN: &str = r#"{"#;
const BRACE: char = '{';

impl S {
    pub fn f(&self) -> u8 {

        self.a
    }
}

#[cfg(test)]
use std::collections::HashMap;

#[cfg(test)]
impl S {
    fn probe(&self) -> u8 { b'}' }
}

#[cfg(test)]
fn table() -> [u8; 4] {
    Some([0; 4]).unwrap()
}

pub fn tail() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() { let _ = "}"; }
}
"##);
        assert_eq!(s.code_line_count(), 14);
    }
}

//! A small `pub fn` signature parser.
//!
//! The symmetry pass needs the *public browsing-primitive surface* of the
//! text and voice crates: every `pub fn` name with its parameter list and
//! return type. Full Rust parsing is out of reach without external crates,
//! but signatures have a rigid shape — visibility, optional qualifiers,
//! `fn`, name, optional generics, balanced parens, optional `-> type` up to
//! `{`/`;`/`where` — which a token-level scan over the stripped code view
//! parses reliably.

use crate::source::SourceFile;

/// Visibility of a parsed function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// `pub` with no restriction: part of the crate's public API.
    Public,
    /// `pub(crate)`, `pub(super)`, `pub(in ...)`: not public API.
    Restricted,
}

/// One parsed `pub fn` signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PubFn {
    /// The function name.
    pub name: String,
    /// The parameter list text (between the parens, whitespace-normalized).
    pub params: String,
    /// The return type text, if any.
    pub ret: Option<String>,
    /// Workspace-relative file the signature was found in.
    pub file: String,
    /// 1-based line of the `pub` keyword.
    pub line: usize,
    /// Visibility kind.
    pub vis: Visibility,
}

/// Parses every non-test `pub fn` signature in `file`.
pub fn pub_fns(file: &SourceFile) -> Vec<PubFn> {
    let code = file.code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(found) = find_word(&file.code, "pub", i) {
        let pub_at = found;
        i = pub_at + 3;
        let line = file.line_of(pub_at);
        if file.is_test_line(line) {
            continue;
        }
        let mut j = skip_ws(code, i);
        let mut vis = Visibility::Public;
        if code.get(j) == Some(&b'(') {
            vis = Visibility::Restricted;
            j = match skip_balanced(code, j, b'(', b')') {
                Some(end) => skip_ws(code, end),
                None => continue,
            };
        }
        // Optional qualifiers before `fn`.
        loop {
            let (word, after) = next_word(code, j);
            match word {
                "const" | "async" | "unsafe" | "extern" => j = skip_ws(code, after),
                _ => break,
            }
        }
        let (kw, after_kw) = next_word(code, j);
        if kw != "fn" {
            continue;
        }
        j = skip_ws(code, after_kw);
        let (name, after_name) = next_word(code, j);
        if name.is_empty() {
            continue;
        }
        j = skip_ws(code, after_name);
        // Optional generics.
        if code.get(j) == Some(&b'<') {
            j = match skip_balanced(code, j, b'<', b'>') {
                Some(end) => skip_ws(code, end),
                None => continue,
            };
        }
        if code.get(j) != Some(&b'(') {
            continue;
        }
        let params_end = match skip_balanced(code, j, b'(', b')') {
            Some(end) => end,
            None => continue,
        };
        let params =
            normalize_ws(&file.code[j + 1..params_end - 1]).trim_end_matches(',').to_string();
        let mut k = skip_ws(code, params_end);
        let mut ret = None;
        if code.get(k) == Some(&b'-') && code.get(k + 1) == Some(&b'>') {
            let ret_start = skip_ws(code, k + 2);
            let mut end = ret_start;
            let mut depth = 0i32;
            while end < code.len() {
                match code[end] {
                    b'<' | b'(' | b'[' => depth += 1,
                    b'>' | b')' | b']' => depth -= 1,
                    b'{' | b';' if depth <= 0 => break,
                    b'w' if depth <= 0 && word_at(code, end) == "where" => break,
                    _ => {}
                }
                end += 1;
            }
            ret = Some(normalize_ws(&file.code[ret_start..end]));
            k = end;
        }
        let _ = k;
        out.push(PubFn { name: name.to_string(), params, ret, file: file.rel.clone(), line, vis });
    }
    out
}

/// Parses the fully-public (`Visibility::Public`) fn names of several files.
pub fn public_surface(files: &[SourceFile]) -> Vec<PubFn> {
    files.iter().flat_map(pub_fns).filter(|f| f.vis == Visibility::Public).collect()
}

/// Parses the fully-public fns of `file` declared in inherent `impl`
/// blocks of the type `ty` (generic or not): `impl<C: Ord> Ty<C> { .. }`.
pub fn impl_surface(file: &SourceFile, ty: &str) -> Vec<PubFn> {
    let code = file.code.as_bytes();
    let mut bodies = Vec::new();
    let mut i = 0;
    while let Some(at) = find_word(&file.code, "impl", i) {
        i = at + 4;
        let mut j = skip_ws(code, i);
        if code.get(j) == Some(&b'<') {
            j = match skip_balanced(code, j, b'<', b'>') {
                Some(end) => skip_ws(code, end),
                None => continue,
            };
        }
        let (name, after) = next_word(code, j);
        if name != ty {
            continue;
        }
        let Some(open) = file.code[after..].find('{').map(|k| after + k) else { continue };
        if let Some(end) = skip_balanced(code, open, b'{', b'}') {
            bodies.push(file.line_of(open)..=file.line_of(end - 1));
        }
    }
    public_surface(std::slice::from_ref(file))
        .into_iter()
        .filter(|f| bodies.iter().any(|lines| lines.contains(&f.line)))
        .collect()
}

fn find_word(code: &str, word: &str, from: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut at = from;
    while let Some(found) = code.get(at..).and_then(|s| s.find(word)) {
        let pos = at + found;
        let before_ok = pos == 0 || !is_ident(bytes[pos - 1]);
        let after_ok = pos + word.len() >= bytes.len() || !is_ident(bytes[pos + word.len()]);
        if before_ok && after_ok {
            return Some(pos);
        }
        at = pos + 1;
    }
    None
}

fn word_at(code: &[u8], at: usize) -> &str {
    let mut end = at;
    while end < code.len() && is_ident(code[end]) {
        end += 1;
    }
    std::str::from_utf8(&code[at..end]).unwrap_or("")
}

fn next_word(code: &[u8], at: usize) -> (&str, usize) {
    let mut end = at;
    while end < code.len() && is_ident(code[end]) {
        end += 1;
    }
    (std::str::from_utf8(&code[at..end]).unwrap_or(""), end)
}

fn skip_ws(code: &[u8], mut at: usize) -> usize {
    while at < code.len() && code[at].is_ascii_whitespace() {
        at += 1;
    }
    at
}

/// Advances past a balanced `open`..`close` region starting at `at`
/// (which must hold `open`); returns the index just past the close.
fn skip_balanced(code: &[u8], at: usize, open: u8, close: u8) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = at;
    while i < code.len() {
        if code[i] == open {
            depth += 1;
        } else if code[i] == close {
            depth -= 1;
            if depth == 0 {
                return Some(i + 1);
            }
        }
        i += 1;
    }
    None
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn normalize_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn parse(src: &str) -> Vec<PubFn> {
        let f = SourceFile::from_text(PathBuf::from("m.rs"), "m.rs".into(), src.to_string());
        pub_fns(&f)
    }

    #[test]
    fn plain_signature() {
        let fns = parse("pub fn page_count(&self) -> usize {\n    0\n}\n");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "page_count");
        assert_eq!(fns[0].params, "&self");
        assert_eq!(fns[0].ret.as_deref(), Some("usize"));
        assert_eq!(fns[0].line, 1);
        assert_eq!(fns[0].vis, Visibility::Public);
    }

    #[test]
    fn qualifiers_generics_and_multiline_params() {
        let src = "pub const fn z() -> u64 { 0 }\n\
                   pub fn step<I, S>(\n    items: I,\n    level: S,\n) -> Option<UnitRef>\nwhere I: Iterator {\n}\n";
        let fns = parse(src);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "z");
        assert_eq!(fns[1].name, "step");
        assert_eq!(fns[1].params, "items: I, level: S");
        assert_eq!(fns[1].ret.as_deref(), Some("Option<UnitRef>"));
        assert_eq!(fns[1].line, 2);
    }

    #[test]
    fn restricted_visibility_is_tracked_and_filtered() {
        let src = "pub(crate) fn hidden() {}\npub fn shown() {}\n";
        let fns = parse(src);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].vis, Visibility::Restricted);
        let f = SourceFile::from_text(PathBuf::from("m.rs"), "m.rs".into(), src.to_string());
        let surface = public_surface(&[f]);
        assert_eq!(surface.len(), 1);
        assert_eq!(surface[0].name, "shown");
    }

    #[test]
    fn non_fn_pub_items_and_test_code_are_skipped() {
        let src = "pub struct S;\npub mod m;\n#[cfg(test)]\nmod tests {\n    pub fn t() {}\n}\n";
        assert!(parse(src).is_empty());
    }

    #[test]
    fn return_type_with_nested_generics() {
        let fns = parse("pub fn spans(&self, level: LogicalLevel) -> &[CharSpan] { x }\n");
        assert_eq!(fns[0].ret.as_deref(), Some("&[CharSpan]"));
        let fns = parse("pub fn iter(&self) -> impl Iterator<Item = (&str, &[u32])> { y }\n");
        assert_eq!(fns[0].ret.as_deref(), Some("impl Iterator<Item = (&str, &[u32])>"));
    }
}

//! The `pub fn` signature surface the symmetry pass compares.
//!
//! The symmetry pass needs the *public browsing-primitive surface* of the
//! text and voice crates: every `pub fn` name with its parameter list and
//! return type. Signatures have a rigid shape — visibility, optional
//! qualifiers, `fn`, name, optional generics, balanced parens, optional
//! `-> type` up to `{`/`;`/`where` — which [`crate::parse`]'s scanner reads
//! off the stripped code view.

use crate::parse::{find_word, ident_at, impl_blocks, item_end, skip_balanced, skip_ws};
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
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pub_at) = find_word(&file.code, "pub", from) {
        from = pub_at + 3;
        let line = file.line_of(pub_at);
        if !file.is_test_line(line) {
            out.extend(signature(file, pub_at, line));
        }
    }
    out
}

/// The signature whose `pub` keyword sits at `pub_at`, if it is a fn's.
fn signature(file: &SourceFile, pub_at: usize, line: usize) -> Option<PubFn> {
    let code = file.code.as_str();
    let mut j = skip_ws(code, pub_at + 3);
    let mut vis = Visibility::Public;
    if code[j..].starts_with('(') {
        vis = Visibility::Restricted;
        j = skip_ws(code, skip_balanced(code, j)?);
    }
    // Optional qualifiers before `fn`.
    while let word @ ("const" | "async" | "unsafe" | "extern") = ident_at(code, j) {
        j = skip_ws(code, j + word.len());
    }
    if ident_at(code, j) != "fn" {
        return None;
    }
    j = skip_ws(code, j + 2);
    let name = ident_at(code, j);
    if name.is_empty() {
        return None;
    }
    j = skip_ws(code, j + name.len());
    // Optional generics.
    if code[j..].starts_with('<') {
        j = skip_ws(code, skip_balanced(code, j)?);
    }
    if !code[j..].starts_with('(') {
        return None;
    }
    let params_end = skip_balanced(code, j)?;
    let params = normalize_ws(&code[j + 1..params_end - 1]).trim_end_matches(',').to_string();
    let after = skip_ws(code, params_end);
    let ret = code[after..].starts_with("->").then(|| {
        let start = skip_ws(code, after + 2);
        let ret = &code[start..item_end(code, start).map_or(code.len(), |(stop, _)| stop)];
        normalize_ws(&ret[..find_word(ret, "where", 0).unwrap_or(ret.len())])
    });
    Some(PubFn { name: name.to_string(), params, ret, file: file.rel.clone(), line, vis })
}

/// Parses the fully-public (`Visibility::Public`) fn names of several files.
pub fn public_surface(files: &[SourceFile]) -> Vec<PubFn> {
    files.iter().flat_map(pub_fns).filter(|f| f.vis == Visibility::Public).collect()
}

/// Parses the fully-public fns of `file` declared in inherent `impl`
/// blocks of the type `ty` (generic or not): `impl<C: Ord> Ty<C> { .. }`.
pub fn impl_surface(file: &SourceFile, ty: &str) -> Vec<PubFn> {
    let bodies: Vec<_> = impl_blocks(&file.code)
        .into_iter()
        .filter(|b| b.inherent && b.owner == ty)
        .map(|b| file.line_of(b.body.0)..=file.line_of(b.body.1 - 1))
        .collect();
    public_surface(std::slice::from_ref(file))
        .into_iter()
        .filter(|f| bodies.iter().any(|lines| lines.contains(&f.line)))
        .collect()
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

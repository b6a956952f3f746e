//! Panic-freedom audit (`P001`–`P004`).
//!
//! The hot-path crates sit between wire bytes and device models: a panic
//! there takes the whole server down on attacker-controlled input. This
//! pass flags, in non-`#[cfg(test)]` code:
//!
//! * `P001` — `.unwrap()`;
//! * `P002` — `.expect(...)`;
//! * `P003` — `panic!`, `todo!`, `unimplemented!`, `unreachable!`, and the
//!   runtime asserts `assert!`, `assert_eq!`, `assert_ne!` (a
//!   `debug_assert*` is compiled out of release builds, and a
//!   `const _: () = assert!(…)` fails the build, not the server);
//! * `P004` — bare slice/collection indexing (`v[i]`, `v[0]`,
//!   `v[a..b]`) — full-range `[..]` never panics and is not flagged.
//!
//! Existing debt is enumerated in `lint-allow.toml` and can only shrink.

use crate::diag::Diagnostic;
use crate::parse::is_ident_byte;
use crate::source::SourceFile;

const PANIC_MACROS: &[&str] =
    &["panic!", "todo!", "unimplemented!", "unreachable!", "assert!", "assert_eq!", "assert_ne!"];

/// Runs the pass over already-scoped files.
pub fn run(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in files {
        for (line_no, line) in file.code_lines() {
            if file.is_test_line(line_no) {
                continue;
            }
            if line.contains(".unwrap()") {
                out.push(Diagnostic::new(
                    "P001",
                    &file.rel,
                    line_no,
                    "unwrap() on the hot path; return a typed minos-types::error instead",
                ));
            }
            if line.contains(".expect(") {
                out.push(Diagnostic::new(
                    "P002",
                    &file.rel,
                    line_no,
                    "expect() on the hot path; return a typed minos-types::error instead",
                ));
            }
            let const_item = line.trim_start().starts_with("const _");
            for mac in PANIC_MACROS {
                if !const_item && calls_macro(line, mac) {
                    out.push(Diagnostic::new(
                        "P003",
                        &file.rel,
                        line_no,
                        format!("{mac} on the hot path; return a typed error instead"),
                    ));
                }
            }
            for index in bare_indexing(line) {
                out.push(Diagnostic::new(
                    "P004",
                    &file.rel,
                    line_no,
                    format!(
                        "bare indexing `[{index}]` can panic; use get()/get_mut() and handle None"
                    ),
                ));
            }
        }
    }
    out
}

/// Whether `line` invokes `mac` itself: an occurrence not preceded by an
/// identifier byte, so `debug_assert!` is not `assert!`.
fn calls_macro(line: &str, mac: &str) -> bool {
    line.match_indices(mac)
        .any(|(at, _)| !line[..at].bytes().next_back().is_some_and(is_ident_byte))
}

/// Finds bare index expressions on one code-view line: a `[...]` whose
/// receiver is a value (identifier, `)`, or `]` immediately before the
/// bracket). Attributes (`#[...]`), array types/literals (`[u8; 4]`), and
/// the never-panicking full range `[..]` are not value indexing.
fn bare_indexing(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'[' {
            let is_value = receiver_is_value(&bytes[..i]);
            if is_value {
                // Find the matching close on this line (multi-line index
                // expressions are rare enough to ignore).
                let mut depth = 0usize;
                let mut j = i;
                let mut end = None;
                while j < bytes.len() {
                    match bytes[j] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                end = Some(j);
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(end) = end {
                    let content = line[i + 1..end].trim();
                    if !content.is_empty() && content != ".." {
                        out.push(content.to_string());
                    }
                    i = end + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// Keywords that can directly precede a `[...]` slice *pattern* or type —
/// `let [a, b] = ...`, `for [x, y] in ...` — where the bracket is not an
/// index expression.
const PATTERN_KEYWORDS: &[&str] =
    &["let", "mut", "ref", "for", "in", "if", "else", "match", "return"];

/// Whether the token ending just before a `[` is a value expression
/// (identifier, `)`, or `]`). A lifetime (`&'a [u8]`) is type syntax, and
/// a keyword (`let [a] = ...`) introduces a pattern, not a value, even
/// though both end in identifier characters.
fn receiver_is_value(before: &[u8]) -> bool {
    let mut k = before.len();
    while k > 0 && before[k - 1].is_ascii_whitespace() {
        k -= 1;
    }
    if k == 0 {
        return false;
    }
    match before[k - 1] {
        b')' | b']' => true,
        b if is_ident_byte(b) => {
            let mut s = k - 1;
            while s > 0 && is_ident_byte(before[s - 1]) {
                s -= 1;
            }
            if s > 0 && before[s - 1] == b'\'' {
                return false;
            }
            let token = std::str::from_utf8(&before[s..k]).unwrap_or("");
            !PATTERN_KEYWORDS.contains(&token)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run_on(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::from_text(PathBuf::from("m.rs"), "m.rs".into(), src.to_string());
        run(std::slice::from_ref(&f))
    }

    #[test]
    fn flags_unwrap_expect_and_macros() {
        let diags = run_on(
            "fn f() {\n    x.unwrap();\n    y.expect(\"msg\");\n    panic!();\n    todo!()\n}\n",
        );
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["P001", "P002", "P003", "P003"]);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn flags_runtime_asserts() {
        let diags =
            run_on("fn f() {\n    assert!(a);\n    assert_eq!(a, b);\n    assert_ne!(a, b);\n}\n");
        let lines: Vec<usize> = diags.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![2, 3, 4]);
        assert!(diags.iter().all(|d| d.rule == "P003"));
    }

    #[test]
    fn debug_and_const_asserts_are_clean() {
        let src = "const _: () = assert!(A >= B);\nfn f() {\n    debug_assert!(a);\n    debug_assert_eq!(a, b);\n    debug_assert_ne!(a, b);\n}\n";
        let diags = run_on(src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn near_misses_are_clean() {
        // unwrap_or, expect_end, strings, comments, tests.
        let src = "fn f() {\n    x.unwrap_or(0);\n    d.expect_end();\n    let s = \"panic! .unwrap()\";\n    // .expect( in a comment\n}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); v[0]; }\n}\n";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn flags_bare_indexing_but_not_types_or_full_range() {
        let diags = run_on(
            "fn f() {\n    let a = v[0];\n    let b = v[i];\n    let c = bytes[from..to];\n    let d = &all[..];\n    let e: [u8; 4] = [0; 4];\n    #[derive(Debug)]\n    struct S;\n}\n",
        );
        let lines: Vec<usize> = diags.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![2, 3, 4]);
        assert!(diags.iter().all(|d| d.rule == "P004"));
    }

    #[test]
    fn chained_indexing_after_call_is_flagged() {
        let diags = run_on("fn f() { let x = make()[3]; }\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "P004");
    }

    #[test]
    fn slice_patterns_after_keywords_are_not_indexing() {
        let src = "fn f(v: &[u8]) {\n    let [a] = v.take_array::<1>()?;\n    for [x, y] in pairs {}\n    let w = v[a];\n}\n";
        let diags = run_on(src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn lifetime_slice_types_are_not_indexing() {
        let src = "pub fn decode(bytes: &[u8]) -> Result<T> { x }\n\
                   fn take<'a>(buf: &'a [u8], n: usize) -> Result<&'a [u8]> { y }\n";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn test_item_with_an_array_signature_is_masked_whole() {
        // The `;` of `[u8; 4]` does not end the `#[cfg(test)]` item.
        let src = "#[cfg(test)]\nfn table() -> [u8; 4] {\n    Some([0; 4]).unwrap()\n}\n";
        let diags = run_on(src);
        assert!(diags.is_empty(), "{diags:?}");
    }
}

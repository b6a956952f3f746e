//! Codec-coverage audit (`C001`–`C003`).
//!
//! The wire types are hand-written codecs; three invariants keep them
//! honest, generalizing what the U003 rule and the `get_len` sweep fixed
//! by hand in `object::descriptor` and the checkpoint codec. Over the
//! codec scope (`types::codec`, `net::protocol`, `net::frame`,
//! `core::session`):
//!
//! * `C001` — a type with an `encode`/`encode_to`/`encode_into` fn but no
//!   `decode` in its file. Every wire type must round-trip; an
//!   encode-only type is either dead weight or a decoder someone forgot.
//! * `C002` — an element count read with a raw `get_varint` and then used
//!   as a loop bound (`0..count`) or allocation size
//!   (`with_capacity(count)`). U003 catches the single-line
//!   `get_varint()? as usize` shape; this follows the binding across
//!   lines. Counts must flow through `Decoder::get_len`, which bounds
//!   them against the remaining input before any allocation.
//! * `C003` — a versioned record whose decode never looks: `encode`
//!   writes a `*VERSION*` const but `decode` never mentions it, so a
//!   bumped record would decode as garbage instead of a typed error.
//!
//! `C001` and `C003` are structural (never allowlistable); `C002` is
//! ratchetable like its U003 ancestor.

use crate::diag::Diagnostic;
use crate::parse::{fns_in, ident_at, ident_tokens, impl_blocks, is_ident_byte, mentions_word};
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// Runs the audit over the codec-scope files.
pub fn run(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in files {
        run_file(file, &mut out);
    }
    out
}

struct OwnerCodec {
    /// Line of the first encode fn.
    encode_line: usize,
    /// Concatenated encode bodies.
    encode_bodies: String,
    /// Line of the first decode fn (if any).
    decode_line: Option<usize>,
    /// Concatenated decode bodies.
    decode_bodies: String,
}

fn run_file(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let mut owners: BTreeMap<String, OwnerCodec> = BTreeMap::new();
    for block in impl_blocks(&file.code) {
        for f in fns_in(&file.code, block.body) {
            let line = file.line_of(f.at);
            if file.is_test_line(line) {
                continue;
            }
            let body = &file.code[f.body.0..f.body.1];
            let is_encode = f.name == "encode" || f.name.starts_with("encode_");
            let is_decode = f.name == "decode" || f.name.starts_with("decode_");
            if !is_encode && !is_decode {
                continue;
            }
            let e = owners.entry(block.owner.clone()).or_insert(OwnerCodec {
                encode_line: 0,
                encode_bodies: String::new(),
                decode_line: None,
                decode_bodies: String::new(),
            });
            if is_encode {
                if e.encode_bodies.is_empty() {
                    e.encode_line = line;
                }
                e.encode_bodies.push_str(body);
            } else {
                e.decode_line.get_or_insert(line);
                e.decode_bodies.push_str(body);
            }
        }
    }

    for (owner, codec) in &owners {
        if codec.encode_bodies.is_empty() {
            continue; // decode-only types are fine: decoding is the hard half
        }
        // C001: encode with no decode.
        if codec.decode_line.is_none() {
            out.push(Diagnostic::new(
                "C001",
                &file.rel,
                codec.encode_line,
                format!("{owner} encodes but has no decode; every wire type must round-trip"),
            ));
            continue;
        }
        // C003: versioned encode, unversioned decode.
        for token in version_tokens(&codec.encode_bodies) {
            if !mentions_word(&codec.decode_bodies, token) {
                out.push(Diagnostic::new(
                    "C003",
                    &file.rel,
                    codec.decode_line.unwrap_or(codec.encode_line),
                    format!(
                        "{owner}::decode never checks {token} written by encode; match the \
                         version with a typed-error default arm"
                    ),
                ));
            }
        }
    }

    // C002: raw varint bindings used as counts, tracked per fn.
    let mut live: Vec<String> = Vec::new();
    for (line_no, line) in file.code_lines() {
        if file.is_test_line(line_no) {
            continue;
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("fn ") || trimmed.contains(" fn ") {
            live.clear(); // new fn: bindings do not cross fn boundaries
        }
        for ident in &live {
            let counted =
                line.contains(&format!("with_capacity({ident})")) || range_bound(line, ident);
            if counted {
                out.push(Diagnostic::new(
                    "C002",
                    &file.rel,
                    line_no,
                    format!(
                        "element count `{ident}` comes from a raw get_varint; read it with \
                         Decoder::get_len so it is bounded by the remaining input"
                    ),
                ));
            }
        }
        if let Some(ident) = varint_binding(line) {
            live.push(ident);
        }
    }
}

/// Uppercase identifiers containing `VERSION` (const names like
/// `CHECKPOINT_VERSION`) mentioned in `text`.
fn version_tokens(text: &str) -> Vec<&str> {
    let mut out: Vec<&str> = ident_tokens(text)
        .into_iter()
        .filter(|t| t.contains("VERSION") && t.chars().all(|c| c.is_ascii_uppercase() || c == '_'))
        .collect();
    out.sort();
    out.dedup();
    out
}

/// `let <ident> = ... get_varint ...` with no `get_len`/`try_from` rescue
/// on the same line.
fn varint_binding(line: &str) -> Option<String> {
    if !line.contains("get_varint") || line.contains("get_len") || line.contains("try_from") {
        return None;
    }
    let after_let = line.trim_start().strip_prefix("let ")?;
    let name = ident_at(after_let.trim_start_matches("mut "), 0);
    if name.is_empty() || name == "_" {
        return None;
    }
    Some(name.to_string())
}

/// Whether `line` uses `ident` as a range bound: `..ident` (exclusive or
/// inclusive) with an identifier boundary after it.
fn range_bound(line: &str, ident: &str) -> bool {
    let needle = format!("..{ident}");
    let mut from = 0;
    while let Some(found) = line[from..].find(&needle) {
        let at = from + found;
        let end = at + needle.len();
        if !line.as_bytes().get(end).copied().is_some_and(is_ident_byte) {
            return true;
        }
        from = at + 1;
    }
    false
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
    fn encode_without_decode_is_c001() {
        let src = "\
impl Record {
    pub fn encode(&self) -> Vec<u8> {
        Vec::new()
    }
}
";
        let diags = run_on(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "C001");
        assert!(diags[0].message.contains("Record"));
    }

    #[test]
    fn round_tripping_type_is_clean() {
        let src = "\
impl Record {
    pub fn encode_to(&self, e: &mut Encoder) {
        e.put_u8(1);
    }
    pub fn decode(bytes: &[u8]) -> Result<Record> {
        Ok(Record)
    }
}
";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn raw_varint_loop_bound_is_c002() {
        let src = "\
impl Record {
    pub fn decode(bytes: &[u8]) -> Result<Record> {
        let count = d.get_varint()?;
        let mut items = Vec::new();
        for _ in 0..count {
            items.push(d.get_u8()?);
        }
        Ok(Record { items })
    }
}
";
        let diags = run_on(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "C002");
        assert!(diags[0].message.contains("count"));
    }

    #[test]
    fn raw_varint_with_capacity_is_c002_but_get_len_is_clean() {
        let bad = "\
impl Record {
    fn decode(bytes: &[u8]) -> Result<Record> {
        let n = d.get_varint()?;
        let items = Vec::with_capacity(n);
        Ok(Record { items })
    }
}
";
        let diags = run_on(bad);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "C002");

        let good = bad.replace("get_varint()?", "get_len()?");
        assert!(run_on(&good).is_empty());
    }

    #[test]
    fn bindings_do_not_leak_across_fns() {
        let src = "\
impl Record {
    fn decode(bytes: &[u8]) -> Result<Record> {
        let n = d.get_varint()?;
        Ok(Record { n })
    }
    fn other(&self) {
        for _ in 0..n {
            work();
        }
    }
}
";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn versioned_encode_without_version_check_is_c003() {
        let src = "\
impl Record {
    pub fn encode(&self) -> Vec<u8> {
        e.put_u8(RECORD_VERSION);
        e.finish()
    }
    pub fn decode(bytes: &[u8]) -> Result<Record> {
        let _v = d.get_u8()?;
        Ok(Record)
    }
}
";
        let diags = run_on(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "C003");
        assert!(diags[0].message.contains("RECORD_VERSION"));
    }

    #[test]
    fn version_checked_decode_is_clean() {
        let src = "\
impl Record {
    pub fn encode(&self) -> Vec<u8> {
        e.put_u8(RECORD_VERSION);
        e.finish()
    }
    pub fn decode(bytes: &[u8]) -> Result<Record> {
        let v = d.get_u8()?;
        if v != RECORD_VERSION {
            return Err(bad(v));
        }
        Ok(Record)
    }
}
";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn array_types_in_signatures_do_not_hide_fns() {
        // The `;` of `[u8; 4]` must not end either signature: `Hdr` encodes
        // with no decode (C001), and `Rec` round-trips through a decode
        // that takes an array (clean).
        let src = "\
impl Hdr {
    pub fn encode(&self) -> [u8; 4] {
        [0; 4]
    }
}
impl Rec {
    pub fn encode(&self) -> Vec<u8> {
        Vec::new()
    }
    pub fn decode(bytes: &[u8; 4]) -> Result<Rec> {
        Ok(Rec)
    }
}
";
        let diags = run_on(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].rule, diags[0].line), ("C001", 2));
        assert!(diags[0].message.contains("Hdr"));
    }
}

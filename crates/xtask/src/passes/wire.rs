//! Wire-tag audit (`W001`–`W005`).
//!
//! The workstation ↔ server protocol is a hand-written binary codec: each
//! `ServerRequest`/`ServerResponse` variant writes a one-byte tag in
//! `encode` and is rebuilt from that tag in `decode`. Nothing in the type
//! system keeps the two match statements in lockstep — PR 1's `Batch`
//! tag-nesting bug lived exactly there — so this pass parses the enums and
//! both codecs out of `crates/net/src/protocol.rs` and checks:
//!
//! * `W001` — tags are unique within each enum's encode and decode maps;
//! * `W002` — every variant writes a tag in `encode`;
//! * `W003` — every variant is produced by a `decode` match arm;
//! * `W004` — `encode` and `decode` agree on each variant's tag;
//! * `W005` — the request and response tag sets pair up: every request
//!   tag has a response tag and vice versa (the paper's request/reply
//!   vocabulary is symmetric, like everything else in MINOS).
//!
//! [`run_single`] applies `W001`–`W004` to a lone enum with no paired
//! counterpart — the framed transport's envelope tags in
//! `crates/net/src/frame.rs` are audited this way.

use crate::diag::Diagnostic;
use crate::parse::{body_after, ident_at};
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// The extracted wire surface of one enum: variant names plus the
/// variant→tag maps seen in `encode` and `decode`.
#[derive(Debug, Default)]
pub struct EnumWire {
    /// Variant names with the line each is declared on.
    pub variants: Vec<(String, usize)>,
    /// `encode`: variant → (tag, line of the `put_u8`).
    pub encode: BTreeMap<String, (u64, usize)>,
    /// `decode`: variant → (tag, line of the match arm).
    pub decode: BTreeMap<String, (u64, usize)>,
}

/// Runs the audit over a protocol source file for the two enum names.
pub fn run(file: &SourceFile, request_enum: &str, response_enum: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let request = extract(file, request_enum, &mut out);
    let response = extract(file, response_enum, &mut out);
    check_enum(file, request_enum, &request, &mut out);
    check_enum(file, response_enum, &response, &mut out);

    // W005: request/response pairing.
    let req_tags: Vec<u64> = request.encode.values().map(|&(t, _)| t).collect();
    let resp_tags: Vec<u64> = response.encode.values().map(|&(t, _)| t).collect();
    for &(tag, line) in request.encode.values() {
        if !resp_tags.contains(&tag) {
            out.push(Diagnostic::new(
                "W005",
                &file.rel,
                line,
                format!("request tag {tag} has no paired {response_enum} tag"),
            ));
        }
    }
    for &(tag, line) in response.encode.values() {
        if !req_tags.contains(&tag) {
            out.push(Diagnostic::new(
                "W005",
                &file.rel,
                line,
                format!("response tag {tag} has no paired {request_enum} tag"),
            ));
        }
    }
    out
}

/// Runs the single-enum half of the audit (`W001`–`W004`) over one enum
/// with no request/response twin, such as the frame envelope's
/// `FramePayload`. There is no counterpart, so no `W005` pairing applies.
pub fn run_single(file: &SourceFile, enum_name: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let wire = extract(file, enum_name, &mut out);
    check_enum(file, enum_name, &wire, &mut out);
    out
}

fn check_enum(file: &SourceFile, name: &str, wire: &EnumWire, out: &mut Vec<Diagnostic>) {
    // W001: duplicate tags within encode and within decode.
    for (map, which) in [(&wire.encode, "encode"), (&wire.decode, "decode")] {
        let mut seen: BTreeMap<u64, &str> = BTreeMap::new();
        for (variant, &(tag, line)) in map {
            if let Some(first) = seen.get(&tag) {
                out.push(Diagnostic::new(
                    "W001",
                    &file.rel,
                    line,
                    format!("{name}::{variant} reuses wire tag {tag} (already used by {name}::{first} in {which})"),
                ));
            } else {
                seen.insert(tag, variant);
            }
        }
    }
    // W002/W003/W004 per variant.
    for (variant, decl_line) in &wire.variants {
        let enc = wire.encode.get(variant);
        let dec = wire.decode.get(variant);
        match (enc, dec) {
            (None, _) => out.push(Diagnostic::new(
                "W002",
                &file.rel,
                *decl_line,
                format!("{name}::{variant} never writes a wire tag in encode"),
            )),
            (_, None) => out.push(Diagnostic::new(
                "W003",
                &file.rel,
                *decl_line,
                format!("{name}::{variant} has no decode match arm"),
            )),
            (Some(&(enc_tag, _)), Some(&(dec_tag, dec_line))) if enc_tag != dec_tag => {
                out.push(Diagnostic::new(
                    "W004",
                    &file.rel,
                    dec_line,
                    format!("{name}::{variant} encodes tag {enc_tag} but decodes tag {dec_tag}"),
                ));
            }
            _ => {}
        }
    }
}

/// Extracts one enum's wire surface from the file. Shared with the spec
/// extractor, which serializes the same maps instead of checking them.
pub(crate) fn extract(file: &SourceFile, enum_name: &str, out: &mut Vec<Diagnostic>) -> EnumWire {
    let mut wire = EnumWire::default();
    // Each item is the first one whose head starts with its needle.
    let code = file.code.as_str();
    let Some(body) = code.find(&format!("enum {enum_name}")).and_then(|at| body_after(code, at))
    else {
        out.push(Diagnostic::new(
            "W002",
            &file.rel,
            1,
            format!("enum {enum_name} not found in {}", file.rel),
        ));
        return wire;
    };
    wire.variants = enum_variants(file, body);
    let variant_names: Vec<&str> = wire.variants.iter().map(|(v, _)| v.as_str()).collect();

    if let Some(impl_body) =
        code.find(&format!("impl {enum_name}")).and_then(|at| body_after(code, at))
    {
        let impl_code = &code[impl_body.0..impl_body.1];
        if let Some(enc) = impl_code.find("fn encode").and_then(|at| body_after(impl_code, at)) {
            wire.encode = encode_map(
                file,
                impl_body.0 + enc.0,
                &impl_code[enc.0..enc.1],
                enum_name,
                &variant_names,
            );
        }
        if let Some(dec) = impl_code.find("fn decode").and_then(|at| body_after(impl_code, at)) {
            wire.decode = decode_map(
                file,
                impl_body.0 + dec.0,
                &impl_code[dec.0..dec.1],
                enum_name,
                &variant_names,
            );
        }
    }
    wire
}

/// Collects variant names declared at depth 1 of an enum body.
fn enum_variants(file: &SourceFile, body: (usize, usize)) -> Vec<(String, usize)> {
    let code = &file.code[body.0..body.1];
    let mut variants = Vec::new();
    let mut depth = 0usize;
    let mut offset = 0;
    for line in code.split_inclusive('\n') {
        let depth_at_start = depth;
        for b in line.bytes() {
            match b {
                b'{' | b'(' | b'<' => depth += 1,
                b'}' | b')' | b'>' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        let trimmed = line.trim();
        if depth_at_start == 1
            && !trimmed.is_empty()
            && !trimmed.starts_with('#')
            && trimmed.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        {
            let name = ident_at(trimmed, 0);
            if !name.is_empty() {
                variants.push((name.to_string(), file.line_of(body.0 + offset)));
            }
        }
        offset += line.len();
    }
    variants
}

/// Builds the variant→tag map of an `encode` body: each `EnumName::Variant`
/// match arm is associated with the first `put_u8(<int>)` that follows it.
fn encode_map(
    file: &SourceFile,
    body_start: usize,
    code: &str,
    enum_name: &str,
    variants: &[&str],
) -> BTreeMap<String, (u64, usize)> {
    let mut map = BTreeMap::new();
    let mut current: Option<String> = None;
    let mut offset = 0;
    for line in code.split_inclusive('\n') {
        if let Some(variant) = variant_ref(line, enum_name, variants) {
            if line.contains("=>") {
                current = Some(variant);
            }
        }
        if let (Some(variant), Some(tag)) = (&current, int_arg(line, "put_u8(")) {
            let line_no = file.line_of(body_start + offset);
            map.entry(variant.clone()).or_insert((tag, line_no));
            current = None;
        }
        offset += line.len();
    }
    map
}

/// Builds the variant→tag map of a `decode` body: each integer match arm
/// (`3 => ...`) is associated with the first `EnumName::Variant` reference
/// in its body.
fn decode_map(
    file: &SourceFile,
    body_start: usize,
    code: &str,
    enum_name: &str,
    variants: &[&str],
) -> BTreeMap<String, (u64, usize)> {
    let mut map = BTreeMap::new();
    let mut current: Option<(u64, usize)> = None;
    let mut offset = 0;
    for line in code.split_inclusive('\n') {
        if let Some(arrow) = line.find("=>") {
            let pat = line[..arrow].trim();
            if let Ok(tag) = pat.replace('_', "").parse::<u64>() {
                current = Some((tag, file.line_of(body_start + offset)));
            } else if !pat.is_empty() && !pat.starts_with(|c: char| c.is_ascii_digit()) {
                // A non-integer arm (`other => ...`) ends tag attribution.
                current = None;
            }
        }
        if let Some((tag, arm_line)) = current {
            if let Some(variant) = variant_ref(line, enum_name, variants) {
                map.entry(variant).or_insert((tag, arm_line));
                current = None;
            }
        }
        offset += line.len();
    }
    map
}

/// The first `EnumName::Variant` reference on a line, if any.
fn variant_ref(line: &str, enum_name: &str, variants: &[&str]) -> Option<String> {
    let prefix = format!("{enum_name}::");
    let mut at = 0;
    while let Some(found) = line[at..].find(&prefix) {
        let start = at + found + prefix.len();
        let name = ident_at(line, start);
        if variants.contains(&name) {
            return Some(name.to_string());
        }
        at = start;
    }
    None
}

/// Parses `needle(<integer literal>` on a line, returning the integer.
fn int_arg(line: &str, needle: &str) -> Option<u64> {
    let at = line.find(needle)? + needle.len();
    let digits: String =
        line[at..].chars().take_while(|c| c.is_ascii_digit() || *c == '_').collect();
    if digits.is_empty() {
        return None;
    }
    digits.replace('_', "").parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const MINI: &str = r#"
pub enum ServerRequest {
    Fetch { id: u64 },
    Query { words: Vec<String> },
}

pub enum ServerResponse {
    Object(Vec<u8>),
    Hits(Vec<u64>),
}

impl ServerRequest {
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ServerRequest::Fetch { id } => {
                e.put_u8(1);
            }
            ServerRequest::Query { words } => {
                e.put_u8(2);
            }
        }
    }
    pub fn decode(bytes: &[u8]) -> Result<ServerRequest> {
        let req = match d.get_u8()? {
            1 => ServerRequest::Fetch { id: 0 },
            2 => {
                ServerRequest::Query { words: vec![] }
            }
            other => return Err(other),
        };
    }
}

impl ServerResponse {
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ServerResponse::Object(b) => {
                e.put_u8(1);
            }
            ServerResponse::Hits(h) => {
                e.put_u8(2);
            }
        }
    }
    pub fn decode(bytes: &[u8]) -> Result<ServerResponse> {
        let resp = match d.get_u8()? {
            1 => ServerResponse::Object(vec![]),
            2 => ServerResponse::Hits(vec![]),
            other => return Err(other),
        };
    }
}
"#;

    fn file(src: &str) -> SourceFile {
        SourceFile::from_text(PathBuf::from("p.rs"), "p.rs".into(), src.to_string())
    }

    #[test]
    fn clean_protocol_passes() {
        let diags = run(&file(MINI), "ServerRequest", "ServerResponse");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn extraction_sees_variants_and_tags() {
        let f = file(MINI);
        let mut out = Vec::new();
        let wire = extract(&f, "ServerRequest", &mut out);
        assert!(out.is_empty());
        let names: Vec<&str> = wire.variants.iter().map(|(v, _)| v.as_str()).collect();
        assert_eq!(names, vec!["Fetch", "Query"]);
        assert_eq!(wire.encode["Fetch"].0, 1);
        assert_eq!(wire.encode["Query"].0, 2);
        assert_eq!(wire.decode["Fetch"].0, 1);
        assert_eq!(wire.decode["Query"].0, 2);
    }

    #[test]
    fn duplicate_tag_is_w001() {
        let src = MINI.replace("e.put_u8(2);\n            }\n        }\n    }\n    pub fn decode(bytes: &[u8]) -> Result<ServerRequest>", "e.put_u8(1);\n            }\n        }\n    }\n    pub fn decode(bytes: &[u8]) -> Result<ServerRequest>");
        let diags = run(&file(&src), "ServerRequest", "ServerResponse");
        assert!(diags.iter().any(|d| d.rule == "W001"), "{diags:?}");
    }

    #[test]
    fn missing_decode_arm_is_w003() {
        let src = MINI.replace("            2 => {\n                ServerRequest::Query { words: vec![] }\n            }\n", "");
        let diags = run(&file(&src), "ServerRequest", "ServerResponse");
        assert!(diags.iter().any(|d| d.rule == "W003" && d.message.contains("Query")), "{diags:?}");
    }

    #[test]
    fn tag_disagreement_is_w004() {
        let src = MINI.replace(
            "1 => ServerRequest::Fetch { id: 0 },",
            "3 => ServerRequest::Fetch { id: 0 },",
        );
        let diags = run(&file(&src), "ServerRequest", "ServerResponse");
        assert!(diags.iter().any(|d| d.rule == "W004"), "{diags:?}");
    }

    #[test]
    fn unpaired_tag_is_w005() {
        let src = MINI.replace(
            "ServerResponse::Hits(h) => {\n                e.put_u8(2);",
            "ServerResponse::Hits(h) => {\n                e.put_u8(9);",
        );
        let diags = run(&file(&src), "ServerRequest", "ServerResponse");
        // Response tag 9 unpaired, and request tag 2 unpaired.
        assert_eq!(diags.iter().filter(|d| d.rule == "W005").count(), 2, "{diags:?}");
        // W004 too: decode still says 2.
        assert!(diags.iter().any(|d| d.rule == "W004"), "{diags:?}");
    }
}

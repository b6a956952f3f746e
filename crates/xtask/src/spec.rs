//! Machine-readable protocol spec extraction and conformance
//! (`minos-xtask -- spec`).
//!
//! The wire contract — request/response tags, the frame envelope, the
//! priority bytes, the epoch handshake, the CRC trailer — lives in match
//! arms scattered across `net::protocol` and `net::frame`. This module
//! walks those arms (reusing the wire-pass extractor) and serializes the
//! result as deterministic JSON, so protocol drift becomes a reviewable
//! one-line diff against the committed golden `spec/protocol.json`
//! instead of an archaeology exercise:
//!
//! * `X001` — the extracted spec violates a conformance invariant:
//!   unpaired request/response tags, a missing or mismatched
//!   `Hello`/`Welcome` handshake, missing envelope tags, duplicate
//!   priority bytes, or a missing CRC trailer.
//! * `X002` — the extracted spec no longer matches the committed golden.
//!   Intentional protocol changes regenerate it with
//!   `minos-xtask -- spec --write` and commit the diff.

use crate::diag::{json_string, Diagnostic};
use crate::parse::{fns_in, ident_at, impl_blocks};
use crate::passes::wire;
use crate::source::SourceFile;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// The protocol definition the extractor parses.
pub const PROTOCOL_FILE: &str = "crates/net/src/protocol.rs";
/// The frame envelope (payload tags, priority bytes, CRC trailer).
pub const FRAME_FILE: &str = "crates/net/src/frame.rs";
/// The committed golden spec the extraction is diffed against.
pub const GOLDEN_FILE: &str = "spec/protocol.json";

/// The extracted wire contract. All maps are ordered, so serialization
/// is deterministic by construction.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ProtocolSpec {
    /// Request wire tag → variant name, with the source line.
    pub request_tags: BTreeMap<u64, (String, usize)>,
    /// Response wire tag → variant name, with the source line.
    pub response_tags: BTreeMap<u64, (String, usize)>,
    /// Frame envelope payload tag → variant name.
    pub envelope_tags: BTreeMap<u64, (String, usize)>,
    /// Priority class name → wire byte.
    pub priority_bytes: BTreeMap<String, u64>,
    /// The epoch-handshake request tag (`Hello`).
    pub hello_tag: Option<u64>,
    /// The epoch-handshake response tag (`Welcome`).
    pub welcome_tag: Option<u64>,
    /// Bytes of the CRC trailer every encoded frame carries.
    pub crc_trailer_len: Option<u64>,
}

impl ProtocolSpec {
    /// Extracts the spec from the protocol and frame code views. The
    /// names are fixed by the wire contract: `ServerRequest` /
    /// `ServerResponse` in the protocol file, `FramePayload` and
    /// `Priority` in the frame file.
    pub fn extract(protocol: &SourceFile, frame: &SourceFile) -> ProtocolSpec {
        let mut sink = Vec::new();
        let request = wire::extract(protocol, "ServerRequest", &mut sink);
        let response = wire::extract(protocol, "ServerResponse", &mut sink);
        let envelope = wire::extract(frame, "FramePayload", &mut sink);

        let tag_map = |wire: &wire::EnumWire| {
            wire.encode
                .iter()
                .map(|(variant, &(tag, line))| (tag, (variant.clone(), line)))
                .collect::<BTreeMap<u64, (String, usize)>>()
        };
        let request_tags = tag_map(&request);
        let response_tags = tag_map(&response);
        let hello_tag = request.encode.get("Hello").map(|&(tag, _)| tag);
        let welcome_tag = response.encode.get("Welcome").map(|&(tag, _)| tag);

        ProtocolSpec {
            request_tags,
            response_tags,
            envelope_tags: tag_map(&envelope),
            priority_bytes: priority_bytes(frame),
            hello_tag,
            welcome_tag,
            crc_trailer_len: crc_trailer_len(frame),
        }
    }

    /// Validates the spec's internal invariants, returning `X001`
    /// findings anchored at the offending tags.
    pub fn conformance(&self, protocol_rel: &str, frame_rel: &str) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (tag, (variant, line)) in &self.request_tags {
            if !self.response_tags.contains_key(tag) {
                out.push(Diagnostic::new(
                    "X001",
                    protocol_rel,
                    *line,
                    format!("request tag {tag} ({variant}) has no paired response tag"),
                ));
            }
        }
        for (tag, (variant, line)) in &self.response_tags {
            if !self.request_tags.contains_key(tag) {
                out.push(Diagnostic::new(
                    "X001",
                    protocol_rel,
                    *line,
                    format!("response tag {tag} ({variant}) has no paired request tag"),
                ));
            }
        }
        match (self.hello_tag, self.welcome_tag) {
            (Some(h), Some(w)) if h != w => out.push(Diagnostic::new(
                "X001",
                protocol_rel,
                1,
                format!("epoch handshake tags disagree: Hello is {h} but Welcome is {w}"),
            )),
            (Some(_), Some(_)) => {}
            _ => out.push(Diagnostic::new(
                "X001",
                protocol_rel,
                1,
                "epoch handshake incomplete: the protocol needs both a Hello request \
                 and a Welcome response",
            )),
        }
        if self.envelope_tags.is_empty() {
            out.push(Diagnostic::new(
                "X001",
                frame_rel,
                1,
                "no frame envelope payload tags extracted",
            ));
        }
        let mut seen: BTreeMap<u64, &str> = BTreeMap::new();
        for (class, &byte) in &self.priority_bytes {
            if let Some(first) = seen.insert(byte, class) {
                out.push(Diagnostic::new(
                    "X001",
                    frame_rel,
                    1,
                    format!("priority classes {first} and {class} share wire byte {byte}"),
                ));
            }
        }
        if self.priority_bytes.is_empty() {
            out.push(Diagnostic::new("X001", frame_rel, 1, "no priority wire bytes extracted"));
        }
        match self.crc_trailer_len {
            Some(len) if len > 0 => {}
            _ => out.push(Diagnostic::new(
                "X001",
                frame_rel,
                1,
                "no CRC trailer on the frame envelope (CRC_TRAILER_LEN missing or zero)",
            )),
        }
        out
    }

    /// Serializes the spec as deterministic, pretty-printed JSON (sorted
    /// keys, trailing newline) — the exact bytes of `spec/protocol.json`.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"crc_trailer_len\": {},\n", opt(self.crc_trailer_len)));
        s.push_str("  \"envelope_tags\": {\n");
        push_tag_map(&mut s, &self.envelope_tags);
        s.push_str("  },\n");
        s.push_str(&format!(
            "  \"handshake\": {{ \"hello\": {}, \"welcome\": {} }},\n",
            opt(self.hello_tag),
            opt(self.welcome_tag)
        ));
        s.push_str("  \"pairing\": [\n");
        let paired: Vec<String> = self
            .request_tags
            .iter()
            .filter_map(|(tag, (req, _))| {
                self.response_tags.get(tag).map(|(resp, _)| {
                    format!(
                        "    {{ \"tag\": {tag}, \"request\": {}, \"response\": {} }}",
                        json_string(req),
                        json_string(resp)
                    )
                })
            })
            .collect();
        s.push_str(&paired.join(",\n"));
        s.push_str("\n  ],\n");
        s.push_str("  \"priority_bytes\": {\n");
        let classes: Vec<String> = self
            .priority_bytes
            .iter()
            .map(|(class, byte)| format!("    {}: {byte}", json_string(class)))
            .collect();
        s.push_str(&classes.join(",\n"));
        s.push_str("\n  },\n");
        s.push_str("  \"request_tags\": {\n");
        push_tag_map(&mut s, &self.request_tags);
        s.push_str("  },\n");
        s.push_str("  \"response_tags\": {\n");
        push_tag_map(&mut s, &self.response_tags);
        s.push_str("  }\n}\n");
        s
    }
}

fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

fn push_tag_map(s: &mut String, map: &BTreeMap<u64, (String, usize)>) {
    let entries: Vec<String> = map
        .iter()
        .map(|(tag, (name, _))| format!("    \"{tag}\": {}", json_string(name)))
        .collect();
    s.push_str(&entries.join(",\n"));
    if !entries.is_empty() {
        s.push('\n');
    }
}

/// Parses the `Priority::Class => byte` arms of `impl Priority`'s
/// `wire_tag` fn.
fn priority_bytes(frame: &SourceFile) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for block in impl_blocks(&frame.code) {
        if block.owner != "Priority" {
            continue;
        }
        for f in fns_in(&frame.code, block.body) {
            if f.name != "wire_tag" {
                continue;
            }
            for line in frame.code[f.body.0..f.body.1].lines() {
                let Some(arrow) = line.find("=>") else { continue };
                let Some(at) = line.find("Priority::") else { continue };
                let class = ident_at(line, at + "Priority::".len());
                let digits: String = line[arrow + 2..]
                    .trim_start()
                    .chars()
                    .take_while(|c| c.is_ascii_digit() || *c == '_')
                    .collect();
                if let Ok(byte) = digits.replace('_', "").parse::<u64>() {
                    if !class.is_empty() {
                        out.insert(class.to_string(), byte);
                    }
                }
            }
        }
    }
    out
}

/// Parses the `CRC_TRAILER_LEN` constant from the frame file.
fn crc_trailer_len(frame: &SourceFile) -> Option<u64> {
    let at = frame.code.find("CRC_TRAILER_LEN")?;
    let rest = &frame.code[at..];
    let eq = rest.find('=')?;
    let digits: String = rest[eq + 1..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '_')
        .collect();
    digits.replace('_', "").parse().ok()
}

/// What a spec run produced: the spec plus any conformance findings.
#[derive(Debug)]
pub struct SpecOutcome {
    /// The extracted contract.
    pub spec: ProtocolSpec,
    /// `X001` conformance findings (empty when the contract is coherent).
    pub errors: Vec<Diagnostic>,
}

/// Extracts the spec from the workspace rooted at `root` and validates
/// its conformance invariants.
pub fn spec_workspace(root: &Path) -> io::Result<SpecOutcome> {
    let protocol = SourceFile::load(&root.join(PROTOCOL_FILE), PROTOCOL_FILE)?;
    let frame = SourceFile::load(&root.join(FRAME_FILE), FRAME_FILE)?;
    let spec = ProtocolSpec::extract(&protocol, &frame);
    let errors = spec.conformance(PROTOCOL_FILE, FRAME_FILE);
    Ok(SpecOutcome { spec, errors })
}

/// Diffs the extracted spec against the committed golden, returning
/// `X002` findings on drift (or a missing golden).
pub fn check_golden(root: &Path, spec: &ProtocolSpec) -> Vec<Diagnostic> {
    let golden_path = root.join(GOLDEN_FILE);
    let Ok(golden) = std::fs::read_to_string(&golden_path) else {
        return vec![Diagnostic::new(
            "X002",
            GOLDEN_FILE,
            1,
            "golden spec missing; generate it with `minos-xtask -- spec --write` and commit it",
        )];
    };
    let current = spec.to_json();
    if golden == current {
        return Vec::new();
    }
    let line = golden
        .lines()
        .zip(current.lines())
        .position(|(g, c)| g != c)
        .map_or_else(|| golden.lines().count().min(current.lines().count()) + 1, |i| i + 1);
    vec![Diagnostic::new(
        "X002",
        GOLDEN_FILE,
        line,
        "extracted protocol spec drifted from the committed golden (first difference at \
         this line); review the change, then regenerate with `minos-xtask -- spec --write`",
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const FRAME_SRC: &str = "\
const CRC_TRAILER_LEN: usize = 4;

pub enum FramePayload {
    Request(ServerRequest),
    Response(ServerResponse),
}

impl FramePayload {
    pub fn encode(&self) -> Vec<u8> {
        match self {
            FramePayload::Request(r) => {
                e.put_u8(1);
            }
            FramePayload::Response(r) => {
                e.put_u8(2);
            }
        }
    }
    pub fn decode(bytes: &[u8]) -> Result<FramePayload> {
        let p = match d.get_u8()? {
            1 => FramePayload::Request(r),
            2 => FramePayload::Response(r),
            other => return Err(other),
        };
    }
}

impl Priority {
    pub fn wire_tag(self) -> u8 {
        match self {
            Priority::Audio => 0,
            Priority::Demand => 1,
            Priority::Prefetch => 2,
        }
    }
}
";

    const PROTOCOL_SRC: &str = "\
pub enum ServerRequest {
    Fetch { id: u64 },
    Hello { epoch: u64 },
}
pub enum ServerResponse {
    Object(Vec<u8>),
    Welcome { epoch: u64 },
}
impl ServerRequest {
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ServerRequest::Fetch { id } => {
                e.put_u8(1);
            }
            ServerRequest::Hello { epoch } => {
                e.put_u8(8);
            }
        }
    }
    pub fn decode(bytes: &[u8]) -> Result<ServerRequest> {
        let req = match d.get_u8()? {
            1 => ServerRequest::Fetch { id: 0 },
            8 => ServerRequest::Hello { epoch: 0 },
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
            ServerResponse::Welcome { epoch } => {
                e.put_u8(8);
            }
        }
    }
    pub fn decode(bytes: &[u8]) -> Result<ServerResponse> {
        let resp = match d.get_u8()? {
            1 => ServerResponse::Object(vec![]),
            8 => ServerResponse::Welcome { epoch: 0 },
            other => return Err(other),
        };
    }
}
";

    fn file(name: &str, src: &str) -> SourceFile {
        SourceFile::from_text(PathBuf::from(name), name.into(), src.to_string())
    }

    fn mini_spec() -> ProtocolSpec {
        ProtocolSpec::extract(&file("p.rs", PROTOCOL_SRC), &file("f.rs", FRAME_SRC))
    }

    #[test]
    fn extraction_sees_the_whole_contract() {
        let spec = mini_spec();
        assert_eq!(spec.request_tags[&1].0, "Fetch");
        assert_eq!(spec.request_tags[&8].0, "Hello");
        assert_eq!(spec.response_tags[&8].0, "Welcome");
        assert_eq!(spec.envelope_tags[&1].0, "Request");
        assert_eq!(spec.envelope_tags[&2].0, "Response");
        assert_eq!(spec.priority_bytes["Audio"], 0);
        assert_eq!(spec.priority_bytes["Prefetch"], 2);
        assert_eq!(spec.hello_tag, Some(8));
        assert_eq!(spec.welcome_tag, Some(8));
        assert_eq!(spec.crc_trailer_len, Some(4));
    }

    #[test]
    fn coherent_contract_conforms() {
        let errors = mini_spec().conformance("p.rs", "f.rs");
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn unpaired_tag_fails_conformance() {
        let src = PROTOCOL_SRC.replace(
            "ServerResponse::Object(b) => {\n                e.put_u8(1);",
            "ServerResponse::Object(b) => {\n                e.put_u8(3);",
        );
        let spec = ProtocolSpec::extract(&file("p.rs", &src), &file("f.rs", FRAME_SRC));
        let errors = spec.conformance("p.rs", "f.rs");
        assert!(
            errors.iter().any(|d| d.rule == "X001" && d.message.contains("no paired")),
            "{errors:?}"
        );
    }

    #[test]
    fn missing_handshake_and_crc_fail_conformance() {
        let protocol = PROTOCOL_SRC.replace("Hello", "Greet").replace("Welcome", "Accept");
        let frame = FRAME_SRC.replace("const CRC_TRAILER_LEN: usize = 4;", "");
        let spec = ProtocolSpec::extract(&file("p.rs", &protocol), &file("f.rs", &frame));
        let errors = spec.conformance("p.rs", "f.rs");
        assert!(errors.iter().any(|d| d.message.contains("handshake incomplete")), "{errors:?}");
        assert!(errors.iter().any(|d| d.message.contains("CRC trailer")), "{errors:?}");
    }

    #[test]
    fn duplicate_priority_byte_fails_conformance() {
        let frame = FRAME_SRC.replace("Priority::Demand => 1,", "Priority::Demand => 0,");
        let spec = ProtocolSpec::extract(&file("p.rs", PROTOCOL_SRC), &file("f.rs", &frame));
        let errors = spec.conformance("p.rs", "f.rs");
        assert!(errors.iter().any(|d| d.message.contains("share wire byte 0")), "{errors:?}");
    }

    #[test]
    fn json_is_deterministic_and_shaped() {
        let a = mini_spec().to_json();
        let b = mini_spec().to_json();
        assert_eq!(a, b);
        assert!(a.ends_with("}\n"));
        assert!(a.contains("\"crc_trailer_len\": 4"));
        assert!(a.contains("\"handshake\": { \"hello\": 8, \"welcome\": 8 }"));
        assert!(a.contains("{ \"tag\": 1, \"request\": \"Fetch\", \"response\": \"Object\" }"));
    }
}

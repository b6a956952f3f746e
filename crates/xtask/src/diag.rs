//! Diagnostics and the rule registry.

use std::fmt;

/// One `file:line` finding emitted by a pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule code (`W001`, `P002`, ...). Always one of [`RULES`].
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the finding.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic.
    pub fn new(rule: &'static str, file: &str, line: usize, message: impl Into<String>) -> Self {
        Diagnostic { rule, file: file.to_string(), line, message: message.into() }
    }

    /// The diagnostic as one stable JSON object (for `lint --json`):
    /// `{"rule":...,"file":...,"line":...,"message":...}`, keys in that
    /// fixed order so CI annotations never re-parse human text.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{}}}",
            json_string(self.rule),
            json_string(&self.file),
            self.line,
            json_string(&self.message)
        )
    }
}

/// Escapes `s` as a JSON string literal (quotes included). Shared by the
/// `--json` diagnostics output and the spec extractor's emitter.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// A registered rule: its code, which pass owns it, what it means, and
/// whether existing findings may be ratcheted through `lint-allow.toml`.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable rule code used in diagnostics and the allow file.
    pub code: &'static str,
    /// Owning pass name.
    pub pass: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Whether `lint-allow.toml` entries may cap this rule. Structural
    /// invariants (wire tags, symmetry) are never allowlistable.
    pub ratchetable: bool,
}

/// Every rule the lint can emit.
pub const RULES: &[Rule] = &[
    Rule {
        code: "W001",
        pass: "wire",
        summary: "duplicate wire tag within one enum's encode/decode",
        ratchetable: false,
    },
    Rule {
        code: "W002",
        pass: "wire",
        summary: "enum variant never assigned a tag in encode",
        ratchetable: false,
    },
    Rule {
        code: "W003",
        pass: "wire",
        summary: "enum variant has no decode match arm",
        ratchetable: false,
    },
    Rule {
        code: "W004",
        pass: "wire",
        summary: "encode and decode disagree on a variant's tag",
        ratchetable: false,
    },
    Rule {
        code: "W005",
        pass: "wire",
        summary: "request and response tag sets do not pair up",
        ratchetable: false,
    },
    Rule {
        code: "P001",
        pass: "panic-freedom",
        summary: "unwrap() in non-test hot-path code",
        ratchetable: true,
    },
    Rule {
        code: "P002",
        pass: "panic-freedom",
        summary: "expect() in non-test hot-path code",
        ratchetable: true,
    },
    Rule {
        code: "P003",
        pass: "panic-freedom",
        summary: "panic!/todo!/unimplemented!/unreachable! in non-test hot-path code",
        ratchetable: true,
    },
    Rule {
        code: "P004",
        pass: "panic-freedom",
        summary: "bare slice/collection indexing in non-test hot-path code",
        ratchetable: true,
    },
    Rule {
        code: "U001",
        pass: "unit-safety",
        summary: "narrowing `as` cast on u128 arithmetic (transfer_cost bug class)",
        ratchetable: true,
    },
    Rule {
        code: "U002",
        pass: "unit-safety",
        summary: "narrowing `as` cast on duration arithmetic outside types/time.rs",
        ratchetable: true,
    },
    Rule {
        code: "U003",
        pass: "unit-safety",
        summary: "varint element count narrowed with `as`; bound via Decoder::get_len or try_from",
        ratchetable: true,
    },
    Rule {
        code: "Q001",
        pass: "queue-growth",
        summary: "queue growth (push/push_back) with no reachable capacity check",
        ratchetable: true,
    },
    Rule {
        code: "A001",
        pass: "alloc-hygiene",
        summary: "fresh allocation (to_vec/clone/with_capacity) on a pooled hot-path module",
        ratchetable: true,
    },
    Rule {
        code: "C001",
        pass: "codec-coverage",
        summary: "type encodes but has no decode",
        ratchetable: false,
    },
    Rule {
        code: "C002",
        pass: "codec-coverage",
        summary: "raw varint used as an element count; bound it via Decoder::get_len",
        ratchetable: true,
    },
    Rule {
        code: "C003",
        pass: "codec-coverage",
        summary: "versioned encode whose decode never checks the version",
        ratchetable: false,
    },
    Rule {
        code: "X001",
        pass: "spec",
        summary: "extracted protocol spec violates a conformance invariant",
        ratchetable: false,
    },
    Rule {
        code: "X002",
        pass: "spec",
        summary: "extracted protocol spec drifted from the committed golden",
        ratchetable: false,
    },
    Rule {
        code: "S001",
        pass: "symmetry",
        summary: "text browsing primitive lacks a voice counterpart",
        ratchetable: false,
    },
    Rule {
        code: "S002",
        pass: "symmetry",
        summary: "voice browsing primitive lacks a text counterpart",
        ratchetable: false,
    },
    Rule {
        code: "S003",
        pass: "symmetry",
        summary: "browsing primitive missing from both substrates",
        ratchetable: false,
    },
];

/// Looks up a rule by code.
pub fn rule(code: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.code == code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_resolvable() {
        for (i, r) in RULES.iter().enumerate() {
            assert!(RULES.iter().skip(i + 1).all(|o| o.code != r.code), "dup {}", r.code);
            assert_eq!(rule(r.code).unwrap().code, r.code);
        }
        assert!(rule("Z999").is_none());
    }

    #[test]
    fn display_is_file_line_code_message() {
        let d = Diagnostic::new("P001", "crates/net/src/link.rs", 7, "unwrap() on hot path");
        assert_eq!(d.to_string(), "crates/net/src/link.rs:7: [P001] unwrap() on hot path");
    }

    #[test]
    fn json_output_is_stable_and_escaped() {
        let d = Diagnostic::new("P001", "a/b.rs", 7, "say \"no\"\n\tto panics");
        assert_eq!(
            d.to_json(),
            "{\"rule\":\"P001\",\"file\":\"a/b.rs\",\"line\":7,\
             \"message\":\"say \\\"no\\\"\\n\\tto panics\"}"
        );
        assert_eq!(json_string("back\\slash"), "\"back\\\\slash\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}

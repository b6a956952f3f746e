//! Symmetry audit (`S001`–`S003`).
//!
//! "The information system should provide symmetric capabilities for
//! entering, presenting, and browsing through voice or text" (§1). The
//! paper's Section 2 browsing vocabulary — pages, logical-unit steps,
//! pattern/utterance search — must exist on both substrates. This pass
//! extracts the fully-public `pub fn` surface of `crates/text` and
//! `crates/voice` with the signature parser, plus the *shared* surface —
//! the `pub fn`s of the generic [`SHARED_TYPE`] in [`SHARED_FILE`], which
//! the text tree and the voice marks both instantiate — and checks every
//! primitive category below against both sides. A shared function serves
//! text and voice alike, so it satisfies its category on both sides at
//! once:
//!
//! * `S001` — the text side has the primitive, the voice side does not;
//! * `S002` — the voice side has it, the text side does not;
//! * `S003` — the primitive has vanished from both substrates (and from
//!   the shared surface).
//!
//! The category table names the accepted function spellings per side
//! (text addresses characters, voice addresses instants, so the names
//! differ where the coordinate does). Growing either substrate with a new
//! browsing primitive means adding a category here — which immediately
//! demands the counterpart.

use crate::diag::Diagnostic;
use crate::sig::PubFn;

/// The file holding the unit index both substrates share.
pub const SHARED_FILE: &str = "crates/text/src/logical.rs";

/// The generic type whose inherent `pub fn`s serve text and voice alike.
pub const SHARED_TYPE: &str = "UnitIndex";

/// One browsing-primitive category of the paper's Section 2 vocabulary.
#[derive(Debug, Clone, Copy)]
pub struct PrimitiveCategory {
    /// Category name used in diagnostics.
    pub name: &'static str,
    /// Accepted text-side function names.
    pub text: &'static [&'static str],
    /// Accepted voice-side function names.
    pub voice: &'static [&'static str],
}

/// The paper's browsing vocabulary, one category per primitive.
pub const CATEGORIES: &[PrimitiveCategory] = &[
    PrimitiveCategory { name: "page count", text: &["page_count"], voice: &["page_count"] },
    PrimitiveCategory {
        name: "page addressing (position -> page)",
        text: &["page_containing"],
        voice: &["page_containing"],
    },
    PrimitiveCategory {
        name: "page-number addressing",
        text: &["page_number_containing"],
        voice: &["page_number_containing"],
    },
    PrimitiveCategory {
        name: "logical-unit step forward",
        text: &["next_start_after"],
        voice: &["next_start_after"],
    },
    PrimitiveCategory {
        name: "logical-unit step backward",
        text: &["prev_start_before"],
        voice: &["prev_start_before"],
    },
    PrimitiveCategory {
        name: "logical-unit levels",
        text: &["available_levels"],
        voice: &["available_levels"],
    },
    PrimitiveCategory { name: "logical-unit count", text: &["count"], voice: &["count"] },
    PrimitiveCategory {
        name: "pattern/utterance search forward",
        text: &["find_next", "next_occurrence"],
        voice: &["next_occurrence"],
    },
    PrimitiveCategory {
        name: "pattern/utterance search backward",
        text: &["find_prev", "prev_occurrence"],
        voice: &["prev_occurrence"],
    },
    PrimitiveCategory {
        name: "pattern/utterance search all occurrences",
        text: &["find_all", "positions"],
        voice: &["occurrences"],
    },
];

/// Runs the audit over the two extracted surfaces and the surface both
/// share.
pub fn run(text_fns: &[PubFn], voice_fns: &[PubFn], shared_fns: &[PubFn]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for cat in CATEGORIES {
        let text_hit = first_match(text_fns, cat.text).or(first_match(shared_fns, cat.text));
        let voice_hit = first_match(voice_fns, cat.voice).or(first_match(shared_fns, cat.voice));
        match (text_hit, voice_hit) {
            (Some(_), Some(_)) => {}
            (Some(t), None) => out.push(Diagnostic::new(
                "S001",
                &t.file,
                t.line,
                format!(
                    "text primitive {:?} ({}) has no voice counterpart; expected one of {:?} \
                     in crates/voice",
                    t.name, cat.name, cat.voice
                ),
            )),
            (None, Some(v)) => out.push(Diagnostic::new(
                "S002",
                &v.file,
                v.line,
                format!(
                    "voice primitive {:?} ({}) has no text counterpart; expected one of {:?} \
                     in crates/text",
                    v.name, cat.name, cat.text
                ),
            )),
            (None, None) => out.push(Diagnostic::new(
                "S003",
                "crates/text/src/lib.rs",
                1,
                format!(
                    "browsing primitive {:?} is missing from both substrates (text: {:?}, \
                     voice: {:?})",
                    cat.name, cat.text, cat.voice
                ),
            )),
        }
    }
    out
}

fn first_match<'a>(fns: &'a [PubFn], names: &[&str]) -> Option<&'a PubFn> {
    fns.iter().find(|f| names.contains(&f.name.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sig::Visibility;

    fn f(name: &str, file: &str) -> PubFn {
        PubFn {
            name: name.into(),
            params: String::new(),
            ret: None,
            file: file.into(),
            line: 1,
            vis: Visibility::Public,
        }
    }

    fn full_surface(names: &[&str], file: &str) -> Vec<PubFn> {
        names.iter().map(|n| f(n, file)).collect()
    }

    const TEXT_OK: &[&str] = &[
        "page_count",
        "page_containing",
        "page_number_containing",
        "next_start_after",
        "prev_start_before",
        "available_levels",
        "count",
        "find_next",
        "find_prev",
        "find_all",
    ];
    const VOICE_OK: &[&str] = &[
        "page_count",
        "page_containing",
        "page_number_containing",
        "next_start_after",
        "prev_start_before",
        "available_levels",
        "count",
        "next_occurrence",
        "prev_occurrence",
        "occurrences",
    ];

    #[test]
    fn symmetric_surfaces_pass() {
        let diags = run(&full_surface(TEXT_OK, "t.rs"), &full_surface(VOICE_OK, "v.rs"), &[]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn missing_voice_counterpart_is_s001() {
        let voice: Vec<&str> =
            VOICE_OK.iter().copied().filter(|n| *n != "prev_occurrence").collect();
        let diags = run(&full_surface(TEXT_OK, "t.rs"), &full_surface(&voice, "v.rs"), &[]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "S001");
        assert!(diags[0].message.contains("search backward"));
        assert_eq!(diags[0].file, "t.rs");
    }

    #[test]
    fn missing_text_counterpart_is_s002() {
        let text: Vec<&str> = TEXT_OK.iter().copied().filter(|n| *n != "page_count").collect();
        let diags = run(&full_surface(&text, "t.rs"), &full_surface(VOICE_OK, "v.rs"), &[]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "S002");
        assert_eq!(diags[0].file, "v.rs");
    }

    #[test]
    fn primitive_gone_from_both_is_s003() {
        let text: Vec<&str> = TEXT_OK.iter().copied().filter(|n| *n != "count").collect();
        let voice: Vec<&str> = VOICE_OK.iter().copied().filter(|n| *n != "count").collect();
        let diags = run(&full_surface(&text, "t.rs"), &full_surface(&voice, "v.rs"), &[]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "S003");
    }
}

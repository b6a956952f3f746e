//! Queue-growth audit (`Q001`).
//!
//! Admission control only works when every queue on the overload path has
//! a reachable capacity check. This pass flags `.push(...)` and
//! `.push_back(...)` growth sites in the transport and service scope whose
//! enclosing function never consults a capacity — the bug class the E14
//! admission work exists to prevent: a buffer that grows without bound
//! under a 4x offered load until the latency tail collapses.
//!
//! The heuristic is intentionally local: a growth site is *guarded* when
//! the enclosing `fn` (signature included) mentions a capacity-shaped
//! identifier fragment — `full`, `cap`/`capacity`, `limit`, `bound`,
//! `admit`, `shed`, `evict`, `truncate`. Sites that are bounded elsewhere
//! (the caller checked, or the collection is drained in lockstep) are
//! enumerated in `lint-allow.toml` with a reason, and the ratchet keeps
//! that debt shrink-only.

use crate::diag::Diagnostic;
use crate::parse::{fn_items, ident_tokens};
use crate::source::SourceFile;

/// Method calls that grow a queue or buffer.
const GROWTH_CALLS: &[&str] = &[".push_back(", ".push("];

/// Identifier fragments (underscore-split, case-folded) that mark the
/// enclosing function as capacity-aware.
const CAPACITY_TOKENS: &[&str] = &[
    "full", "cap", "caps", "capacity", "limit", "bound", "bounded", "admit", "shed", "evict",
    "truncate",
];

/// Runs the pass over already-scoped files.
pub fn run(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in files {
        // Every fn at every depth: a nested fn yields its own extent, and
        // the innermost enclosing one wins below.
        let fns = fn_items(&file.code);
        for call in GROWTH_CALLS {
            for (pos, _) in file.code.match_indices(call) {
                // `.push(` must not re-report a `.push_back(` site.
                if *call == ".push(" && file.code[pos..].starts_with(".push_back(") {
                    continue;
                }
                let line = file.line_of(pos);
                if file.is_test_line(line) {
                    continue;
                }
                let enclosing =
                    fns.iter().filter(|f| f.at <= pos && pos < f.body.1).max_by_key(|f| f.at);
                let guarded = enclosing.is_some_and(|f| capacity_aware(&file.code[f.at..f.body.1]));
                if !guarded {
                    out.push(Diagnostic::new(
                        "Q001",
                        &file.rel,
                        line,
                        format!(
                            "unchecked queue growth `{}...)`: the enclosing fn never consults \
                             a capacity (is_full/cap/limit/shed); bound it or ratchet it in \
                             lint-allow.toml with a reason",
                            call
                        ),
                    ));
                }
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// Whether a function's text (signature + body) mentions a capacity-shaped
/// identifier: any underscore-split fragment of any identifier equals one
/// of [`CAPACITY_TOKENS`], case-folded. Fragment equality — not substring
/// match — so `escape` never counts as `cap`.
fn capacity_aware(text: &str) -> bool {
    ident_tokens(text)
        .into_iter()
        .flat_map(|ident| ident.split('_'))
        .any(|part| CAPACITY_TOKENS.iter().any(|t| part.eq_ignore_ascii_case(t)))
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
    fn flags_push_and_push_back_without_a_capacity_check() {
        let diags =
            run_on("fn grow(q: &mut Q) {\n    q.inbox.push_back(1);\n    q.log.push(2);\n}\n");
        let lines: Vec<usize> = diags.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![2, 3], "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "Q001"));
    }

    #[test]
    fn capacity_tokens_in_the_enclosing_fn_exempt_the_site() {
        for guarded in [
            "fn admit(q: &mut Q) {\n    if q.is_full() { return; }\n    q.inbox.push_back(1);\n}\n",
            "fn enqueue(q: &mut Q) {\n    if q.len() >= q.global_cap { return; }\n    q.inbox.push_back(1);\n}\n",
            "fn enqueue(q: &mut Q, limit: usize) {\n    q.inbox.truncate(limit);\n    q.inbox.push_back(1);\n}\n",
            "fn shed_then_grow(q: &mut Q) {\n    q.inbox.push_back(1);\n}\n",
        ] {
            assert!(run_on(guarded).is_empty(), "{guarded}");
        }
    }

    #[test]
    fn fragment_equality_does_not_false_exempt() {
        // `escape` contains `cap` as a substring but not as a fragment;
        // `recapture` likewise. Neither guards the growth.
        let diags = run_on("fn escape_recapture(q: &mut Q) {\n    q.inbox.push_back(1);\n}\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn innermost_fn_wins_for_nested_items() {
        // The outer fn is capacity-aware, the inner closure-hosting fn is
        // not: the site binds to the innermost fn and is flagged.
        let diags = run_on(
            "fn outer_with_cap(q: &mut Q) {\n    fn inner(q: &mut Q) {\n        q.inbox.push_back(1);\n    }\n    inner(q);\n}\n",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn test_code_and_strings_are_exempt() {
        let src = "fn live() { let s = \".push_back(\"; }\n#[cfg(test)]\nmod tests {\n    fn t(q: &mut Q) { q.inbox.push_back(1); }\n}\n";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn bodyless_trait_signatures_do_not_confuse_extents() {
        let src = "trait T {\n    fn declared(&self);\n    fn provided(&mut self) {\n        self.queue.push(1);\n    }\n}\n";
        let diags = run_on(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 4);
    }
}

//! Pass orchestration over the real workspace tree.

use crate::allow;
use crate::diag::Diagnostic;
use crate::passes::{alloc_hygiene, codec_cov, panic_free, queue_growth, symmetry, units, wire};
use crate::sig;
use crate::source::{self, SourceFile};
use std::io;
use std::path::Path;

/// Files whose non-test code must be panic-free: the crates between wire
/// bytes and device models, where a panic on attacker-controlled input
/// takes the server down.
const PANIC_SCOPE: &[&str] =
    &["crates/net/src/", "crates/server/src/", "crates/storage/src/", "crates/types/src/codec.rs"];

/// Files whose queues sit on the overload path: every `push`/`push_back`
/// there must be reachable from a capacity check, or carry a ratcheted
/// `lint-allow.toml` entry explaining what bounds it.
const QUEUE_SCOPE: &[&str] = &[
    "crates/net/src/",
    "crates/server/src/",
    "crates/core/src/remote.rs",
    "crates/core/src/transport.rs",
    "crates/core/src/kernel.rs",
    "crates/core/src/fleet.rs",
    "crates/core/src/workload.rs",
];

/// Modules on the per-message hot path where the buffer pool is the law:
/// every fresh allocation (`to_vec`/`clone`/`with_capacity`) must ride a
/// ratcheted `lint-allow.toml` entry explaining why the pool can't serve it.
const ALLOC_SCOPE: &[&str] = &[
    "crates/net/src/frame.rs",
    "crates/net/src/fault.rs",
    "crates/core/src/remote.rs",
    "crates/core/src/transport.rs",
    "crates/core/src/prefetch.rs",
];

/// The one file allowed to touch raw microsecond words: it owns the
/// saturating conversion helpers everything else must use.
const UNIT_EXEMPT: &str = "crates/types/src/time.rs";

/// The hand-written codecs the codec-coverage audit holds to round-trip,
/// bounded-count, and version-check discipline.
const CODEC_SCOPE: &[&str] = &[
    "crates/types/src/codec.rs",
    "crates/net/src/protocol.rs",
    "crates/net/src/frame.rs",
    "crates/core/src/session.rs",
];

/// The protocol definition the wire-tag audit parses.
const PROTOCOL_FILE: &str = "crates/net/src/protocol.rs";

/// The frame envelope whose payload tags the single-enum audit parses.
const FRAME_FILE: &str = "crates/net/src/frame.rs";

/// The committed debt ratchet.
const ALLOW_FILE: &str = "lint-allow.toml";

/// What a lint run produced.
#[derive(Debug)]
pub struct LintOutcome {
    /// Findings that survived the allowlist ratchet, sorted by file/line.
    pub errors: Vec<Diagnostic>,
    /// Number of source files scanned.
    pub checked_files: usize,
}

impl LintOutcome {
    /// Whether the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Runs all the passes over the workspace rooted at `root` and applies
/// the `lint-allow.toml` ratchet.
pub fn lint_workspace(root: &Path) -> io::Result<LintOutcome> {
    let files = source::workspace_sources(root)?;
    let mut findings: Vec<Diagnostic> = Vec::new();

    // (1) Wire-tag audit.
    match files.iter().find(|f| f.rel == PROTOCOL_FILE) {
        Some(protocol) => {
            findings.extend(wire::run(protocol, "ServerRequest", "ServerResponse"));
        }
        None => findings.push(Diagnostic::new(
            "W002",
            PROTOCOL_FILE,
            1,
            "protocol definition file is missing; the wire-tag audit has nothing to check",
        )),
    }

    // (1b) Envelope-tag audit over the framed transport. `FramePayload`
    // has no request/response twin, so only `W001`–`W004` apply.
    match files.iter().find(|f| f.rel == FRAME_FILE) {
        Some(frame) => findings.extend(wire::run_single(frame, "FramePayload")),
        None => findings.push(Diagnostic::new(
            "W002",
            FRAME_FILE,
            1,
            "frame envelope file is missing; the envelope-tag audit has nothing to check",
        )),
    }

    // (2) Panic-freedom audit over the hot-path scope.
    let hot: Vec<SourceFile> = files
        .iter()
        .filter(|f| PANIC_SCOPE.iter().any(|scope| f.rel.starts_with(scope)))
        .cloned()
        .collect();
    findings.extend(panic_free::run(&hot));

    // (2b) Queue-growth audit over the overload path.
    let queues: Vec<SourceFile> = files
        .iter()
        .filter(|f| QUEUE_SCOPE.iter().any(|scope| f.rel.starts_with(scope)))
        .cloned()
        .collect();
    findings.extend(queue_growth::run(&queues));

    // (2c) Allocation-hygiene audit over the pooled hot-path modules.
    let pooled: Vec<SourceFile> =
        files.iter().filter(|f| ALLOC_SCOPE.contains(&f.rel.as_str())).cloned().collect();
    findings.extend(alloc_hygiene::run(&pooled));

    // (3) Unit-safety audit everywhere but the time module.
    let unit_scope: Vec<SourceFile> =
        files.iter().filter(|f| f.rel != UNIT_EXEMPT).cloned().collect();
    findings.extend(units::run(&unit_scope));

    // (3b) Codec-coverage audit over the hand-written codecs.
    let codecs: Vec<SourceFile> =
        files.iter().filter(|f| CODEC_SCOPE.contains(&f.rel.as_str())).cloned().collect();
    findings.extend(codec_cov::run(&codecs));

    // (4) Text/voice symmetry audit.
    let text: Vec<SourceFile> =
        files.iter().filter(|f| f.rel.starts_with("crates/text/src/")).cloned().collect();
    let voice: Vec<SourceFile> =
        files.iter().filter(|f| f.rel.starts_with("crates/voice/src/")).cloned().collect();
    findings.extend(symmetry::run(&sig::public_surface(&text), &sig::public_surface(&voice)));

    // Ratchet.
    let allow_path = root.join(ALLOW_FILE);
    let allows = if allow_path.is_file() {
        match allow::parse(ALLOW_FILE, &std::fs::read_to_string(&allow_path)?) {
            Ok(list) => list,
            Err(parse_errors) => {
                let mut errors = parse_errors;
                errors.extend(findings);
                errors.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
                return Ok(LintOutcome { errors, checked_files: files.len() });
            }
        }
    } else {
        allow::AllowList::default()
    };
    let mut errors = allow::apply(ALLOW_FILE, &allows, findings);
    errors.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(LintOutcome { errors, checked_files: files.len() })
}

//! Workspace static analysis for the MINOS reproduction.
//!
//! The paper's central claim is *symmetry*: every text browsing primitive
//! (pages, logical units, pattern search) has a voice counterpart (§1–2).
//! The client/server protocol surface and the simulated-time arithmetic are
//! the contracts everything else rides on. This crate turns those contracts
//! into machine checks — eight homegrown passes over the workspace source
//! tree, with no external dependencies (crates.io is unreachable in the
//! build environment):
//!
//! * [`passes::wire`] — **wire-tag audit** (`W0xx`): parses the
//!   `ServerRequest`/`ServerResponse` enums in `crates/net/src/protocol.rs`
//!   and verifies tag uniqueness, encode/decode coverage, encode/decode
//!   agreement, and request/response tag pairing.
//! * [`passes::panic_free`] — **panic-freedom audit** (`P0xx`): flags
//!   `unwrap()`, `expect(`, panic-family macros, and bare slice indexing in
//!   non-`#[cfg(test)]` code of the hot-path crates (`net`, `server`,
//!   `storage`, `types::codec`).
//! * [`passes::queue_growth`] — **queue-growth audit** (`Q0xx`): flags
//!   `push`/`push_back` growth sites in the transport and service scope
//!   (`net`, `server`, `core::remote`) whose enclosing function never
//!   consults a capacity — the unbounded-buffer bug class the E14
//!   admission-control work exists to prevent.
//! * [`passes::alloc_hygiene`] — **allocation-hygiene audit** (`A0xx`):
//!   flags fresh allocations (`.to_vec()`, `.clone()`,
//!   `Vec::with_capacity(`) on the pooled hot-path modules
//!   (`net::frame`, `net::fault`, `core::remote`, `core::prefetch`),
//!   where the `BufferPool` lease/recycle pattern and borrowed decode
//!   keep the steady state under one allocation per page.
//! * [`passes::units`] — **unit-safety audit** (`U0xx`): flags lossy `as`
//!   casts on duration or widened byte-count arithmetic (the
//!   `Link::transfer_cost` bug class) everywhere except
//!   `crates/types/src/time.rs`, which owns the saturating helpers.
//! * [`passes::symmetry`] — **symmetry audit** (`S0xx`): extracts the
//!   public browsing-primitive surface of `crates/text` and `crates/voice`
//!   and fails when either side of the paper's Section 2 vocabulary is
//!   missing its counterpart.
//! * [`passes::codec_cov`] — **codec-coverage audit** (`C0xx`): over the
//!   codec scope, every encoding type must round-trip (`C001`), element
//!   counts must flow through `Decoder::get_len` (`C002`), and versioned
//!   records must check their version in decode (`C003`).
//! * [`spec`] — **protocol spec extraction** (`X0xx`, the `spec`
//!   subcommand): serializes the wire contract (tags, pairing, priority
//!   bytes, epoch handshake, CRC trailer) as deterministic JSON, checks
//!   its conformance invariants (`X001`), and diffs it against the
//!   committed golden `spec/protocol.json` (`X002`).
//!
//! Panic-freedom, queue-growth, allocation-hygiene, unit-safety and
//! `C002` codec-coverage findings may be *ratcheted* through the
//! committed `lint-allow.toml`: existing debt is enumerated per file with a
//! cap, the lint fails when a file exceeds its cap **and** when a cap is
//! stale (fewer findings than allowed), so the debt can only shrink.
//!
//! The building blocks — [`source`] (comment/string stripping and
//! `#[cfg(test)]` masking), [`sig`] (a small `pub fn` signature parser),
//! [`parse`] (shared brace-level item parsing), [`diag`] (rule registry
//! and diagnostics), [`allow`] (the ratchet file loader) — are public so
//! the fixture-driven self-tests under `tests/` can drive each pass
//! against known-bad and known-good snippets.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod allow;
pub mod diag;
pub mod parse;
pub mod passes;
pub mod runner;
pub mod sig;
pub mod source;
pub mod spec;

pub use diag::{rule, Diagnostic, Rule, RULES};
pub use runner::{lint_workspace, LintOutcome};
pub use source::SourceFile;
pub use spec::{spec_workspace, ProtocolSpec, SpecOutcome};

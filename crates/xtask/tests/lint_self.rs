//! Fixture self-tests: every pass flags its known-bad fixture with the
//! right rule codes and a real `file:line` anchor, stays quiet on the
//! known-good twin — and the workspace itself lints clean.

use std::path::{Path, PathBuf};

use minos_xtask::passes::{
    alloc_hygiene, codec_cov, panic_free, queue_growth, symmetry, units, wire,
};
use minos_xtask::sig;
use minos_xtask::{lint_workspace, Diagnostic, ProtocolSpec, SourceFile};

fn fixture(name: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    SourceFile::load(&path, name).expect("fixture file exists")
}

fn rules(diags: &[Diagnostic]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = diags.iter().map(|d| d.rule).collect();
    rules.dedup();
    rules
}

fn assert_anchored(diags: &[Diagnostic], file: &str) {
    for d in diags {
        assert_eq!(d.file, file, "diagnostic anchored to the fixture: {d}");
        assert!(d.line > 0, "diagnostic carries a 1-based line: {d}");
    }
}

#[test]
fn wire_bad_fixture_has_duplicate_tag() {
    let diags = wire::run(&fixture("wire_bad.rs"), "ServerRequest", "ServerResponse");
    assert!(rules(&diags).contains(&"W001"), "expected W001, got {diags:?}");
    assert_anchored(&diags, "wire_bad.rs");
}

#[test]
fn wire_good_fixture_is_clean() {
    let diags = wire::run(&fixture("wire_good.rs"), "ServerRequest", "ServerResponse");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn frame_bad_fixture_has_duplicate_envelope_tag() {
    let diags = wire::run_single(&fixture("frame_bad.rs"), "FramePayload");
    let rules = rules(&diags);
    assert!(rules.contains(&"W001"), "expected W001, got {diags:?}");
    assert!(rules.contains(&"W004"), "expected W004, got {diags:?}");
    assert_anchored(&diags, "frame_bad.rs");
}

#[test]
fn frame_good_fixture_is_clean() {
    let diags = wire::run_single(&fixture("frame_good.rs"), "FramePayload");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn panic_bad_fixture_trips_every_rule() {
    let diags = panic_free::run(&[fixture("panic_bad.rs")]);
    assert_eq!(rules(&diags), vec!["P001", "P002", "P003", "P004"], "got {diags:?}");
    assert_anchored(&diags, "panic_bad.rs");
}

#[test]
fn panic_good_fixture_is_clean() {
    let diags = panic_free::run(&[fixture("panic_good.rs")]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn growth_bad_fixture_flags_both_sites() {
    let diags = queue_growth::run(&[fixture("growth_bad.rs")]);
    assert_eq!(rules(&diags), vec!["Q001"], "got {diags:?}");
    assert_eq!(diags.len(), 2, "push_back and push both flagged: {diags:?}");
    assert_anchored(&diags, "growth_bad.rs");
}

#[test]
fn growth_good_fixture_is_clean() {
    let diags = queue_growth::run(&[fixture("growth_good.rs")]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn alloc_bad_fixture_flags_every_idiom() {
    let diags = alloc_hygiene::run(&[fixture("alloc_bad.rs")]);
    assert_eq!(rules(&diags), vec!["A001"], "got {diags:?}");
    assert_eq!(diags.len(), 3, "to_vec, clone, and with_capacity all flagged: {diags:?}");
    assert_anchored(&diags, "alloc_bad.rs");
}

#[test]
fn alloc_good_fixture_is_clean() {
    let diags = alloc_hygiene::run(&[fixture("alloc_good.rs")]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn units_bad_fixture_trips_all_rules() {
    let diags = units::run(&[fixture("units_bad.rs")]);
    assert_eq!(rules(&diags), vec!["U001", "U002", "U003"], "got {diags:?}");
    assert_anchored(&diags, "units_bad.rs");
}

#[test]
fn units_good_fixture_is_clean() {
    let diags = units::run(&[fixture("units_good.rs")]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn asymmetric_voice_fixture_is_s001() {
    let text = sig::pub_fns(&fixture("symmetry_text.rs"));
    let voice = sig::pub_fns(&fixture("symmetry_voice_bad.rs"));
    let diags = symmetry::run(&text, &voice);
    assert_eq!(rules(&diags), vec!["S001"], "got {diags:?}");
    assert!(diags[0].message.contains("search all"), "{diags:?}");
    // S001 anchors at the text primitive that lost its counterpart.
    assert_anchored(&diags, "symmetry_text.rs");
}

#[test]
fn symmetric_fixtures_are_clean() {
    let text = sig::pub_fns(&fixture("symmetry_text.rs"));
    let voice = sig::pub_fns(&fixture("symmetry_voice_good.rs"));
    let diags = symmetry::run(&text, &voice);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn codec_bad_fixture_trips_every_rule() {
    let diags = codec_cov::run(&[fixture("codec_bad.rs")]);
    let mut seen = rules(&diags);
    seen.sort_unstable();
    assert_eq!(seen, vec!["C001", "C002", "C003"], "got {diags:?}");
    assert!(
        diags.iter().any(|d| d.rule == "C001" && d.message.contains("OneWay")),
        "C001 names the one-way type: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.rule == "C003" && d.message.contains("RECORD_VERSION")),
        "C003 names the unchecked const: {diags:?}"
    );
    assert_anchored(&diags, "codec_bad.rs");
}

#[test]
fn codec_good_fixture_is_clean() {
    let diags = codec_cov::run(&[fixture("codec_good.rs")]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn spec_bad_fixture_fails_conformance() {
    let f = fixture("spec_bad.rs");
    let spec = ProtocolSpec::extract(&f, &f);
    let diags = spec.conformance("spec_bad.rs", "spec_bad.rs");
    assert_eq!(rules(&diags), vec!["X001"], "got {diags:?}");
    assert!(
        diags.iter().any(|d| d.message.contains("no paired request tag")),
        "unpaired response tag flagged: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.message.contains("share wire byte 0")),
        "duplicate priority byte flagged: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.message.contains("CRC trailer")),
        "missing CRC trailer flagged: {diags:?}"
    );
    assert_anchored(&diags, "spec_bad.rs");
}

#[test]
fn spec_good_fixture_conforms() {
    let f = fixture("spec_good.rs");
    let spec = ProtocolSpec::extract(&f, &f);
    let diags = spec.conformance("spec_good.rs", "spec_good.rs");
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(spec.hello_tag, Some(8));
    assert_eq!(spec.crc_trailer_len, Some(4));
}

#[test]
fn workspace_lints_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let outcome = lint_workspace(&root).expect("workspace is readable");
    assert!(
        outcome.is_clean(),
        "workspace lint must stay clean:\n{}",
        outcome.errors.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
    assert!(outcome.checked_files > 50, "walker saw the workspace, not a stub");
}

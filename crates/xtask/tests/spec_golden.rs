//! Golden-spec tests: the extraction is deterministic, matches the
//! committed `spec/protocol.json` byte-for-byte, and drift is reported
//! as `X002` with a line anchor.

use std::path::PathBuf;

use minos_xtask::spec::{self, check_golden};
use minos_xtask::spec_workspace;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_contract_conforms() {
    let outcome = spec_workspace(&root()).expect("workspace is readable");
    assert!(
        outcome.errors.is_empty(),
        "the real wire contract must conform:\n{}",
        outcome.errors.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
    // The load-bearing facts of the contract, pinned explicitly so a
    // parser regression that extracts nothing cannot pass as "no drift".
    let spec = &outcome.spec;
    assert_eq!(spec.request_tags.len(), 9, "nine request tags (7 is retired): {spec:?}");
    assert_eq!(spec.response_tags.len(), 9, "nine response tags (7 is retired): {spec:?}");
    assert_eq!(spec.envelope_tags.len(), 2, "request/response envelope: {spec:?}");
    assert_eq!(spec.priority_bytes.len(), 3, "audio/demand/prefetch: {spec:?}");
    assert_eq!(spec.priority_bytes.get("Audio"), Some(&0), "audio preempts: {spec:?}");
    assert_eq!(spec.hello_tag, spec.welcome_tag, "handshake tags agree");
    assert_eq!(spec.crc_trailer_len, Some(4));
}

#[test]
fn extraction_is_deterministic() {
    let a = spec_workspace(&root()).expect("first extraction").spec;
    let b = spec_workspace(&root()).expect("second extraction").spec;
    assert_eq!(a, b);
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn extraction_matches_the_committed_golden() {
    let root = root();
    let outcome = spec_workspace(&root).expect("workspace is readable");
    let drift = check_golden(&root, &outcome.spec);
    assert!(
        drift.is_empty(),
        "spec drifted; review the protocol change, then run \
         `cargo run -p minos-xtask -- spec --write`:\n{}",
        drift.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn drift_is_reported_with_a_line_anchor() {
    let root = root();
    let outcome = spec_workspace(&root).expect("workspace is readable");
    let mut mutated = outcome.spec.clone();
    mutated.crc_trailer_len = Some(8);
    let drift = check_golden(&root, &mutated);
    assert_eq!(drift.len(), 1, "{drift:?}");
    assert_eq!(drift[0].rule, "X002");
    assert_eq!(drift[0].file, spec::GOLDEN_FILE);
    assert!(drift[0].line > 0);
}

//! Shared workload builders and Criterion configuration for the MINOS
//! benchmark harness.
//!
//! Every bench target regenerates one experiment from DESIGN.md's index:
//! it first *prints the series* the experiment reports (the numbers
//! EXPERIMENTS.md records) and then registers Criterion timing groups for
//! the code paths involved. Timing settings are kept small so the full
//! `cargo bench` run finishes in minutes.

use criterion::Criterion;
use minos_corpus::objects::archived_form;
use minos_object::MultimediaObject;
use minos_server::ObjectServer;
use minos_types::ObjectId;
use std::time::{Duration, Instant};

/// Criterion tuned for a quick full-suite run.
pub fn fast_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600))
        .configure_from_args()
}

/// Publishes `objects` on a fresh server, returning it with the archive
/// base of each object.
pub fn server_with(objects: Vec<MultimediaObject>) -> (ObjectServer, Vec<(ObjectId, u64)>) {
    let mut server = ObjectServer::new();
    let mut bases = Vec::new();
    for obj in objects {
        let archived = archived_form(&obj);
        let receipt = server.publish(obj.clone(), &archived).expect("publish");
        bases.push((obj.id, receipt.span.start));
    }
    (server, bases)
}

/// A standard mixed archive of `n` objects (reports, maps, documents).
pub fn mixed_archive(n: u64) -> Vec<MultimediaObject> {
    let mut out = Vec::new();
    let mut next_id = 1u64;
    for i in 0..n {
        match i % 3 {
            0 => {
                out.push(minos_corpus::medical_report(ObjectId::new(next_id), i));
                next_id += 1;
            }
            1 => {
                out.push(minos_corpus::office_document(ObjectId::new(next_id), i, 3));
                next_id += 1;
            }
            _ => {
                let (parent, overlays) = minos_corpus::subway_map_object(
                    ObjectId::new(next_id),
                    ObjectId::new(next_id + 1),
                    ObjectId::new(next_id + 2),
                    i,
                );
                next_id += 3;
                out.push(parent);
                out.extend(overlays);
            }
        }
    }
    out
}

/// Prints one labelled experiment-series row (captured in bench output and
/// transcribed into EXPERIMENTS.md).
pub fn row(experiment: &str, series: &str) {
    println!("[{experiment}] {series}");
}

/// Whether the bench was started with `--smoke`.
fn smoke_run() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// Runs an experiment bench the one way every E12–E17 bench runs:
/// `--smoke` runs `smoke` (its acceptance pins, then [`record`], which
/// checks the committed file), `--series` runs `series` (print the series
/// and record it, which rewrites the file), and a bare run does `series`
/// and then the Criterion timing groups in `benches`.
pub fn main(smoke: fn(), series: fn(), benches: fn()) {
    if smoke_run() {
        smoke();
    } else {
        series();
        if !std::env::args().any(|a| a == "--series") {
            benches();
        }
    }
}

/// Runs `f` and times it on the wall clock.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Records experiment `tag`'s series document `doc` as `file` at the
/// repository root. Under `--smoke` it never writes: it holds `doc` to
/// the committed file, every line but those whose key is one of
/// `host_keys` (the wall-clock timings), and panics on drift. Otherwise
/// it rewrites the file.
pub fn record(tag: &str, file: &str, doc: &str, host_keys: &[&str]) {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    if smoke_run() {
        let committed =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file} is committed: {e}"));
        assert_matches_committed(file, &committed, doc, host_keys);
        row(tag, &format!("series matches {file} ({} aside)", host_keys.join(" and ")));
    } else {
        std::fs::write(&path, doc).unwrap_or_else(|e| panic!("could not write {file}: {e}"));
        row(tag, &format!("series written to {file}"));
    }
}

/// Holds a fresh series document to the `committed` text of `file`, line
/// for line, except the lines whose key is one of `host_keys`. Panics
/// naming the first line that drifted.
fn assert_matches_committed(file: &str, committed: &str, fresh: &str, host_keys: &[&str]) {
    let deterministic = |json: &str| -> Vec<String> {
        json.lines()
            .filter(|line| {
                let line = line.trim_start();
                !host_keys.iter().any(|k| line.starts_with(&format!("\"{k}\"")))
            })
            .map(str::to_owned)
            .collect()
    };
    let (fresh, committed) = (deterministic(fresh), deterministic(committed));
    if let Some((line, (new, old))) =
        fresh.iter().zip(&committed).enumerate().find(|(_, (new, old))| new != old)
    {
        panic!("{file} drifted at deterministic line {line}: committed {old:?}, fresh {new:?}");
    }
    assert_eq!(fresh.len(), committed.len(), "{file} drifted in length");
}

#[cfg(test)]
mod tests {
    use super::assert_matches_committed;

    const DOC: &str = "{\n  \"experiment\": \"E0\",\n  \"series\": [\n    {\n      \
                       \"pages\": 8,\n      \"wall_us\": 120\n    }\n  ]\n}\n";

    fn check(fresh: &str) {
        assert_matches_committed("BENCH_test.json", DOC, fresh, &["wall_us"]);
    }

    #[test]
    fn an_identical_document_passes() {
        check(DOC);
    }

    #[test]
    #[should_panic(
        expected = "drifted at deterministic line 4: committed \"      \\\"pages\\\": 8,\""
    )]
    fn a_changed_deterministic_line_panics_naming_it() {
        check(&DOC.replace("\"pages\": 8", "\"pages\": 9"));
    }

    #[test]
    fn a_changed_host_key_line_passes() {
        check(&DOC.replace("\"wall_us\": 120", "\"wall_us\": 987654"));
    }

    #[test]
    #[should_panic(expected = "BENCH_test.json drifted")]
    fn a_missing_deterministic_line_panics() {
        check(&DOC.replace("      \"pages\": 8,\n", ""));
    }

    #[test]
    #[should_panic(expected = "BENCH_test.json drifted in length")]
    fn an_extra_deterministic_line_panics() {
        check(&format!("{DOC}  \"retries\": 0\n"));
    }
}

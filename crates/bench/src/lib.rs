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
use std::time::Duration;

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

/// Holds a fresh series document to the committed one at `path`, line for
/// line, except the lines whose key is one of `host_keys` (wall-clock
/// timings, which depend on the host). Panics naming the first line that
/// drifted.
pub fn assert_matches_committed(path: &str, fresh: &str, host_keys: &[&str]) {
    let committed =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path} is committed: {e}"));
    let deterministic = |json: &str| -> Vec<String> {
        json.lines()
            .filter(|line| {
                let line = line.trim_start();
                !host_keys.iter().any(|k| line.starts_with(&format!("\"{k}\"")))
            })
            .map(str::to_owned)
            .collect()
    };
    let (fresh, committed) = (deterministic(fresh), deterministic(&committed));
    if let Some((line, (new, old))) =
        fresh.iter().zip(&committed).enumerate().find(|(_, (new, old))| new != old)
    {
        panic!("{path} drifted at deterministic line {line}: committed {old:?}, fresh {new:?}");
    }
    assert_eq!(fresh.len(), committed.len(), "{path} drifted in length");
}

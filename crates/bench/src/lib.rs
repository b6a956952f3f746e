//! Shared workload builders, Criterion configuration and the experiment
//! runner for the MINOS benchmark harness.
//!
//! Every bench target regenerates one experiment from DESIGN.md's index
//! and then registers Criterion timing groups for the code paths
//! involved. The E1–E11 benches and the ablations print their series as
//! `[E<n>]` rows. The E12–E17 benches run through [`main`]: it measures
//! the series, builds it as one [`Json`] document, and prints and writes
//! it as the experiment's `BENCH_*.json` (or, under `--smoke`, holds it
//! to the committed file). Timing settings are kept small so the full
//! `cargo bench` run finishes in minutes.

use criterion::Criterion;
use minos_corpus::objects::archived_form;
use minos_object::MultimediaObject;
use minos_server::ObjectServer;
use minos_types::ObjectId;
use std::borrow::Borrow;
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

/// One value of an experiment's series document, written in the order it
/// was built.
pub enum Json {
    /// A scalar already written as JSON: a number, `true`, or a quoted
    /// string.
    Raw(String),
    /// An object whose fields keep their order.
    Obj(Vec<(&'static str, Json)>),
    /// An array: inline when it holds only scalars, else one item a line.
    Arr(Vec<Json>),
}

impl Json {
    /// A number written with `places` decimals.
    pub fn fixed(x: f64, places: usize) -> Json {
        Json::Raw(format!("{x:.places$}"))
    }

    /// The document in the committed `BENCH_*.json` layout: two spaces
    /// of indent a level, one field or array item a line, and a final
    /// newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (open, close, items): (_, _, Vec<_>) = match self {
            Json::Raw(text) => return out.push_str(text),
            Json::Arr(items) if items.iter().all(|i| matches!(i, Json::Raw(_))) => {
                out.push('[');
                for (n, item) in items.iter().enumerate() {
                    out.push_str(if n == 0 { "" } else { ", " });
                    item.write(out, depth);
                }
                return out.push(']');
            }
            Json::Arr(items) => ('[', ']', items.iter().map(|i| (None, i)).collect()),
            Json::Obj(fields) => ('{', '}', fields.iter().map(|(k, v)| (Some(k), v)).collect()),
        };
        let indent = "  ".repeat(depth + 1);
        out.push(open);
        for (n, (key, value)) in items.into_iter().enumerate() {
            out.push_str(if n == 0 { "\n" } else { ",\n" });
            out.push_str(&indent);
            if let Some(key) = key {
                out.push_str(&format!("\"{key}\": "));
            }
            value.write(out, depth + 1);
        }
        out.push('\n');
        out.push_str(&indent[2..]);
        out.push(close);
    }
}

/// A string, quoted and escaped.
impl From<&str> for Json {
    fn from(text: &str) -> Json {
        Json::Raw(format!("{text:?}"))
    }
}

impl From<String> for Json {
    fn from(text: String) -> Json {
        Json::from(text.as_str())
    }
}

/// Integers and `bool`s are written as Rust displays them.
macro_rules! json_display {
    ($($t:ty),*) => {
        $(impl From<$t> for Json {
            fn from(x: $t) -> Json {
                Json::Raw(x.to_string())
            }
        })*
    };
}
json_display!(bool, u64, u128, usize);

/// The point of a measured series that `is` picks. Panics naming `what`
/// when the series holds no such point.
pub fn point<'a, P>(points: &'a [P], what: &str, is: impl Fn(&P) -> bool) -> &'a P {
    points.iter().find(|p| is(p)).unwrap_or_else(|| panic!("the series holds no {what} point"))
}

/// Whether the bench was started with `--smoke`.
fn smoke_run() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// Runs an E12–E17 experiment bench. Every mode first runs `measure`:
/// the timed series plus any extra rows its document holds. `--smoke`
/// then runs `pins`, the acceptance asserts, and holds `doc` of the
/// points to the committed `file` at the repository root, every line but
/// those whose key is one of `host_keys`; it never writes. `--series`
/// prints the document and rewrites `file`; a bare run does the same and
/// then runs the Criterion timing groups in `benches`. (`doc` and `pins`
/// may take the points borrowed, a `Vec` as a slice.)
pub fn main<P: Borrow<Q>, Q: ?Sized>(
    tag: &str,
    file: &str,
    host_keys: &[&str],
    measure: fn() -> P,
    doc: fn(&Q) -> Json,
    pins: fn(&Q),
    benches: fn(),
) {
    let points = measure();
    let points = points.borrow();
    let smoke = smoke_run();
    if smoke {
        pins(points);
    }
    record(tag, file, &doc(points), host_keys);
    if !smoke && !std::env::args().any(|a| a == "--series") {
        benches();
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
/// it prints the document and rewrites the file.
fn record(tag: &str, file: &str, doc: &Json, host_keys: &[&str]) {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let doc = doc.render();
    if smoke_run() {
        let committed =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file} is committed: {e}"));
        assert_matches_committed(file, &committed, &doc, host_keys);
        row(tag, &format!("series matches {file} ({} aside)", host_keys.join(" and ")));
    } else {
        print!("{doc}");
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
    use super::{assert_matches_committed, Json};

    const DOC: &str = "{\n  \"experiment\": \"E0\",\n  \"series\": [\n    {\n      \
                       \"pages\": 8,\n      \"wall_us\": 120\n    }\n  ]\n}\n";

    fn check(fresh: &str) {
        assert_matches_committed("BENCH_test.json", DOC, fresh, &["wall_us"]);
    }

    #[test]
    fn render_reproduces_the_fixture_byte_for_byte() {
        let row = Json::Obj(vec![("pages", 8u64.into()), ("wall_us", 120u128.into())]);
        let doc = Json::Obj(vec![("experiment", "E0".into()), ("series", Json::Arr(vec![row]))]);
        assert_eq!(doc.render(), DOC);
    }

    #[test]
    fn render_inlines_scalar_lists_and_indents_nested_objects() {
        let member = |served: Vec<u64>, wall: u128| {
            Json::Obj(vec![
                ("served_per_member", Json::Arr(served.into_iter().map(Json::from).collect())),
                ("goodput", Json::fixed(6.27789, 4)),
                ("wall_us", wall.into()),
            ])
        };
        let doc = Json::Obj(vec![
            ("workload", "4 x \"8 KB\"".into()),
            ("series", Json::Arr(vec![member(vec![56, 72], 9), member(vec![], 10)])),
            (
                "rows",
                Json::Obj(vec![
                    (
                        "healthy",
                        Json::Obj(vec![("ok", true.into()), ("rate", Json::Raw("0.001".into()))]),
                    ),
                    ("restart", Json::Obj(vec![("pages", 512u64.into())])),
                ]),
            ),
        ]);
        let want = r#"{
  "workload": "4 x \"8 KB\"",
  "series": [
    {
      "served_per_member": [56, 72],
      "goodput": 6.2779,
      "wall_us": 9
    },
    {
      "served_per_member": [],
      "goodput": 6.2779,
      "wall_us": 10
    }
  ],
  "rows": {
    "healthy": {
      "ok": true,
      "rate": 0.001
    },
    "restart": {
      "pages": 512
    }
  }
}
"#;
        assert_eq!(doc.render(), want);
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

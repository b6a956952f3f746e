//! `minos-benchmark`: the MINOS benchmark, on two clocks.
//!
//! One process, one thread, one workload per run:
//!
//! ```text
//! minos-benchmark --workload <page_scan|lossy_scan|churn|browse>
//!                 --seed <u64> [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Every input is generated from the seed. A run repeats identical rounds
//! (set-up plus a fixed number of ops) until `--seconds` of wall time have
//! passed, with at least [`MIN_ROUNDS`]. Set-up time is the median over the
//! rounds and the op rate the upper quartile over all their slices;
//! simulated-clock metrics come from the first round, and every later round
//! must reproduce them exactly. Each metric is printed as
//! `<name> <value> <unit>`, and the last line of output is one JSON object
//! with the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). The exit code is nonzero when any check fails.
//!
//! `--trace 1` spends half of `--seconds` on untraced rounds, then runs one
//! more round with a span around every program call, writes the spans as
//! JSON under the cargo target directory, runs the layer probes and prints
//! the per-layer metrics.

mod browse;
mod fleet;
mod layers;
mod meter;

use meter::{peak_rss_mib, quantile, Meter};
use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: minos-benchmark --workload <page_scan|lossy_scan|churn|browse> \
                     --seed <u64> [--seconds <n>] [--trace <0|1>]";

/// Untraced rounds every run makes, however short `--seconds` is, so that
/// set-up time is a median of several set-ups. A traced run needs only one
/// untraced round, to compare its rate with.
const MIN_ROUNDS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    PageScan,
    LossyScan,
    Churn,
    Browse,
}

impl Workload {
    const ALL: [Workload; 4] =
        [Workload::PageScan, Workload::LossyScan, Workload::Churn, Workload::Browse];

    fn name(self) -> &'static str {
        match self {
            Workload::PageScan => "page_scan",
            Workload::LossyScan => "lossy_scan",
            Workload::Churn => "churn",
            Workload::Browse => "browse",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value}: {what}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad("not a number"))?;
                    if !(0.0..=3600.0).contains(&seconds) {
                        return Err(bad("outside 0..=3600"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
        })
    }
}

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn fill(&mut self, bytes: &mut [u8]) {
        for chunk in bytes.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric { name: name.to_string(), value, unit }
    }
}

/// The simulated-clock outcome of a round: a pure function of the seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sim {
    /// Ops whose output matched the expected output.
    pub verified: u64,
    /// Pages delivered (fleet workloads) or presented (`browse`).
    pub pages: u64,
    pub elapsed_us: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub samples: u64,
}

/// Everything one round measured.
pub struct Round {
    /// Wall time inside the calls that build the system.
    pub setup: Duration,
    /// Verified ops per second of program time, one per measured slice.
    pub rates: Vec<f64>,
    pub sim: Sim,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of the benchmark's own output checks.
    pub verify: Duration,
    pub counters: layers::Counters,
    /// Checks that failed.
    pub problems: Vec<String>,
}

enum Inputs {
    Fleet(fleet::Inputs),
    Browse(browse::Inputs),
}

/// One workload with its generated inputs.
struct Bench {
    seed: u64,
    inputs: Inputs,
    /// Divides the layer probes' batch sizes: 1 for real runs, more for
    /// the tiny inputs of unit tests.
    probe_effort: usize,
}

impl Bench {
    fn new(workload: Workload, seed: u64, tiny: bool) -> Self {
        let fleet = |mode| {
            let shape = if tiny { fleet::Shape::tiny() } else { fleet::Shape::full(mode) };
            Inputs::Fleet(fleet::Inputs::generate(mode, shape, seed))
        };
        let inputs = match workload {
            Workload::PageScan => fleet(fleet::Mode::Scan),
            Workload::LossyScan => fleet(fleet::Mode::Lossy),
            Workload::Churn => fleet(fleet::Mode::Churn),
            Workload::Browse => {
                let shape = if tiny { browse::Shape::tiny() } else { browse::Shape::full() };
                Inputs::Browse(browse::Inputs::generate(shape, seed))
            }
        };
        Bench { seed, inputs, probe_effort: if tiny { 100 } else { 1 } }
    }

    /// A copy whose expected outputs differ from the real ones by one byte.
    #[cfg(test)]
    fn tampered(&self) -> Bench {
        let inputs = match &self.inputs {
            Inputs::Fleet(i) => {
                let mut i = i.clone();
                i.tamper();
                Inputs::Fleet(i)
            }
            Inputs::Browse(i) => {
                let mut i = i.clone();
                i.tamper();
                Inputs::Browse(i)
            }
        };
        Bench { seed: self.seed, inputs, probe_effort: self.probe_effort }
    }

    /// One round, checking every output against `expect`'s inputs.
    fn round_against(&self, expect: &Bench, meter: &mut Meter) -> Result<Round, String> {
        match (&self.inputs, &expect.inputs) {
            (Inputs::Fleet(i), Inputs::Fleet(e)) => fleet::round(i, e, meter),
            (Inputs::Browse(i), Inputs::Browse(e)) => browse::round(i, e, meter),
            _ => Err("inputs of different workloads".into()),
        }
    }

    fn round(&self, meter: &mut Meter) -> Result<Round, String> {
        self.round_against(self, meter)
    }

    /// The page the layer probes work on.
    fn probe_page(&self) -> Vec<u8> {
        match &self.inputs {
            Inputs::Fleet(i) => i.first_page().to_vec(),
            Inputs::Browse(_) => layers::seeded_page(self.seed),
        }
    }
}

/// What a run reports.
struct Outcome {
    metrics: Vec<Metric>,
    /// Samples behind the latency percentiles, printed beside them.
    latency_samples: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// The traced round's meter, holding its spans.
    meter: Option<Meter>,
}

/// Rounds until `budget` has passed (at least `min_rounds`), checking that
/// each reproduces the first round's simulated outcome.
fn rounds(
    bench: &Bench,
    budget: Duration,
    min_rounds: usize,
    problems: &mut Vec<String>,
) -> Result<Vec<Round>, String> {
    let started = Instant::now();
    let mut meter = Meter::new(false);
    let mut out: Vec<Round> = Vec::new();
    while out.len() < min_rounds || started.elapsed() < budget {
        let round = bench.round(&mut meter)?;
        check_repeat(&out, &round, problems);
        out.push(round);
    }
    Ok(out)
}

fn check_repeat(earlier: &[Round], round: &Round, problems: &mut Vec<String>) {
    if let Some(first) = earlier.first() {
        if first.sim != round.sim || first.failed != round.failed {
            problems.push(format!(
                "round {} differs from round 0: {:?} with {} failed, then {:?} with {} failed",
                earlier.len(),
                first.sim,
                first.failed,
                round.sim,
                round.failed
            ));
        }
    }
    problems.extend(round.problems.iter().cloned());
}

fn all_rates(rounds: &[Round]) -> Vec<f64> {
    rounds.iter().flat_map(|r| r.rates.iter().copied()).collect()
}

/// The rate a run reports: the upper quartile of its slice rates. On a
/// shared host interference only ever slows a slice down, and it comes in
/// phases of about a second, so the median slice moves with how much of a
/// run a slow phase happened to cover; the upper quartile tracks the
/// uncontended speed and still ignores a few lucky slices.
fn sustained_rate(rates: &[f64]) -> f64 {
    quantile(rates, 0.75)
}

/// The end-to-end metrics of a set of untraced rounds.
fn end_to_end(rounds: &[Round], peak_rss_mib: f64) -> Vec<Metric> {
    let first = &rounds[0];
    let sim = &first.sim;
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup.as_secs_f64()).collect();
    vec![
        Metric::new("ops_per_s", sustained_rate(&all_rates(rounds)), "ops/s"),
        Metric::new("setup_s", quantile(&setups, 0.5), "s"),
        Metric::new("peak_rss_mib", peak_rss_mib, "MiB"),
        Metric::new(
            "sim_pages_per_s",
            sim.pages as f64 / (sim.elapsed_us.max(1) as f64 / 1e6),
            "pages/sim-s",
        ),
        Metric::new("sim_latency_p50_ms", sim.p50_us as f64 / 1e3, "ms"),
        Metric::new("sim_latency_p99_ms", sim.p99_us as f64 / 1e3, "ms"),
        Metric::new("verified_ratio", sim.verified as f64 / first.attempted.max(1) as f64, "ratio"),
    ]
}

/// Runs `bench` for `seconds` and gathers the metrics `trace` asks for.
fn measure(bench: &Bench, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let untraced = rounds(bench, budget, if trace { 1 } else { MIN_ROUNDS }, &mut problems)?;
    let attempted: u64 = untraced.iter().map(|r| r.attempted).sum();
    let failed: u64 = untraced.iter().map(|r| r.failed).sum();
    if !trace {
        let rss = peak_rss_mib().ok_or("no VmHWM line in /proc/self/status")?;
        let metrics = end_to_end(&untraced, rss);
        let latency_samples = untraced[0].sim.samples;
        return Ok(Outcome { metrics, latency_samples, attempted, failed, problems, meter: None });
    }

    let mut meter = Meter::new(true);
    let traced = bench.round(&mut meter)?;
    check_repeat(&untraced, &traced, &mut problems);
    let plain = sustained_rate(&all_rates(&untraced));
    let with_spans = sustained_rate(&traced.rates);
    let ops: u64 = untraced.iter().map(|r| r.sim.verified).sum();
    let verify: Duration = untraced.iter().map(|r| r.verify).sum();
    let mut metrics = layers::probes(&bench.probe_page(), bench.seed, bench.probe_effort);
    metrics.extend(layers::counter_metrics(&traced));
    metrics
        .extend(layers::span_metrics(&meter.spans()[meter.setup_spans()..], traced.sim.verified));
    metrics.push(Metric::new(
        "bench.verify.us_per_op",
        verify.as_secs_f64() * 1e6 / ops.max(1) as f64,
        "us/op",
    ));
    metrics.push(Metric::new(
        "bench.trace_overhead_pct",
        (plain - with_spans) / plain * 100.0,
        "%",
    ));
    Ok(Outcome {
        metrics,
        latency_samples: traced.sim.samples,
        attempted: attempted + traced.attempted,
        failed: failed + traced.failed,
        problems,
        meter: Some(meter),
    })
}

/// Where the traced run writes its spans: one file per workload under the
/// cargo target directory, replaced by the next traced run.
fn trace_path(workload: Workload) -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&target)
        .join("minos-benchmark")
        .join(format!("trace-{}.json", workload.name()))
}

/// Writes the spans as JSON, one span per line; the first `setup_spans`
/// are the set-up calls, the rest the op loop's.
fn write_trace(
    path: &std::path::Path,
    workload: Workload,
    seed: u64,
    meter: &Meter,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"workload\":\"{}\",\"seed\":{seed},\"setup_spans\":{},\"spans\":[",
        workload.name(),
        meter.setup_spans()
    )?;
    for (i, s) in meter.spans().iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let (call, op, start, end) = (s.call.name(), s.op, s.start_ns, s.end_ns);
        write!(
            out,
            "{sep}\n{{\"call\":\"{call}\",\"op\":{op},\"start_ns\":{start},\"end_ns\":{end}}}"
        )?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

/// The result line: one JSON object.
fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("minos-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let bench = Bench::new(args.workload, args.seed, false);
    let mut outcome = match measure(&bench, args.seconds, args.trace) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("minos-benchmark: {} seed {}: {e}", args.workload.name(), args.seed);
            return ExitCode::FAILURE;
        }
    };
    if let Some(meter) = &outcome.meter {
        let path = trace_path(args.workload);
        match write_trace(&path, args.workload, args.seed, meter) {
            Ok(()) => println!("trace {} ({} spans)", path.display(), meter.spans().len()),
            Err(e) => outcome.problems.push(format!("writing {}: {e}", path.display())),
        }
    }
    println!("sim_latency_samples {} count", outcome.latency_samples);
    for m in &mut outcome.metrics {
        if !m.value.is_finite() {
            outcome.problems.push(format!("{} is not a finite number", m.name));
            m.value = 0.0;
        }
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for problem in &outcome.problems {
        eprintln!("minos-benchmark: check failed: {problem}");
    }
    let correct = outcome.problems.is_empty();
    println!("{}", json_line(correct, outcome.attempted, outcome.failed, &outcome.metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_round(workload: Workload, seed: u64) -> Round {
        Bench::new(workload, seed, true).round(&mut Meter::new(false)).expect("a tiny round runs")
    }

    #[test]
    fn equal_seeds_give_equal_simulated_outcomes() {
        for workload in Workload::ALL {
            let (a, b) = (tiny_round(workload, 7), tiny_round(workload, 7));
            assert!(a.problems.is_empty(), "{}: {:?}", workload.name(), a.problems);
            assert_eq!(a.sim, b.sim, "{}", workload.name());
            assert_eq!((a.attempted, a.failed), (b.attempted, b.failed), "{}", workload.name());
            assert!(a.sim.samples > 0 && a.sim.pages > 0, "{}: {:?}", workload.name(), a.sim);
        }
    }

    #[test]
    fn one_flipped_expected_byte_fails_the_check() {
        for workload in Workload::ALL {
            let bench = Bench::new(workload, 3, true);
            let round =
                bench.round_against(&bench.tampered(), &mut Meter::new(false)).expect("round runs");
            assert!(
                !round.problems.is_empty(),
                "{}: a flipped byte went unnoticed",
                workload.name()
            );
        }
    }

    /// The `name` fields of one metric list in `BENCHMARK.json`.
    fn declared(json: &str, list: &str) -> Vec<String> {
        let start = json.find(&format!("\"{list}\"")).expect("metric list present");
        let body = &json[start..start + json[start..].find(']').expect("list closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("a quoted name").to_string())
            .collect()
    }

    #[test]
    fn printed_metric_names_match_the_benchmark_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = |metrics: &[Metric]| {
            let mut names: Vec<String> = metrics.iter().map(|m| m.name.clone()).collect();
            names.sort();
            names
        };
        let mut workloads: Vec<String> = declared(&json, "workloads");
        workloads.sort();
        let mut ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        ours.sort();
        assert_eq!(workloads, ours);
        let (mut e2e, mut per_layer) =
            (declared(&json, "end_to_end"), declared(&json, "per_layer"));
        e2e.sort();
        per_layer.sort();
        for workload in [Workload::PageScan, Workload::Browse] {
            let bench = Bench::new(workload, 1, true);
            assert_eq!(names(&measure(&bench, 0.0, false).expect("untraced").metrics), e2e);
            assert_eq!(names(&measure(&bench, 0.0, true).expect("traced").metrics), per_layer);
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = json_line(true, 3, 0, &[Metric::new("ops_per_s", 1.5, "ops/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"ops_per_s\": {\"value\": 1.5, \"unit\": \"ops/s\"}}}"
        );
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let args = parse("--workload churn --seed 4 --seconds 2 --trace 1").expect("valid");
        assert_eq!(
            (args.workload, args.seed, args.seconds, args.trace),
            (Workload::Churn, 4, 2.0, true)
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload browse").is_err());
        assert!(parse("--workload browse --seed 1 --trace 2").is_err());
    }
}

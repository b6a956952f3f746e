//! Experiment E15 — discrete-event scheduling cost versus fleet size.
//!
//! A fleet of N connected sessions of which only 32 are active: every
//! 8th active session turns a page each 250 ms on an audio playback
//! deadline, the rest dwell 1 s between page turns, and the remaining
//! N − 32 sessions sit connected but idle. The run loop is the timer
//! wheel's: it jumps from armed deadline to armed deadline via
//! `Kernel::next_deadline`, so an idle session — which has no timer
//! armed — costs nothing after admission.
//!
//! The claim under test: total kernel events, timers armed, simulated
//! completion time, and the audio-class p99 are functions of the *active*
//! population alone — byte-identical from N = 64 to N = 10,000 — and the
//! wall-clock cost of the run grows sublinearly in N (the only per-idle
//! cost is fleet setup, not per-tick scanning).
//!
//! The series is emitted machine-readable as `BENCH_sched.json` at the
//! repository root by the full bench run. `--smoke` runs the acceptance pin
//! — N = 10,000 fires exactly the events N = 64 fires, with zero spurious
//! wakes — and checks a fresh series against the committed file, every
//! line but the host-dependent `wall_us`; it is hooked into
//! `scripts/check.sh`.

use criterion::{criterion_group, BenchmarkId, Criterion};
use minos_bench::{fast_criterion, row};
use minos_presentation::sched::{simulate_sched_workload, SchedReport};

const ACTIVE: usize = 32;
const PAGES: usize = 16;
const PAGE_LEN: u64 = 8192;

/// The E15 load axis: fleet sizes at a fixed active population.
const SESSIONS: [usize; 5] = [64, 256, 1024, 4096, 10_000];

/// The pinned operating points for the smoke acceptance run.
const SMOKE_BASE: usize = 64;
const SMOKE_FLEET: usize = 10_000;

fn run(sessions: usize) -> SchedReport {
    simulate_sched_workload(sessions, ACTIVE, PAGES, PAGE_LEN).expect("workload runs")
}

/// One measured point of the series: the report plus the wall-clock cost
/// of producing it.
struct Point {
    sessions: usize,
    report: SchedReport,
    wall: std::time::Duration,
}

fn measure_series() -> Vec<Point> {
    SESSIONS
        .iter()
        .map(|&sessions| {
            let start = std::time::Instant::now();
            let report = run(sessions);
            Point { sessions, report, wall: start.elapsed() }
        })
        .collect()
}

/// The committed series, at the repository root.
const BENCH_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.json");

/// Renders the series as the `BENCH_sched.json` document — the
/// machine-readable perf-trajectory record for this experiment.
fn series_json(points: &[Point]) -> String {
    let mut series = Vec::new();
    for p in points {
        series.push(format!(
            "    {{\n      \"sessions\": {},\n      \"active\": {},\n      \"pages\": {},\n      \
             \"events\": {},\n      \"timers_armed\": {},\n      \"spurious_wakes\": {},\n      \
             \"ready_high_water\": {},\n      \"audio_p99_us\": {},\n      \
             \"sim_elapsed_us\": {},\n      \"wall_us\": {}\n    }}",
            p.sessions,
            p.report.active,
            p.report.pages,
            p.report.events,
            p.report.timers_armed,
            p.report.spurious_wakes,
            p.report.ready_high_water,
            p.report.audio_p99.as_micros(),
            p.report.sim_elapsed.as_micros(),
            p.wall.as_micros(),
        ));
    }
    format!(
        "{{\n  \"experiment\": \"E15\",\n  \"workload\": \"N-session fleet, {ACTIVE} active x {PAGES} x \
         {PAGE_LEN} B pages, audio stride 8 @ 250ms, text dwell 1s, 10 Mbit/s Ethernet, \
         timer-wheel run loop\",\n  \"series\": [\n{}\n  ]\n}}\n",
        series.join(",\n")
    )
}

/// Writes the series to `BENCH_sched.json`.
fn emit_json(points: &[Point]) {
    if let Err(e) = std::fs::write(BENCH_PATH, series_json(points)) {
        row("E15", &format!("could not write BENCH_sched.json: {e}"));
    } else {
        row("E15", "series written to BENCH_sched.json");
    }
}

/// The lines of a series document that do not depend on the host: all of
/// them but the `wall_us` timings.
fn deterministic_lines(json: &str) -> Vec<&str> {
    json.lines().filter(|line| !line.trim_start().starts_with("\"wall_us\"")).collect()
}

fn print_series() {
    row(
        "E15",
        &format!(
            "workload = N-session fleet, {ACTIVE} active x {PAGES} x 8 KB pages; wheel-driven;"
        ),
    );
    row("E15", "sessions    events  timers  spurious  ready_hw  p99_ms  sim_s    wall_ms");
    let points = measure_series();
    for p in &points {
        row(
            "E15",
            &format!(
                "{:>8}  {:>8}  {:>6}  {:>8}  {:>8}  {:>6.2}  {:>5.1}  {:>8.2}",
                p.sessions,
                p.report.events,
                p.report.timers_armed,
                p.report.spurious_wakes,
                p.report.ready_high_water,
                p.report.audio_p99.as_micros() as f64 / 1_000.0,
                p.report.sim_elapsed.as_micros() as f64 / 1_000_000.0,
                p.wall.as_micros() as f64 / 1_000.0,
            ),
        );
    }
    emit_json(&points);
}

fn smoke() {
    let base = run(SMOKE_BASE);
    let fleet = run(SMOKE_FLEET);
    row(
        "E15",
        &format!(
            "smoke: {SMOKE_BASE} vs {SMOKE_FLEET} sessions  events {} vs {}  spurious {} vs {}  \
             p99 {:.2} vs {:.2} ms",
            base.events,
            fleet.events,
            base.spurious_wakes,
            fleet.spurious_wakes,
            base.audio_p99.as_micros() as f64 / 1_000.0,
            fleet.audio_p99.as_micros() as f64 / 1_000.0,
        ),
    );
    // The acceptance pin: scheduling work is a function of the active
    // population alone. Growing the fleet 156x changes nothing the kernel
    // counts — not events, not timers, not the simulated finish line, not
    // the audio tail — and no wake ever finds an empty slot.
    let want = (ACTIVE * PAGES) as u64;
    assert_eq!(base.pages, want, "every active page completed: {base:?}");
    assert_eq!(fleet.pages, want, "the full fleet completes the same pages: {fleet:?}");
    assert_eq!(
        fleet.events, base.events,
        "events scale with active sessions, never with the fleet"
    );
    assert_eq!(fleet.timers_armed, base.timers_armed, "armed timers likewise");
    assert_eq!(fleet.sim_elapsed, base.sim_elapsed, "identical simulated completion");
    assert_eq!(fleet.audio_p99, base.audio_p99, "identical audio tail");
    assert_eq!(base.spurious_wakes, 0, "no wake fired for an idle slot: {base:?}");
    assert_eq!(fleet.spurious_wakes, 0, "idle dwellers never woke: {fleet:?}");
    // The full series is cheap (simulated time), so the smoke reruns the
    // complete five-point sweep and holds it to the committed file, line for
    // line except the host-dependent `wall_us`. It never rewrites the file:
    // only the full bench run does.
    let fresh = series_json(&measure_series());
    let committed = std::fs::read_to_string(BENCH_PATH).expect("BENCH_sched.json is committed");
    let (fresh, committed) = (deterministic_lines(&fresh), deterministic_lines(&committed));
    if let Some((line, (new, old))) =
        fresh.iter().zip(&committed).enumerate().find(|(_, (new, old))| new != old)
    {
        panic!("BENCH_sched.json drifted at deterministic line {line}: committed {old:?}, fresh {new:?}");
    }
    assert_eq!(fresh.len(), committed.len(), "BENCH_sched.json drifted in length");
    row("E15", "series matches BENCH_sched.json (wall_us aside)");
}

fn bench(c: &mut Criterion) {
    print_series();
    let mut group = c.benchmark_group("e15_sched");
    for sessions in [SMOKE_BASE, SMOKE_FLEET] {
        group.bench_with_input(BenchmarkId::new("fleet", sessions), &sessions, |b, &n| {
            b.iter(|| run(n))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = fast_criterion();
    targets = bench
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    benches();
}

//! Wall-clock accounting from outside the program: every call into a MINOS
//! entry point goes through [`Meter::call`], which times it with
//! [`Instant`] and, in the traced run, records a span for it. Benchmark-side
//! work (input generation, byte checks, bookkeeping) never runs inside a
//! metered call, so it never counts as program time.

use std::time::{Duration, Instant};

/// The program entry points the benchmark calls, named as in the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    FleetNew,
    PublishPaged,
    Connect,
    EnableHeartbeat,
    FetchPage,
    Wait,
    RecyclePayload,
    AdvanceTo,
    ScrubMember,
    RestartMember,
    ServerNew,
    Publish,
    SchedulerNew,
    Open,
    Apply,
    Tick,
    DrainEvents,
}

impl Call {
    /// The calls whose self time the traced run reports per op.
    pub const REPORTED: [Call; 8] = [
        Call::FetchPage,
        Call::Wait,
        Call::AdvanceTo,
        Call::PublishPaged,
        Call::ScrubMember,
        Call::RestartMember,
        Call::Apply,
        Call::Tick,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Call::FleetNew => "fleet_new",
            Call::PublishPaged => "publish_paged",
            Call::Connect => "connect",
            Call::EnableHeartbeat => "enable_heartbeat",
            Call::FetchPage => "fetch_page",
            Call::Wait => "wait",
            Call::RecyclePayload => "recycle_payload",
            Call::AdvanceTo => "advance_to",
            Call::ScrubMember => "scrub_member",
            Call::RestartMember => "restart_member",
            Call::ServerNew => "server_new",
            Call::Publish => "publish",
            Call::SchedulerNew => "scheduler_new",
            Call::Open => "open",
            Call::Apply => "apply",
            Call::Tick => "tick",
            Call::DrainEvents => "drain_events",
        }
    }
}

/// One timed program call: which entry point, the op it served, and its
/// start and end in nanoseconds since the meter was created.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub call: Call,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Times program calls and accumulates the time spent inside them.
pub struct Meter {
    origin: Instant,
    inside: Duration,
    spans: Option<Vec<Span>>,
    /// Spans recorded before the op loop began: the set-up calls.
    setup_spans: usize,
}

impl Meter {
    /// A meter that records spans only when `trace` is set.
    pub fn new(trace: bool) -> Self {
        Meter {
            origin: Instant::now(),
            inside: Duration::ZERO,
            spans: trace.then(Vec::new),
            setup_spans: 0,
        }
    }

    /// Runs one program call, charging its wall time to the meter.
    #[inline]
    pub fn call<R>(&mut self, call: Call, op: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.inside += end - start;
        if let Some(spans) = &mut self.spans {
            let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
            spans.push(Span { call, op, start_ns: ns(start), end_ns: ns(end) });
        }
        out
    }

    /// Program time accumulated since the last take, resetting it.
    pub fn take(&mut self) -> Duration {
        std::mem::take(&mut self.inside)
    }

    /// Ends the set-up phase: returns its program time, like
    /// [`Meter::take`], and marks where the op loop's spans begin.
    pub fn end_setup(&mut self) -> Duration {
        self.setup_spans = self.spans().len();
        self.take()
    }

    /// The recorded spans (empty for an untraced meter).
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or_default()
    }

    /// How many of [`Meter::spans`] are set-up calls; the rest are the op
    /// loop's.
    pub fn setup_spans(&self) -> usize {
        self.setup_spans
    }
}

/// Splits a round's ops into a warm-up and equal measured slices, turning
/// each slice's program time into a rate.
pub struct Slicer {
    warmup: u64,
    slice: u64,
    slices: usize,
    done: u64,
    rates: Vec<f64>,
}

impl Slicer {
    pub fn new(warmup: u64, slice: u64, slices: usize) -> Self {
        Slicer { warmup, slice, slices, done: 0, rates: Vec::with_capacity(slices) }
    }

    /// Ops the slicer needs: the warm-up plus every measured slice.
    pub fn total(&self) -> u64 {
        self.warmup + self.slice * self.slices as u64
    }

    /// Marks one op complete; at a slice boundary the meter's program time
    /// becomes that slice's rate (the warm-up's time is discarded).
    pub fn op_done(&mut self, meter: &mut Meter) {
        self.done += 1;
        if self.done == self.warmup {
            meter.take();
        } else if self.done > self.warmup
            && (self.done - self.warmup).is_multiple_of(self.slice)
            && self.rates.len() < self.slices
        {
            let took = meter.take().as_secs_f64();
            self.rates.push(self.slice as f64 / took.max(1e-9));
        }
    }

    pub fn into_rates(self) -> Vec<f64> {
        self.rates
    }
}

/// The `q` quantile of `values`, interpolating between neighbours as
/// Python's `statistics.quantiles(method="inclusive")` does (0 for an empty
/// list). `q = 0.5` is the median.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let at = (v.len() - 1) as f64 * q;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// Nearest-rank percentile of an ascending list of samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The process's peak resident set (`VmHWM`) in MiB, from procfs.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50.0), 50);
        assert_eq!(percentile(&samples, 99.0), 99);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(quantile(&[3.0, 1.0, 2.0, 10.0], 0.5), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0, 5.0], 0.75), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.75), 1.75);
    }

    #[test]
    fn slicer_discards_the_warm_up_and_cuts_equal_slices() {
        let mut meter = Meter::new(false);
        let mut slicer = Slicer::new(2, 3, 2);
        assert_eq!(slicer.total(), 8);
        for _ in 0..slicer.total() {
            meter.call(Call::Wait, 0, || std::hint::black_box(1 + 1));
            slicer.op_done(&mut meter);
        }
        let rates = slicer.into_rates();
        assert_eq!(rates.len(), 2);
        assert!(rates.iter().all(|r| *r > 0.0));
    }
}

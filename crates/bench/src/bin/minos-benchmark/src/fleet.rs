//! The fleet workloads: `page_scan`, `lossy_scan` and `churn`.
//!
//! All three run one [`FleetConnection`] over a fleet of [`MEMBERS`]
//! servers with [`REPLICATION`] copies per object, closed-loop, in one
//! thread. Each delivered page is compared byte for byte with the generated
//! corpus, and each round ends by reconciling the counters the program
//! reports against what the benchmark saw.

use crate::layers::Counters;
use crate::meter::{percentile, Call, Meter, Slicer};
use crate::{Rng, Round, Sim};
use minos_net::{FaultPlan, Link, ServerResponse};
use minos_presentation::{Fleet, FleetConnection, FleetTicket};
use minos_types::{ByteSpan, ObjectId, SimDuration, SimInstant};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

pub const MEMBERS: usize = 4;
pub const REPLICATION: usize = 2;
/// Page size of the full workloads: the archive's 32 KiB transfer unit.
pub const PAGE_LEN: usize = 32 * 1024;
/// Readers of the scan workloads, each with one run of pages in flight.
const READERS: usize = 4;
/// Pages in one reader's read-ahead run.
const RUN: usize = 4;
/// The in-flight window: every reader's run at once.
pub const WINDOW: usize = READERS * RUN;
/// Per-frame fault rate of `lossy_scan`'s chaos plan.
pub const LOSS: f64 = 0.02;
/// Seed of `lossy_scan`'s fault stream. The fault pattern is part of the
/// workload, like the object ids: with it drawn from `--seed`, a round's
/// few thousand pages would see a different number of multi-retry pages
/// per seed, and the tail latency would vary by a fifth between seeds.
const FAULT_SEED: u64 = 0x1055_5c4e;
/// Retransmissions before a request fails. Above the default so that at
/// [`LOSS`] no request runs out of attempts: `lossy_scan` measures
/// recovery cost, not failures.
const MAX_RETRIES: u32 = 8;
const TIMEOUT: SimDuration = SimDuration::from_millis(500);
/// Pages of each object `churn` publishes while it reads.
const NEW_OBJECT_PAGES: usize = 4;
/// `churn` idles this long after each publish, so heartbeats fire.
const IDLE: SimDuration = SimDuration::from_millis(250);
const HEARTBEAT: SimDuration = SimDuration::from_millis(100);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Whole-object runs over a clean link.
    Scan,
    /// The same runs over the chaos fault plan.
    Lossy,
    /// Skewed random reads beside publishes, scrubs and restarts.
    Churn,
}

/// Sizes of one round. A slice is also `churn`'s period: one scrub and one
/// restart per slice, and a publish every `slice / 32` reads.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub objects: usize,
    pub pages: usize,
    pub page_len: usize,
    pub slice: u64,
    pub slices: usize,
}

impl Shape {
    pub fn full(mode: Mode) -> Self {
        let slice = match mode {
            Mode::Scan => 12_288,
            Mode::Lossy => 768,
            Mode::Churn => 8_192,
        };
        Shape { objects: 64, pages: 16, page_len: PAGE_LEN, slice, slices: 10 }
    }

    /// A few pages of a few KiB: small enough for unit tests in debug.
    pub fn tiny() -> Self {
        Shape { objects: 8, pages: 8, page_len: 1024, slice: 64, slices: 10 }
    }

    fn publish_every(&self) -> u64 {
        (self.slice / 32).max(1)
    }
}

/// The generated corpus: the objects published at set-up and, for
/// `churn`, the objects it publishes while reading.
#[derive(Clone)]
pub struct Inputs {
    pub mode: Mode,
    pub shape: Shape,
    pub seed: u64,
    pub objects: Vec<Vec<u8>>,
}

impl Inputs {
    pub fn generate(mode: Mode, shape: Shape, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let extra = match mode {
            Mode::Churn => {
                ((shape.slices as u64 + 1) * shape.slice / shape.publish_every()) as usize
            }
            _ => 0,
        };
        let sizes = std::iter::repeat_n(shape.pages, shape.objects)
            .chain(std::iter::repeat_n(NEW_OBJECT_PAGES, extra));
        let objects = sizes
            .map(|pages| {
                let mut bytes = vec![0u8; pages * shape.page_len];
                rng.fill(&mut bytes);
                bytes
            })
            .collect();
        Inputs { mode, shape, seed, objects }
    }

    #[cfg(test)]
    /// Flips one byte in every page of the expected corpus, so whichever
    /// pages a round reads, a check against these inputs must fail.
    pub fn tamper(&mut self) {
        let page_len = self.shape.page_len;
        for object in &mut self.objects {
            for page in object.chunks_mut(page_len) {
                page[page_len / 2] ^= 0x40;
            }
        }
    }

    /// One page of the corpus, for the layer probes.
    pub fn first_page(&self) -> &[u8] {
        &self.objects[0][..self.shape.page_len]
    }

    fn pages_of(&self, object: usize) -> usize {
        self.objects[object].len() / self.shape.page_len
    }
}

/// Object ids are fixed (1, 2, …) so that placement, and with it the
/// simulated load on each member, is the same for every seed; the seed
/// varies contents and read order.
fn object_id(index: usize) -> ObjectId {
    ObjectId::new(index as u64 + 1)
}

struct Pending {
    ticket: FleetTicket,
    object: usize,
    page: usize,
    sent: SimInstant,
}

/// The benchmark's side of one round: the connection plus its own books.
struct Client<'a> {
    conn: FleetConnection,
    expect: &'a Inputs,
    submitted: u64,
    verified: u64,
    failed: u64,
    pages_checked: u64,
    latencies: Vec<u64>,
    verify: Duration,
    problems: Vec<String>,
}

impl Client<'_> {
    fn now(&self) -> SimInstant {
        SimInstant::EPOCH + self.conn.elapsed()
    }

    fn submit(&mut self, meter: &mut Meter, object: usize, page: usize) -> Result<Pending, String> {
        let sent = self.now();
        let len = self.expect.shape.page_len;
        let rel = ByteSpan::at((page * len) as u64, len as u64);
        let op = self.submitted;
        let ticket = meter
            .call(Call::FetchPage, op, || self.conn.fetch_page(object_id(object), rel))
            .map_err(|e| format!("fetch_page of object {object} page {page}: {e}"))?;
        self.submitted += 1;
        Ok(Pending { ticket, object, page, sent })
    }

    /// Collects one page, checks its bytes and returns the buffer.
    fn collect(&mut self, meter: &mut Meter, p: Pending) -> Result<(), String> {
        let op = self.verified + self.failed;
        let (response, _) = meter
            .call(Call::Wait, op, || self.conn.wait(p.ticket))
            .map_err(|e| format!("wait for object {} page {}: {e}", p.object, p.page))?;
        self.latencies.push(self.now().since(p.sent).as_micros());
        match response {
            ServerResponse::Span(bytes) => {
                let started = Instant::now();
                let len = self.expect.shape.page_len;
                let want = &self.expect.objects[p.object][p.page * len..][..len];
                let same = bytes.as_slice() == want;
                self.verify += started.elapsed();
                self.pages_checked += 1;
                if same {
                    self.verified += 1;
                } else if self.problems.len() < 8 {
                    self.problems.push(format!(
                        "object {} page {} came back with different bytes",
                        p.object, p.page
                    ));
                }
                meter.call(Call::RecyclePayload, op, || self.conn.recycle_payload(bytes));
            }
            ServerResponse::Error(_) => self.failed += 1,
            other => {
                return Err(format!("object {} page {}: unexpected {other:?}", p.object, p.page))
            }
        }
        Ok(())
    }
}

/// Runs one round: set-up, then the closed loop, publishing from `inputs`
/// and checking every delivered byte against `expect`.
pub fn round(inputs: &Inputs, expect: &Inputs, meter: &mut Meter) -> Result<Round, String> {
    let shape = inputs.shape;
    let page_len = shape.page_len as u64;
    meter.take();
    let mut fleet = meter
        .call(Call::FleetNew, 0, || Fleet::new(MEMBERS, REPLICATION))
        .map_err(|e| format!("fleet: {e}"))?;
    for (i, bytes) in inputs.objects[..shape.objects].iter().enumerate() {
        meter
            .call(Call::PublishPaged, 0, || fleet.publish_paged(object_id(i), bytes, page_len))
            .map_err(|e| format!("publish object {i}: {e}"))?;
    }
    let plan = match inputs.mode {
        Mode::Lossy => FaultPlan::chaos(FAULT_SEED, LOSS),
        _ => FaultPlan::none(),
    };
    let mut conn = meter.call(Call::Connect, 0, || {
        FleetConnection::with_faults(fleet, Link::ethernet(), WINDOW, plan)
            .with_recovery(TIMEOUT, MAX_RETRIES)
    });
    if inputs.mode == Mode::Churn {
        meter.call(Call::EnableHeartbeat, 0, || conn.enable_heartbeat(HEARTBEAT));
    }
    let setup = meter.end_setup();

    let mut slicer = Slicer::new(shape.slice, shape.slice, shape.slices);
    let total = slicer.total();
    let mut d = Client {
        conn,
        expect,
        submitted: 0,
        verified: 0,
        failed: 0,
        pages_checked: 0,
        latencies: Vec::with_capacity(total as usize),
        verify: Duration::ZERO,
        problems: Vec::new(),
    };
    let mut rng = Rng::new(inputs.seed ^ 0x5eed_0fc0_ffee);
    let extra = match inputs.mode {
        Mode::Churn => churn(&mut d, &mut rng, &mut slicer, meter, inputs)?,
        _ => scan(&mut d, &mut rng, &mut slicer, meter, &shape)?,
    };
    meter.take();

    let mut problems = std::mem::take(&mut d.problems);
    let counters = Counters::from_fleet(&d.conn, MEMBERS);
    reconcile(&d, &counters, &mut problems);
    check_premise(inputs.mode, &d.conn, &counters, &extra, &mut problems);
    d.latencies.sort_unstable();
    let sim = Sim {
        verified: d.verified,
        pages: d.verified,
        elapsed_us: d.conn.elapsed().as_micros(),
        p50_us: percentile(&d.latencies, 50.0),
        p99_us: percentile(&d.latencies, 99.0),
        samples: d.latencies.len() as u64,
    };
    Ok(Round {
        setup,
        rates: slicer.into_rates(),
        sim,
        attempted: d.submitted,
        failed: d.failed,
        verify: d.verify,
        counters,
        problems,
    })
}

/// `page_scan` and `lossy_scan`: each reader walks its own shuffled order
/// of the corpus, a run of [`RUN`] consecutive pages at a time; a reader
/// collects its whole run before it submits the next.
fn scan(
    d: &mut Client,
    rng: &mut Rng,
    slicer: &mut Slicer,
    meter: &mut Meter,
    shape: &Shape,
) -> Result<Extra, String> {
    let total = slicer.total();
    let runs_per_object = shape.pages / RUN;
    let mut orders: Vec<VecDeque<(usize, usize)>> = vec![VecDeque::new(); READERS];
    let mut inflight: Vec<Vec<Pending>> = (0..READERS).map(|_| Vec::with_capacity(RUN)).collect();
    let mut delivered = 0u64;
    loop {
        for r in 0..READERS {
            for p in inflight[r].drain(..) {
                d.collect(meter, p)?;
                delivered += 1;
                slicer.op_done(meter);
            }
            if d.submitted >= total {
                continue;
            }
            if orders[r].is_empty() {
                let mut objects: Vec<usize> = (0..shape.objects).collect();
                rng.shuffle(&mut objects);
                orders[r] = objects
                    .into_iter()
                    .flat_map(|o| (0..runs_per_object).map(move |k| (o, k)))
                    .collect();
            }
            let (object, k) = orders[r].pop_front().expect("order refilled above");
            for page in k * RUN..(k + 1) * RUN {
                let p = d.submit(meter, object, page)?;
                inflight[r].push(p);
            }
        }
        if delivered >= total {
            return Ok(Extra::default());
        }
    }
}

/// What `churn` did beside reading, for its premise check.
#[derive(Default)]
struct Extra {
    restarts: u64,
    scrubs: u64,
    corrupt: u64,
}

/// `churn`: single-page reads, skewed towards recently published objects,
/// with a window of [`WINDOW`] in flight. Every `publish_every` reads it
/// publishes a new object and idles; every slice it scrubs one member; and
/// half-way through each slice it restarts the member the read it has
/// just submitted is aimed at.
fn churn(
    d: &mut Client,
    rng: &mut Rng,
    slicer: &mut Slicer,
    meter: &mut Meter,
    inputs: &Inputs,
) -> Result<Extra, String> {
    let shape = inputs.shape;
    let total = slicer.total();
    let mut extra = Extra::default();
    let mut live = shape.objects;
    let pick = |rng: &mut Rng, live: usize| {
        let u = rng.unit();
        let object = live - 1 - ((live as f64 * u * u) as usize).min(live - 1);
        (object, rng.below(inputs.pages_of(object) as u64) as usize)
    };
    let mut inflight = VecDeque::with_capacity(WINDOW);
    while d.submitted < total && inflight.len() < WINDOW {
        let (object, page) = pick(rng, live);
        inflight.push_back(d.submit(meter, object, page)?);
    }
    let mut delivered = 0u64;
    while let Some(p) = inflight.pop_front() {
        d.collect(meter, p)?;
        delivered += 1;
        if delivered.is_multiple_of(shape.publish_every()) && live < inputs.objects.len() {
            let bytes = &inputs.objects[live];
            let conn = &mut d.conn;
            meter
                .call(Call::PublishPaged, delivered, || {
                    conn.fleet_mut().publish_paged(object_id(live), bytes, shape.page_len as u64)
                })
                .map_err(|e| format!("publish object {live}: {e}"))?;
            live += 1;
            let idle_until = d.now() + IDLE;
            meter.call(Call::AdvanceTo, delivered, || d.conn.advance_to(idle_until));
        }
        if delivered.is_multiple_of(shape.slice) {
            let member = (extra.scrubs as usize) % MEMBERS;
            let conn = &mut d.conn;
            let report = meter
                .call(Call::ScrubMember, delivered, || conn.fleet_mut().scrub_member(member))
                .map_err(|e| format!("scrub member {member}: {e}"))?;
            extra.scrubs += 1;
            extra.corrupt += report.corrupt.len() as u64;
        }
        slicer.op_done(meter);
        if d.submitted < total {
            let (object, page) = pick(rng, live);
            inflight.push_back(d.submit(meter, object, page)?);
            if delivered % shape.slice == shape.slice / 2 {
                // The read just submitted is the only one not yet served,
                // so exactly one request is lost and replayed: its replay
                // order cannot depend on hash-map iteration. Requests
                // rotate over the replica set by id, and ids count up from
                // one per connection.
                let victim = d
                    .conn
                    .fleet()
                    .placement(object_id(object))
                    .map(|p| p.replica_for(d.submitted).member)
                    .ok_or_else(|| format!("object {object} has no placement"))?;
                let conn = &mut d.conn;
                meter
                    .call(Call::RestartMember, delivered, || {
                        conn.fleet_mut().restart_member(victim)
                    })
                    .map_err(|e| format!("restart member {victim}: {e}"))?;
                extra.restarts += 1;
            }
        }
    }
    Ok(extra)
}

/// The counters the program reports must agree with what the benchmark
/// saw: every submitted page came back (delivered or failed), the service
/// served at least every delivered page, and the wire carried at least
/// their bytes.
fn reconcile(d: &Client, c: &Counters, problems: &mut Vec<String>) {
    if d.pages_checked + d.failed != d.submitted {
        problems.push(format!(
            "{} pages checked + {} failed != {} submitted",
            d.pages_checked, d.failed, d.submitted
        ));
    }
    if c.service.served < d.verified {
        problems.push(format!("service served {} < {} delivered", c.service.served, d.verified));
    }
    let page_len = d.expect.shape.page_len as u64;
    if c.link.bytes < d.verified * page_len {
        problems.push(format!(
            "link carried {} bytes < {} pages of {page_len}",
            c.link.bytes, d.verified
        ));
    }
}

/// Each workload's declared premise must have fired.
fn check_premise(
    mode: Mode,
    conn: &FleetConnection,
    c: &Counters,
    extra: &Extra,
    problems: &mut Vec<String>,
) {
    let t = &c.transport;
    let mut require = |ok: bool, what: String| {
        if !ok {
            problems.push(format!("premise not met: {what}"));
        }
    };
    match mode {
        Mode::Scan => require(t.retries == 0, format!("a clean link retried {} times", t.retries)),
        Mode::Lossy => {
            let f = conn.fault_stats();
            let mangled = f.dropped + f.corrupted + f.truncated;
            require(mangled > 0, "the chaos plan mangled no frame".into());
            require(t.retries > 0, "no request was retransmitted".into());
        }
        Mode::Churn => {
            require(extra.restarts > 0, "no member restarted".into());
            require(
                t.epoch_resyncs == extra.restarts && t.replays == extra.restarts,
                format!(
                    "{} epoch resyncs and {} replays for {} restarts, each of which should lose one request",
                    t.epoch_resyncs, t.replays, extra.restarts
                ),
            );
            require(extra.scrubs > 0, "no scrub ran".into());
            require(extra.corrupt == 0, format!("scrub found {} corrupt pages", extra.corrupt));
            require(conn.health().stats().pings > 0, "no heartbeat fired".into());
        }
    }
}

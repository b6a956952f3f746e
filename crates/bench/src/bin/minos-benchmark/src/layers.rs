//! Per-layer metrics, printed only by the traced run.
//!
//! Two sources. The counters every layer already keeps (transport, link,
//! service, kernel) are read once at the end of the traced round and turned
//! into ratios per op. The probes time one public function of each hot
//! layer in isolation, on the workload's page size, and report ns/op as
//! the median of [`BATCHES`] batches.

use crate::fleet::{MEMBERS, PAGE_LEN, REPLICATION};
use crate::meter::{quantile, Call, Span};
use crate::{Metric, Rng, Round};
use minos_net::{
    crc32, BufferPool, FaultPlan, FaultyLink, Frame, FramePayload, Link, LinkStats, Priority,
    ServerRequest, ServerResponse,
};
use minos_presentation::{
    rendezvous_order, Fleet, FleetConnection, Kernel, KernelEvent, KernelStats, TransportStats,
};
use minos_server::{ObjectServer, ServiceStats};
use minos_types::{ByteSpan, ObjectId, SimDuration};
use std::hint::black_box;
use std::time::Instant;

/// Batches per probe; the reported figure is their median.
const BATCHES: usize = 15;
/// Pages of the object the fleet and service probes publish.
const PROBE_PAGES: usize = 16;
const KIB: f64 = 1024.0;

/// Every layer's own accounting at the end of a round.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub members: u64,
    pub transport: TransportStats,
    pub link: LinkStats,
    pub service: ServiceStats,
    pub kernel: KernelStats,
}

impl Counters {
    pub fn from_fleet(conn: &FleetConnection, members: usize) -> Self {
        Counters {
            members: members as u64,
            transport: conn.transport_stats(),
            link: conn.link_stats(),
            service: conn.fleet().service_stats(),
            kernel: conn.kernel_stats(),
        }
    }
}

/// Times `op` in [`BATCHES`] batches of `per_batch` runs after one warm-up
/// batch; `setup` builds each batch's fresh state outside the timing.
fn probe<S>(per_batch: usize, mut setup: impl FnMut() -> S, mut op: impl FnMut(&mut S)) -> f64 {
    let mut per_op = Vec::with_capacity(BATCHES);
    for batch in 0..=BATCHES {
        let mut state = setup();
        let started = Instant::now();
        for _ in 0..per_batch {
            op(&mut state);
        }
        let took = started.elapsed().as_nanos() as f64 / per_batch as f64;
        if batch > 0 {
            per_op.push(took);
        }
    }
    quantile(&per_op, 0.5)
}

/// Runs every layer probe on `page`, the workload's page, and returns the
/// timing metrics. Batches shrink by `effort` (1 for real runs).
pub fn probes(page: &[u8], seed: u64, effort: usize) -> Vec<Metric> {
    let n = |per_batch: usize| (per_batch / effort).max(1);
    let kib = page.len() as f64 / KIB;
    let object = page.repeat(PROBE_PAGES);
    let mut out = Vec::new();
    let mut push =
        |name: &str, value: f64, unit: &'static str| out.push(Metric::new(name, value, unit));

    push(
        "frame.crc32_ns_per_kib",
        probe(
            n(16),
            || (),
            |_| {
                black_box(crc32(black_box(page)));
            },
        ) / kib,
        "ns/KiB",
    );

    let response = Frame::response(1, 7, ServerResponse::Span(page.to_vec()));
    let mut encoded = Vec::new();
    push(
        "frame.encode_ns",
        probe(n(16), || (), |_| response.encode_into(black_box(&mut encoded))),
        "ns",
    );
    push(
        "frame.decode_ns",
        probe(n(16), || (), |_| drop(black_box(Frame::decode(black_box(&encoded))))),
        "ns",
    );

    let fetch = ServerRequest::FetchSpan { span: ByteSpan::at(0, page.len() as u64) };
    let mut request = Vec::new();
    push(
        "frame.request_ns",
        probe(
            n(10_000),
            || 0u64,
            |rid| {
                *rid += 1;
                Frame::encode_request_into(1, *rid, Priority::Demand, &fetch, &mut request);
                drop(black_box(Frame::decode(black_box(&request))));
            },
        ),
        "ns",
    );

    push(
        "fault.transmit_ns",
        probe(
            n(256),
            || FaultyLink::new(Link::ethernet(), FaultPlan::chaos(seed, crate::fleet::LOSS)),
            |link| drop(black_box(link.transmit(black_box(&encoded)))),
        ),
        "ns",
    );

    let pool = BufferPool::new();
    push(
        "pool.lease_recycle_ns",
        probe(n(50_000), || (), |_| pool.recycle(black_box(pool.lease_vec()))),
        "ns",
    );

    // The service loop over one window of frames as a k-way replicated
    // scan leaves them at one member: every REPLICATION-th page, so no two
    // are adjacent and none coalesce.
    let mut server = ObjectServer::new();
    let (record, _) = server
        .archiver_mut()
        .store(ObjectId::new(1), &object)
        .expect("a fresh optical disk stores the probe object");
    let span = record.span;
    let window: Vec<Frame> = (0..crate::fleet::WINDOW as u64)
        .map(|i| {
            let at = span.start + (i * REPLICATION as u64 % PROBE_PAGES as u64) * page.len() as u64;
            let fetch = ServerRequest::FetchSpan { span: ByteSpan::at(at, page.len() as u64) };
            Frame::request(1, i + 1, fetch)
        })
        .collect();
    let serve = probe(
        n(32),
        || (),
        |_| {
            for frame in &window {
                server.enqueue(frame.clone()).expect("request frames enqueue");
            }
            while let Some((frame, _)) = server.poll_conn(1) {
                if let FramePayload::Response(ServerResponse::Span(buf)) = frame.payload {
                    server.recycle_payload(buf);
                }
            }
        },
    );
    push("service.serve_ns_per_page", serve / window.len() as f64, "ns");

    let mut buf = Vec::new();
    let first = ByteSpan::at(span.start, page.len() as u64);
    push(
        "archiver.read_ns_per_kib",
        probe(
            n(512),
            || (),
            |_| drop(black_box(server.archiver_mut().read_at_into(first, &mut buf))),
        ) / kib,
        "ns/KiB",
    );
    push(
        "archiver.store_ns_per_kib",
        probe(
            n(128),
            || (ObjectServer::new(), 0u64),
            |(server, id)| {
                *id += 1;
                drop(black_box(server.archiver_mut().store(ObjectId::new(*id), page)));
            },
        ) / kib,
        "ns/KiB",
    );

    let deadline = SimDuration::from_millis(500);
    push(
        "kernel.arm_cancel_ns",
        probe(n(20_000), Kernel::new, |k| {
            let id = k.arm(k.now() + deadline, KernelEvent::RetryDue { request_id: 1, attempt: 0 });
            k.cancel(id);
        }),
        "ns",
    );
    push(
        "kernel.arm_fire_ns",
        probe(n(20_000), Kernel::new, |k| {
            let at = k.now() + SimDuration::from_micros(50);
            k.arm(at, KernelEvent::AudioDeadline { session: 1 });
            k.advance_to(at);
            black_box(k.take_ready());
        }),
        "ns",
    );

    let mut id = 0u64;
    push(
        "fleet.rendezvous_ns",
        probe(
            n(20_000),
            || (),
            |_| {
                id += 1;
                drop(black_box(rendezvous_order(ObjectId::new(id), MEMBERS)));
            },
        ),
        "ns",
    );
    let new_fleet = || Fleet::new(MEMBERS, REPLICATION).expect("the fleet shape is valid");
    push(
        "fleet.publish_ns_per_kib",
        probe(1, new_fleet, |fleet| {
            drop(black_box(fleet.publish_paged(ObjectId::new(1), &object, page.len() as u64)));
        }) / (object.len() as f64 / KIB),
        "ns/KiB",
    );
    let mut fleet = new_fleet();
    let placement =
        fleet.publish_paged(ObjectId::new(1), &object, page.len() as u64).expect("probe publish");
    let holder = placement.primary().member;
    push(
        "fleet.verify_ns_per_page",
        probe(1, || (), |_| drop(black_box(fleet.verify_copy(ObjectId::new(1), holder))))
            / PROBE_PAGES as f64,
        "ns",
    );
    out
}

/// A page of the workload's size for workloads with no page corpus.
pub fn seeded_page(seed: u64) -> Vec<u8> {
    let mut page = vec![0u8; PAGE_LEN];
    Rng::new(seed).fill(&mut page);
    page
}

/// The counter-derived metrics of the traced round, per op where a count
/// grows with the work done.
pub fn counter_metrics(round: &Round) -> Vec<Metric> {
    let c = &round.counters;
    let ops = round.sim.verified.max(1) as f64;
    let elapsed_us = round.sim.elapsed_us.max(1) as f64;
    let per_op = |n: u64| n as f64 / ops;
    let share = |part: u64, whole: u64| if whole == 0 { 0.0 } else { part as f64 / whole as f64 };
    let t = &c.transport;
    let s = &c.service;
    let k = &c.kernel;
    vec![
        Metric::new("pool.allocs_per_page", per_op(t.payload_allocs + s.payload_allocs), "count"),
        Metric::new("service.coalesced_share", share(s.coalesced_runs, s.served), "ratio"),
        Metric::new("service.queue_high_water", s.queue_high_water as f64, "count"),
        Metric::new("service.busy_rejections_per_page", per_op(s.busy_rejections), "count"),
        Metric::new("kernel.timers_per_op", per_op(k.timers_armed), "count"),
        Metric::new("kernel.events_per_op", per_op(k.events_fired), "count"),
        // Cancelled timers that reach their deadline count as spurious
        // wakes, not as fired events: the share is of all wakes.
        Metric::new(
            "kernel.spurious_share",
            share(k.spurious_wakes, k.events_fired + k.spurious_wakes),
            "ratio",
        ),
        Metric::new("transport.retries_per_page", per_op(t.retries), "count"),
        Metric::new("transport.failovers_per_page", per_op(t.failovers), "count"),
        Metric::new("transport.duplicates_per_page", per_op(t.duplicates), "count"),
        Metric::new("transport.corrupt_per_page", per_op(t.corrupt_frames), "count"),
        Metric::new("transport.replays", t.replays as f64, "count"),
        Metric::new("transport.epoch_resyncs", t.epoch_resyncs as f64, "count"),
        Metric::new("link.busy_share", c.link.busy.as_micros() as f64 / elapsed_us, "ratio"),
        Metric::new("link.wire_bytes_per_page", per_op(c.link.bytes), "B"),
        Metric::new(
            "device.busy_share",
            s.busy.as_micros() as f64 / (c.members.max(1) as f64 * elapsed_us),
            "ratio",
        ),
    ]
}

/// Self time per op and share of program time for each reported call.
/// Spans never nest (each wraps one top-level call), so a span's self time
/// is its duration.
pub fn span_metrics(spans: &[Span], ops: u64) -> Vec<Metric> {
    let total: u64 = spans.iter().map(|s| s.end_ns - s.start_ns).sum();
    let mut out = Vec::new();
    for call in Call::REPORTED {
        let own: u64 = spans.iter().filter(|s| s.call == call).map(|s| s.end_ns - s.start_ns).sum();
        let name = call.name();
        out.push(Metric::new(
            &format!("span.{name}.us_per_op"),
            own as f64 / 1e3 / ops.max(1) as f64,
            "us/op",
        ));
        out.push(Metric::new(
            &format!("span.{name}.share"),
            if total == 0 { 0.0 } else { own as f64 / total as f64 },
            "ratio",
        ));
    }
    out
}

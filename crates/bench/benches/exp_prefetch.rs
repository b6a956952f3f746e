//! Experiment E11 — anticipatory prefetch and continuous presentation.
//!
//! "The presentation manager tries to anticipate the user's requests and
//! prefetch the appropriate pieces of information." (§5) A 1 MB record is
//! presented as sixteen 64 KB pages over the 10 Mbit/s Ethernet and the
//! optical-disk model, with a 320 ms dwell per page. The series reports,
//! per prefetch depth, the opening latency, the total stall time (fetch
//! time the dwell could not hide — the continuity metric), round trips,
//! and the buffer accounting; Criterion times the depth-2 pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minos_bench::{fast_criterion, row};
use minos_net::{Link, ServerRequest};
use minos_presentation::prefetch::{page_spans, PrefetchBuffer, PrefetchStats};
use minos_presentation::Client;
use minos_server::ObjectServer;
use minos_types::{ByteSpan, ObjectId, SimDuration};

const RECORD_LEN: usize = 1 << 20;
const PAGES: usize = 16;
const DWELL: SimDuration = SimDuration::from_millis(320);

fn pipeline(depth: usize) -> (PrefetchBuffer, ByteSpan) {
    let mut server = ObjectServer::new();
    let data = vec![0xA5u8; RECORD_LEN];
    let (record, _) = server.archiver_mut().store(ObjectId::new(1), &data).unwrap();
    (PrefetchBuffer::new(Client::new(server, Link::ethernet()), depth), record.span)
}

fn play(depth: usize) -> (PrefetchStats, u64) {
    let (mut pipe, span) = pipeline(depth);
    let plan: Vec<ServerRequest> =
        page_spans(span, PAGES).into_iter().map(|span| ServerRequest::FetchSpan { span }).collect();
    pipe.prime(&plan).unwrap();
    for (i, need) in plan.iter().enumerate() {
        pipe.step(need, &plan[i + 1..], DWELL).unwrap();
    }
    (pipe.stats(), pipe.client().round_trips())
}

fn print_series() {
    row("E11", "record = 1 MB in 16 x 64 KB pages; dwell = 320 ms/page;");
    row("E11", "link = 10 Mbit/s Ethernet; optical server; adjacent spans coalesce");
    row("E11", "depth  opening  total_stall  stall/page  trips  hits  misses  wasted");
    for depth in [0usize, 1, 2, 4] {
        let (stats, trips) = play(depth);
        row(
            "E11",
            &format!(
                "{depth:>5}  {:>7}  {:>11}  {:>10}  {trips:>5}  {:>4}  {:>6}  {:>6}",
                stats.opening,
                stats.stall,
                stats.stall / PAGES as u64,
                stats.hits,
                stats.misses,
                stats.wasted()
            ),
        );
    }
}

fn bench(c: &mut Criterion) {
    print_series();
    let mut group = c.benchmark_group("e11_prefetch");
    for depth in [0usize, 2] {
        group.bench_with_input(BenchmarkId::new("pipeline_16_pages", depth), &depth, |b, &d| {
            b.iter(|| play(d))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = fast_criterion();
    targets = bench
}
criterion_main!(benches);

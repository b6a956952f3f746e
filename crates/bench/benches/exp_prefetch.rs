//! Experiment E11 — anticipatory prefetch and continuous presentation.
//!
//! "The presentation manager tries to anticipate the user's requests and
//! prefetch the appropriate pieces of information." (§5) A 1 MB record is
//! presented as sixteen 64 KB pages over the 10 Mbit/s Ethernet and the
//! optical-disk model, with a 320 ms dwell per page, reading ahead through
//! one `Client`'s window. The series reports, per read-ahead depth, the
//! opening wait, the total stall time (fetch time the dwell could not
//! hide — the continuity metric), round trips, and the server's coalesced
//! device reads; Criterion times depths 0 and 2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minos_bench::{fast_criterion, row};
use minos_net::{Link, ServerRequest};
use minos_presentation::prefetch::{page_spans, read_ahead, ReadAhead};
use minos_presentation::Client;
use minos_server::ObjectServer;
use minos_types::{ObjectId, SimDuration};

const RECORD_LEN: usize = 1 << 20;
const PAGES: usize = 16;
const DWELL: SimDuration = SimDuration::from_millis(320);

fn play(depth: usize) -> (ReadAhead, Client) {
    let mut server = ObjectServer::new();
    let data = vec![0xA5u8; RECORD_LEN];
    let (record, _) = server.archiver_mut().store(ObjectId::new(1), &data).unwrap();
    let mut client = Client::new(server, Link::ethernet());
    let plan: Vec<ServerRequest> = page_spans(record.span, PAGES)
        .into_iter()
        .map(|span| ServerRequest::FetchSpan { span })
        .collect();
    let waits = read_ahead(&mut client, &plan, depth, DWELL, |_, _, _| {}).unwrap();
    (waits, client)
}

fn print_series() {
    row("E11", "record = 1 MB in 16 x 64 KB pages; dwell = 320 ms/page;");
    row("E11", "link = 10 Mbit/s Ethernet; optical server; adjacent spans coalesce");
    row("E11", "depth  opening  total_stall  stall/page  trips  coalesced");
    for depth in [0usize, 1, 2, 4] {
        let (waits, client) = play(depth);
        row(
            "E11",
            &format!(
                "{depth:>5}  {:>7}  {:>11}  {:>10}  {:>5}  {:>9}",
                waits.opening,
                waits.stall,
                waits.stall / PAGES as u64,
                client.round_trips(),
                client.endpoint().service_stats().coalesced_runs
            ),
        );
    }
}

fn bench(c: &mut Criterion) {
    print_series();
    let mut group = c.benchmark_group("e11_prefetch");
    for depth in [0usize, 2] {
        group.bench_with_input(BenchmarkId::new("read_ahead_16_pages", depth), &depth, |b, &d| {
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

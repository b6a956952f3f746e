//! Experiment E6 — miniature-first sequential browsing.
//!
//! "Miniatures of qualifying objects may be returned to the user using a
//! sequential browsing interface in order to facilitate browsing through a
//! large number of objects that may qualify." (§5) The series compares the
//! transfer volume and time of streaming miniatures for a result list
//! against shipping the full objects.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minos_bench::{fast_criterion, mixed_archive, row, server_with};
use minos_net::Link;
use minos_presentation::Workstation;
use minos_types::ObjectId;

fn print_series() {
    row("E6", "archive of mixed reports/documents/maps; link = 10 Mbit/s Ethernet");
    row("E6", "hits  mini_bytes  mini_time  full_bytes  full_time  byte_ratio");
    for n in [4u64, 8, 16] {
        let (server, bases) = server_with(mixed_archive(n));
        let mut ws = Workstation::new(server, Link::ethernet());
        let ids: Vec<ObjectId> = bases.iter().map(|(id, _)| *id).collect();
        ws.miniature_stream(&ids).unwrap();
        let (mb, mt) = (ws.bytes_transferred(), ws.elapsed());
        for (id, base) in &bases {
            ws.fetch_object(*id, *base).unwrap();
        }
        let (fb, ft) = (ws.bytes_transferred() - mb, ws.elapsed() - mt);
        row(
            "E6",
            &format!(
                "{:>4}  {mb:>10}  {mt:>9}  {fb:>10}  {ft:>9}  {:>9.1}x",
                ids.len(),
                fb as f64 / mb as f64
            ),
        );
    }
}

fn bench(c: &mut Criterion) {
    print_series();
    let mut group = c.benchmark_group("e6_miniature_browsing");
    {
        let n = 8u64;
        let (server, bases) = server_with(mixed_archive(n));
        let ids: Vec<ObjectId> = bases.iter().map(|(id, _)| *id).collect();
        let mut ws = Workstation::new(server, Link::ethernet());
        group.bench_with_input(BenchmarkId::new("miniature_stream", n), &ids, |b, ids| {
            b.iter(|| ws.miniature_stream(ids).unwrap())
        });
        let (server, bases2) = server_with(mixed_archive(n));
        let mut ws_full = Workstation::new(server, Link::ethernet());
        group.bench_with_input(BenchmarkId::new("full_objects", n), &bases2, |b, bases| {
            b.iter(|| {
                for (id, base) in bases {
                    ws_full.fetch_object(*id, *base).unwrap();
                }
            })
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

//! Experiment E5 — view retrieval vs whole-image retrieval.
//!
//! "When a view is defined on the representation image the system has to
//! transfer only the data of the view in main memory and not the whole
//! image." (§2) The series reports bytes moved and simulated latency for a
//! fixed 200×150 window against whole images of growing size; Criterion
//! times the workstation-side fetch path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minos_bench::{fast_criterion, row, server_with};
use minos_image::{Bitmap, Image};
use minos_net::Link;
use minos_object::{DrivingMode, MultimediaObject};
use minos_presentation::Client;
use minos_types::{ObjectId, Rect};

fn image_object(id: u64, side: u32) -> MultimediaObject {
    let mut obj = MultimediaObject::new(ObjectId::new(id), "big-image", DrivingMode::Visual);
    let mut bm = Bitmap::new(side, side);
    for i in 0..side as i32 {
        bm.set(i, i, true);
    }
    obj.images.push(Image::Bitmap(bm));
    obj.archive().unwrap();
    obj
}

fn print_series() {
    row("E5", "window = 200x150 px; link = 10 Mbit/s Ethernet; optical server");
    row("E5", "image_side  view_bytes  view_latency  full_bytes  full_latency  ratio");
    for side in [400u32, 800, 1_600] {
        let (server, _) = server_with(vec![image_object(1, side)]);
        let mut ws = Client::new(server, Link::ethernet());
        ws.fetch_view(ObjectId::new(1), 0, Rect::new(50, 50, 200, 150)).unwrap();
        let (vb, vt) = (ws.bytes_transferred(), ws.elapsed());
        ws.fetch_view(ObjectId::new(1), 0, Rect::new(0, 0, side, side)).unwrap();
        let (fb, ft) = (ws.bytes_transferred() - vb, ws.elapsed() - vt);
        row(
            "E5",
            &format!(
                "{side:>10}  {vb:>10}  {vt:>12}  {fb:>10}  {ft:>12}  {:>5.1}x",
                fb as f64 / vb as f64
            ),
        );
    }
}

fn bench(c: &mut Criterion) {
    print_series();
    let mut group = c.benchmark_group("e5_view_retrieval");
    for side in [800u32, 1_600] {
        let (server, _) = server_with(vec![image_object(1, side)]);
        let mut ws = Client::new(server, Link::ethernet());
        group.bench_with_input(BenchmarkId::new("window_200x150", side), &side, |b, _| {
            b.iter(|| ws.fetch_view(ObjectId::new(1), 0, Rect::new(50, 50, 200, 150)).unwrap())
        });
        let (server, _) = server_with(vec![image_object(1, side)]);
        let mut ws_full = Client::new(server, Link::ethernet());
        group.bench_with_input(BenchmarkId::new("whole_image", side), &side, |b, &s| {
            b.iter(|| ws_full.fetch_view(ObjectId::new(1), 0, Rect::new(0, 0, s, s)).unwrap())
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

//! Shape assertions for the paper's performance claims (E2, E4–E7).
//!
//! The benches in `crates/bench` print the full series; these tests pin the
//! *direction* of each result so a regression that flips a conclusion
//! fails CI, not just a chart.

use minos::corpus::objects::archived_form;
use minos::corpus::{self, speech};
use minos::net::Link;
use minos::presentation::Client;
use minos::server::ObjectServer;
use minos::storage::{
    sched::mean_response, simulate_schedule, BlockCache, BlockDevice, OpticalDisk, Request,
    SchedPolicy,
};
use minos::types::{ByteSpan, ObjectId, Rect, SimDuration, SimInstant};
use minos::voice::eval::{evaluate_pauses, mean_rewind_error};
use minos::voice::pause::PauseDetector;
use minos::voice::recognize::{Recognizer, RecognizerConfig, UtteranceIndex};
use minos::voice::synth::{synthesize, SpeakerProfile};

/// E5: retrieving a view window moves far fewer bytes than the whole
/// image, and the gap grows with image size. The whole-image fetch is
/// measured as the difference it adds to the workstation's running totals.
#[test]
fn e5_views_beat_whole_image_transfer() {
    // (side, window bytes, window µs, whole-image bytes, whole-image µs):
    // exact, so any drift in the transfer or device model shows up here.
    let pinned =
        [(600u32, 3_810, 81_259, 45_063, 275_248), (1_200, 3_810, 81_291, 180_063, 923_248)];
    let mut ratios = Vec::new();
    for (i, (side, pin_wb, pin_wt, pin_fb, pin_ft)) in pinned.into_iter().enumerate() {
        let id = ObjectId::new(i as u64 + 1);
        let mut object = minos::object::MultimediaObject::new(
            id,
            "big-image",
            minos::object::DrivingMode::Visual,
        );
        object.images.push(minos::image::Image::Bitmap(minos::image::Bitmap::new(side, side)));
        object.archive().unwrap();
        let archived = archived_form(&object);
        let mut server = ObjectServer::new();
        server.publish(object, &archived).unwrap();
        let mut ws = Client::new(server, Link::ethernet());

        ws.fetch_view(id, 0, Rect::new(0, 0, 200, 150)).unwrap();
        let (window_bytes, window_time) = (ws.bytes_transferred(), ws.elapsed());
        ws.fetch_view(id, 0, Rect::new(0, 0, side, side)).unwrap();
        let full_bytes = ws.bytes_transferred() - window_bytes;
        let full_time = ws.elapsed() - window_time;
        assert_eq!(
            (window_bytes, window_time, full_bytes, full_time),
            (pin_wb, SimDuration::from_micros(pin_wt), pin_fb, SimDuration::from_micros(pin_ft)),
            "side {side}"
        );
        assert!(window_bytes * 5 < full_bytes, "side {side}: {window_bytes} vs {full_bytes}");
        ratios.push(full_bytes as f64 / window_bytes as f64);
    }
    assert!(ratios[1] > ratios[0] * 2.0, "advantage should grow with image size: {ratios:?}");
}

/// E6: the miniature-first interface delivers a first impression for far
/// fewer bytes than shipping whole objects. The full-object pass is
/// measured as the difference it adds to the running totals.
#[test]
fn e6_miniatures_beat_full_objects() {
    let mut server = ObjectServer::new();
    let mut bases = Vec::new();
    for i in 0..6u64 {
        let obj = corpus::medical_report(ObjectId::new(i + 1), i);
        let receipt = server.publish(obj.clone(), &archived_form(&obj)).unwrap();
        bases.push((obj.id, receipt.span.start));
    }
    let mut ws = Client::new(server, Link::ethernet());
    let ids: Vec<ObjectId> = bases.iter().map(|(id, _)| *id).collect();
    ws.miniature_stream(&ids).unwrap();
    let miniature_bytes = ws.bytes_transferred();
    let miniature_time = ws.elapsed();

    for (id, base) in &bases {
        ws.fetch_object(*id, *base).unwrap();
    }
    let full_bytes = ws.bytes_transferred() - miniature_bytes;
    let full_time = ws.elapsed() - miniature_time;
    assert_eq!(
        (miniature_bytes, miniature_time, full_bytes, full_time),
        (1_494, SimDuration::from_micros(340_638), 244_122, SimDuration::from_micros(1_524_954)),
        "exact transfer volumes and simulated times"
    );
    assert!(miniature_bytes * 10 < full_bytes, "miniatures {miniature_bytes} vs full {full_bytes}");
    // Seek latency dominates tiny reads on the optical device, so the
    // time gap is narrower than the byte gap; it must still be decisive.
    assert!(miniature_time * 2 < full_time, "{miniature_time} vs {full_time}");
}

/// E7: under a concurrent burst on the optical device, elevator scheduling
/// beats FCFS, and response time grows with load.
#[test]
fn e7_scheduling_and_load() {
    let make_disk = || {
        let mut d = OpticalDisk::with_capacity(64 << 20);
        d.append(&vec![0u8; 32 << 20]).unwrap();
        d
    };
    let burst = |n: u64| -> Vec<Request> {
        (0..n)
            .map(|i| Request {
                id: i,
                arrival: SimInstant::EPOCH,
                span: ByteSpan::at((i * 7919 * 4096) % (30 << 20), 64 << 10),
            })
            .collect()
    };
    // Load growth.
    let mut last = SimDuration::ZERO;
    for n in [4u64, 16, 64] {
        let mut d = make_disk();
        let done = simulate_schedule(&mut d, &burst(n), SchedPolicy::Fcfs).unwrap();
        let mean = mean_response(&done);
        assert!(mean > last, "response must grow with load");
        last = mean;
    }
    // Elevator wins on the scattered burst.
    let mut d1 = make_disk();
    let fcfs = mean_response(&simulate_schedule(&mut d1, &burst(48), SchedPolicy::Fcfs).unwrap());
    let mut d2 = make_disk();
    let elevator =
        mean_response(&simulate_schedule(&mut d2, &burst(48), SchedPolicy::Elevator).unwrap());
    assert!(elevator < fcfs, "elevator {elevator} vs fcfs {fcfs}");
}

/// E7 (cache half): a block cache over the optical store turns repeated
/// reads into near-free hits.
#[test]
fn e7_cache_flattens_repeated_access() {
    let mut disk = OpticalDisk::with_capacity(8 << 20);
    disk.append(&vec![7u8; 4 << 20]).unwrap();
    let mut cache = BlockCache::new(disk, 64 << 10, 32);
    let span = ByteSpan::at(1 << 20, 256 << 10);
    let (_, cold) = cache.read_at(span).unwrap();
    let (_, warm) = cache.read_at(span).unwrap();
    assert!(warm * 20 < cold, "warm {warm} vs cold {cold}");
    assert!(cache.hit_ratio() > 0.4);
}

/// E2: pause browsing is accurate on clear dictation and degrades (but
/// survives) on fast/noisy speakers.
#[test]
fn e2_pause_quality_orders_by_profile() {
    let text = speech::dictation(5, 6, 5);
    let mut recalls = Vec::new();
    let mut rewind_errors = Vec::new();
    for (_, profile) in SpeakerProfile::named() {
        let (audio, transcript) = synthesize(&text, &profile, 3);
        let pauses = PauseDetector::new().detect(&audio);
        let report = evaluate_pauses(&transcript, &pauses);
        recalls.push(report.recall);
        rewind_errors.push(mean_rewind_error(&transcript, &pauses, 2));
    }
    // clear ≥ fast and clear ≥ noisy in recall; clear rewind error small.
    assert!(recalls[0] >= recalls[1] - 0.05, "clear {} vs fast {}", recalls[0], recalls[1]);
    assert!(recalls[0] >= recalls[2] - 0.05, "clear {} vs noisy {}", recalls[0], recalls[2]);
    assert!(recalls[0] > 0.9);
    assert!(rewind_errors[0] < 2.0, "clear rewind error {}", rewind_errors[0]);
}

/// E4: voice pattern-browsing recall scales with the recognizer hit rate.
#[test]
fn e4_recall_tracks_recognizer_quality() {
    let text = speech::dictation(9, 4, 6);
    let (_, transcript) = synthesize(&text, &SpeakerProfile::CLEAR, 2);
    // Query: every distinct word; measure how many occurrences pattern
    // browsing can reach.
    let vocabulary: Vec<String> =
        transcript.words.iter().map(|w| w.text.trim_end_matches('.').to_string()).collect();
    let total = transcript.words.len();
    let mut last_recall = -1.0f64;
    for hit_rate in [0.25, 0.5, 0.9, 1.0] {
        let recognizer = Recognizer::new(
            vocabulary.iter(),
            RecognizerConfig { hit_rate, false_alarm_rate: 0.0, seed: 7 },
        );
        let index = UtteranceIndex::new(recognizer.recognize(&transcript));
        let reachable = index.utterances().len();
        let recall = reachable as f64 / total as f64;
        assert!(recall >= last_recall - 0.02, "recall not monotone: {recall} after {last_recall}");
        last_recall = recall;
        if (hit_rate - 1.0).abs() < f64::EPSILON {
            assert!((recall - 1.0).abs() < 1e-9, "perfect recognizer must reach every word");
        }
    }
}

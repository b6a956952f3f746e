//! Experiment E3 — audio pages.
//!
//! "Audio pages … are of approximately constant time length. The user can
//! advance several voice pages at a time." (§2) The series verifies the
//! constant-length property on real dictation and shows page jumps cost
//! the same regardless of distance (they are coordinate arithmetic, not
//! playback). The timings drive an audio-mode engine through the page
//! arithmetic browsing shares with text.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minos_bench::{fast_criterion, row};
use minos_corpus::speech::dictation;
use minos_object::{DrivingMode, MultimediaObject, VoiceSegment};
use minos_presentation::command::Browse;
use minos_presentation::AudioEngine;
use minos_types::{ObjectId, PageNumber, SimDuration};
use minos_voice::synth::SpeakerProfile;
use minos_voice::{AudioPages, PlaybackState};

const PAGE_LEN: SimDuration = SimDuration::from_secs(20);

fn dictation_object() -> MultimediaObject {
    let mut object = MultimediaObject::new(ObjectId::new(1), "dictation", DrivingMode::Audio);
    object.voice_segments.push(VoiceSegment::dictate(
        &dictation(8, 10, 5),
        &SpeakerProfile::CLEAR,
        2,
    ));
    object
}

fn engine() -> AudioEngine {
    let mut engine = AudioEngine::new(&dictation_object(), 0, PAGE_LEN).expect("segment 0");
    engine.open();
    engine
}

fn print_series() {
    let pages = AudioPages::new(dictation_object().voice_segments[0].duration(), PAGE_LEN);
    row("E3", "dictation paged at 20s; page spans:");
    let mut all_but_last_constant = true;
    for i in 0..pages.page_count() {
        let span = pages.span_of(i).unwrap();
        if i + 1 < pages.page_count() && span.duration() != PAGE_LEN {
            all_but_last_constant = false;
        }
        row(
            "E3",
            &format!("page {:>2}: {} .. {} ({})", i + 1, span.start, span.end, span.duration()),
        );
    }
    row("E3", &format!("constant_length_except_last = {all_but_last_constant}"));
    row(
        "E3",
        &format!(
            "jump cost is O(1): goto page 2 and goto page {} are the same arithmetic",
            pages.page_count()
        ),
    );
}

fn bench(c: &mut Criterion) {
    print_series();
    let mut group = c.benchmark_group("e3_audio_paging");
    for delta in [1i64, 4, 16] {
        group.bench_with_input(BenchmarkId::new("advance_pages", delta), &delta, |b, &d| {
            let mut e = engine();
            b.iter(|| {
                e.advance_pages(d);
                e.advance_pages(-d)
            })
        });
    }
    group.bench_function("tick_one_second", |b| {
        let mut e = engine();
        b.iter(|| {
            let events = e.tick(SimDuration::from_secs(1));
            if e.state() == PlaybackState::Finished {
                e.goto_page(PageNumber::FIRST);
            }
            events
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = fast_criterion();
    targets = bench
}
criterion_main!(benches);

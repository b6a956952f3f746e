//! Ablation studies for the reproduction's own design choices.
//!
//! * **A1 — adaptive vs fixed pause classification.** The paper insists the
//!   short/long boundary "is decided from the current context by sampling";
//!   this ablation replaces the context clustering with a fixed 250 ms rule
//!   and measures what that costs across speaker profiles.
//! * **A2 — miniature downsampling factor.** The representation image must
//!   be "much smaller … and thus easily transferable" while staying
//!   legible; the sweep shows bytes vs stroke retention per factor.
//! * **A3 — composition-file deduplication.** Storing repeated data tags
//!   once is what makes Figures 3–4's shared x-ray cheap; the ablation
//!   stores every reference.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minos_bench::{fast_criterion, row};
use minos_corpus::images::xray_bitmap;
use minos_corpus::speech::dictation;
use minos_image::Miniature;
use minos_object::CompositionFile;
use minos_types::SimDuration;
use minos_voice::eval::evaluate_pauses;
use minos_voice::pause::{DetectedPause, PauseDetector, PauseKind};
use minos_voice::synth::{synthesize, SpeakerProfile};

/// Reclassifies detected pauses with a fixed duration boundary.
fn fixed_threshold(pauses: &[DetectedPause], boundary: SimDuration) -> Vec<DetectedPause> {
    pauses
        .iter()
        .map(|p| DetectedPause {
            span: p.span,
            kind: if p.span.duration() >= boundary { PauseKind::Long } else { PauseKind::Short },
        })
        .collect()
}

fn a1_pause_classification() {
    let text = dictation(7, 8, 5);
    row("A1", "long-pause classification: adaptive context clustering vs fixed 250ms");
    row("A1", "profile  adaptive_prec  adaptive_recall  fixed_prec  fixed_recall");
    for (name, profile) in SpeakerProfile::named() {
        let (audio, transcript) = synthesize(&text, &profile, 17);
        let adaptive = PauseDetector::new().detect(&audio);
        let fixed = fixed_threshold(&adaptive, SimDuration::from_millis(250));
        let a = evaluate_pauses(&transcript, &adaptive);
        let f = evaluate_pauses(&transcript, &fixed);
        row(
            "A1",
            &format!(
                "{name:<7}  {:>13.3}  {:>15.3}  {:>10.3}  {:>12.3}",
                a.long_precision, a.long_recall, f.long_precision, f.long_recall
            ),
        );
    }
    row("A1", "note: the fixed rule mislabels sentence gaps (~400ms) as long on careful speakers;");
    row(
        "A1",
        "      the adaptive boundary follows each speaker's own gap distribution, as §2 requires",
    );
}

fn a2_miniature_factor() {
    let (xray, _) = xray_bitmap(5, 800, 600);
    let full_ink = xray.count_ink() as f64;
    row("A2", "miniature factor sweep over an 800x600 x-ray");
    row("A2", "factor  bytes  byte_shrink  coverage_gain");
    for factor in [2u32, 4, 8, 16, 32] {
        let mini = Miniature::build(&xray, factor);
        // Coverage gain: ink density relative to the full image after
        // area normalization — OR-downsampling keeps thin strokes visible,
        // so the value grows with the factor (>1 means strokes thickened
        // rather than lost).
        let retention =
            mini.raster().count_ink() as f64 * (factor as f64 * factor as f64) / full_ink;
        row(
            "A2",
            &format!(
                "{factor:>6}  {:>5}  {:>10.1}x  {:>12.2}",
                mini.byte_size(),
                xray.byte_size() as f64 / mini.byte_size() as f64,
                retention
            ),
        );
    }
}

fn a3_composition_dedup() {
    let payload = vec![0xCDu8; 32 * 1024];
    row("A3", "composition file: 6 references to one 32KB x-ray");
    let mut dedup = CompositionFile::new();
    for _ in 0..6 {
        dedup.append("xray", &payload);
    }
    let mut naive = CompositionFile::new();
    for _ in 0..6 {
        naive.append_anonymous(&payload);
    }
    row(
        "A3",
        &format!(
            "deduplicated {} bytes vs naive {} bytes ({}x saved)",
            dedup.len(),
            naive.len(),
            naive.len() / dedup.len()
        ),
    );
}

fn bench(c: &mut Criterion) {
    a1_pause_classification();
    a2_miniature_factor();
    a3_composition_dedup();

    let (xray, _) = xray_bitmap(5, 800, 600);
    let mut group = c.benchmark_group("ablation_miniature_build");
    for factor in [4u32, 8, 16] {
        group.bench_with_input(BenchmarkId::new("build", factor), &factor, |b, &f| {
            b.iter(|| Miniature::build(&xray, f))
        });
    }
    group.finish();

    let text = dictation(7, 8, 5);
    let (audio, _) = synthesize(&text, &SpeakerProfile::CLEAR, 17);
    let pauses = PauseDetector::new().detect(&audio);
    let mut group = c.benchmark_group("ablation_pause_classify");
    group.bench_function("fixed_threshold_reclassify", |b| {
        b.iter(|| fixed_threshold(&pauses, SimDuration::from_millis(250)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = fast_criterion();
    targets = bench
}
criterion_main!(benches);

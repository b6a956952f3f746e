//! Property test: arbitrary command sequences never break a session.
//!
//! Whatever the user mashes on the menu — in either driving mode, across
//! relevant-object boundaries — the session must never panic, must keep its
//! stack depth ≥ 1, and must keep every reported position inside the
//! browsed medium. And running several such sessions concurrently through
//! the [`SessionScheduler`] must be invisible: each session's event
//! streams match what the same script produces standalone.

use minos::corpus;
use minos::corpus::objects::archived_form;
use minos::net::{Link, LinkStats};
use minos::object::{Anchor, DrivingMode, MultimediaObject, RelevantLink};
use minos::presentation::{
    BrowseCommand, BrowseEvent, BrowsingSession, ObjectStore, SessionScheduler,
};
use minos::server::ObjectServer;
use minos::text::{LogicalLevel, PaginateConfig};
use minos::types::{ObjectId, PageNumber, SimDuration, SimInstant, TimeSpan};
use minos::voice::{PauseKind, PlaybackState};
use proptest::prelude::*;
use std::collections::HashMap;

type Store = HashMap<ObjectId, MultimediaObject>;

/// The fuzz corpus published to an object server, for scheduler-backed
/// sessions over the same objects as [`store`].
fn corpus_server() -> ObjectServer {
    server_of(store())
}

/// `store`'s objects published to an object server.
fn server_of(store: Store) -> ObjectServer {
    let mut server = ObjectServer::new();
    // Publish in id order: the map iterates in hash order, which varies
    // per run, and publication order shapes the archive layout (and so
    // device timings). The golden streams compare two separately built
    // servers, so the layout must be deterministic.
    let mut objects: Vec<_> = store.into_values().collect();
    objects.sort_by_key(|o| o.id);
    for obj in objects {
        let archived = archived_form(&obj);
        server.publish(obj, &archived).unwrap();
    }
    server
}

fn store() -> Store {
    let mut map = Store::new();
    let report = corpus::medical_report(ObjectId::new(1), 42);
    map.insert(report.id, report);
    let dictation = corpus::audio_xray_report(ObjectId::new(2), 7);
    map.insert(dictation.id, dictation);
    let (parent, overlays) =
        corpus::subway_map_object(ObjectId::new(3), ObjectId::new(4), ObjectId::new(5), 11);
    map.insert(parent.id, parent);
    for o in overlays {
        map.insert(o.id, o);
    }
    map
}

/// [`store`] plus a second dictation (id 6) that carries two relevant
/// objects, so relevant navigation starts from an audio parent: the plain
/// dictation over the whole voice part, and the report from 10 s on only,
/// so whether that indicator is visible depends on the playback position.
fn voice_store() -> Store {
    let mut map = store();
    let source = corpus::audio_xray_report(ObjectId::new(6), 9);
    let mut linked = MultimediaObject::new(source.id, source.name.clone(), DrivingMode::Audio);
    linked.voice_segments = source.voice_segments.clone();
    linked.images = source.images.clone();
    linked.messages = source.messages.clone();
    let end = SimInstant::EPOCH + linked.voice_segments[0].duration();
    let later = SimInstant::EPOCH + SimDuration::from_secs(10);
    for (label, target, from) in [("dictation", 2, SimInstant::EPOCH), ("report", 1, later)] {
        linked.relevant.push(RelevantLink {
            label: label.into(),
            target: ObjectId::new(target),
            anchor: Anchor::VoiceSegment { segment: 0, span: TimeSpan::new(from, end) },
            relevances: Vec::new(),
        });
    }
    linked.archive().unwrap();
    map.insert(linked.id, linked);
    map
}

/// Mostly the voice commands, on whatever state the playback is in, plus
/// relevant navigation; one choice in ten is any command at all.
fn voice_command(choice: u8, n: u8) -> BrowseCommand {
    match choice % 10 {
        0 => BrowseCommand::Interrupt,
        1 => BrowseCommand::Resume,
        2 => BrowseCommand::ResumePageStart,
        3 => BrowseCommand::RewindPauses(
            if n.is_multiple_of(2) { PauseKind::Short } else { PauseKind::Long },
            (n % 4) as usize,
        ),
        4 => BrowseCommand::GotoPage(PageNumber::new(n as u32 % 9 + 1).unwrap()),
        5 => BrowseCommand::AdvancePages(n as i64 % 5 - 2),
        6 => BrowseCommand::SelectRelevant((n % 2) as usize),
        7 => BrowseCommand::ReturnFromRelevant,
        8 => BrowseCommand::NextPage,
        _ => command(n, choice),
    }
}

/// A tick length: none at all, under a millisecond, one 50 ms browsing
/// tick, a fraction of a 5 s audio page, or one to three whole pages.
fn tick_len(choice: u8) -> SimDuration {
    match choice % 5 {
        0 => SimDuration::ZERO,
        1 => SimDuration::from_micros(1 + u64::from(choice) * 7 % 999),
        2 => SimDuration::from_millis(50),
        3 => SimDuration::from_millis(700 + u64::from(choice) * 37 % 3_000),
        _ => SimDuration::from_secs(5 * (1 + u64::from(choice % 3))),
    }
}

/// Where a session's voice part stands, if it drives by voice.
fn playhead<S: ObjectStore>(session: &BrowsingSession<S>) -> Option<(SimInstant, PlaybackState)> {
    session.audio().map(|audio| (audio.position(), audio.state()))
}

/// One of every command, parameterized by small fuzzed values.
fn command(choice: u8, n: u8) -> BrowseCommand {
    match choice % 12 {
        0 => BrowseCommand::NextPage,
        1 => BrowseCommand::PreviousPage,
        2 => BrowseCommand::AdvancePages(n as i64 - 8),
        3 => BrowseCommand::GotoPage(PageNumber::new(n as u32 + 1).unwrap()),
        4 => BrowseCommand::NextUnit(LogicalLevel::ALL[n as usize % 5]),
        5 => BrowseCommand::PreviousUnit(LogicalLevel::ALL[n as usize % 5]),
        6 => BrowseCommand::FindPattern(["shadow", "the", "zzz", ""][n as usize % 4].into()),
        7 => BrowseCommand::Interrupt,
        8 => BrowseCommand::Resume,
        9 => BrowseCommand::RewindPauses(
            if n.is_multiple_of(2) { PauseKind::Short } else { PauseKind::Long },
            (n % 5) as usize,
        ),
        10 => BrowseCommand::SelectRelevant((n % 3) as usize),
        _ => BrowseCommand::ReturnFromRelevant,
    }
}

/// Deterministic LCG driving the golden-stream scripts. Not proptest:
/// the seeds are pinned, so every run replays the exact same script and
/// its event streams can be compared byte for byte with the fixture.
fn lcg_next(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// Replays `seed`'s script against a scheduler and returns everything
/// observable: every apply result, every drained tick event stream, the
/// shared-link accounting, and the elapsed sim time.
fn golden_stream(
    seed: u64,
    sessions: usize,
) -> (Vec<Option<Vec<BrowseEvent>>>, LinkStats, SimDuration) {
    let config = PaginateConfig::default();
    let page = SimDuration::from_secs(5);
    let mut sched = SessionScheduler::new(corpus_server(), Link::ethernet());
    let mut stream = Vec::new();
    let mut keys = Vec::new();
    for i in 0..sessions {
        let (key, open) = sched.open(ObjectId::new(i as u64 % 3 + 1), config, page).unwrap();
        stream.push(Some(open));
        keys.push(key);
    }
    let mut state = seed;
    for _ in 0..24 {
        let choice = lcg_next(&mut state) as u8;
        let n = lcg_next(&mut state) as u8;
        let ms = lcg_next(&mut state) % 5_000;
        let target = lcg_next(&mut state) as usize % keys.len();
        stream.push(sched.apply(keys[target], command(choice, n)).ok());
        sched.tick(SimDuration::from_millis(ms));
    }
    for &key in &keys {
        stream.push(Some(sched.drain_events(key).unwrap()));
    }
    (stream, sched.link_stats(), sched.elapsed())
}

/// `seed`'s golden stream as fixture text: a header line, one line per
/// stream entry (its `Debug` text), the shared-link accounting and the
/// elapsed sim time in microseconds.
fn golden_record(seed: u64, sessions: usize) -> String {
    let (stream, link, elapsed) = golden_stream(seed, sessions);
    let mut record = format!("seed {seed} sessions {sessions}\n");
    for entry in &stream {
        record.push_str(&format!("{entry:?}\n"));
    }
    record.push_str(&format!("link {link:?}\nelapsed_us {}\n", elapsed.as_micros()));
    record
}

/// The golden seeds, each with its session count (2..=16).
const GOLDEN_SEEDS: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89];

#[test]
fn kernel_scheduler_matches_legacy_rotation_golden_streams() {
    // The equivalence pin for the scheduler: across ten pinned seeds and
    // up to 16 sessions, the event streams, shared-link accounting and
    // simulated time must match, byte for byte, the fixture recorded from
    // the full-rotation scan the event-driven tick replaced, and
    // re-recorded with only the repeated `PlaybackFinished` events removed
    // when the end of a voice part came to be reported once.
    let fixture = include_str!("fixtures/sched_golden_streams.txt");
    let expected: Vec<String> = fixture
        .split("\n\n")
        .filter(|record| !record.is_empty())
        .map(|record| format!("{}\n", record.trim_end_matches('\n')))
        .collect();
    assert_eq!(expected.len(), GOLDEN_SEEDS.len(), "one fixture record per seed");
    for (seed, want) in GOLDEN_SEEDS.into_iter().zip(&expected) {
        let sessions = 2 + (seed as usize % 15);
        assert_eq!(&golden_record(seed, sessions), want, "seed {seed} with {sessions} sessions");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_scripts_never_corrupt_a_session(
        start in 1u64..=3,
        script in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..40),
        ticks in proptest::collection::vec(0u64..10_000, 0..10),
    ) {
        let (mut session, _) = BrowsingSession::open(
            store(),
            ObjectId::new(start),
            PaginateConfig::default(),
            SimDuration::from_secs(5),
        )
        .unwrap();
        let mut tick_iter = ticks.into_iter();
        for (choice, n) in script {
            // Commands may fail (unavailable operation, no indicator) but
            // must never panic or corrupt state.
            let _ = session.apply(command(choice, n));
            if let Some(ms) = tick_iter.next() {
                // The end of a voice part is reported once, by the tick
                // that reaches it: a finished part's tick reports nothing.
                let finished = playhead(&session).map(|(_, state)| state);
                let events = session.tick(SimDuration::from_millis(ms));
                prop_assert!(
                    finished != Some(PlaybackState::Finished) || events.is_empty(),
                    "a finished part reported {events:?}"
                );
            }
            prop_assert!(session.depth() >= 1);
            let object = session.object();
            if let Some(pos) = session.visual_position() {
                let len = object.text_segments.first().map(|d| d.len()).unwrap_or(0);
                prop_assert!(pos <= len, "text position {pos} beyond {len}");
            }
            if let Some(audio) = session.audio() {
                let total = object.voice_segments[0].duration();
                prop_assert!(
                    audio.position() <= SimInstant::EPOCH + total,
                    "voice position beyond the part"
                );
            }
            // The menu is always derivable.
            prop_assert!(!session.menu().is_empty());
        }
    }

    #[test]
    fn concurrent_sessions_match_their_standalone_baselines(
        starts in proptest::collection::vec(1u64..=3, 2..5),
        script in proptest::collection::vec((any::<u8>(), any::<u8>(), 0u64..5_000), 0..24),
    ) {
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);

        // One standalone baseline per session, each with a private store.
        let mut baselines = Vec::new();
        let mut sched = SessionScheduler::new(corpus_server(), Link::ethernet());
        let mut keys = Vec::new();
        for &start in &starts {
            let (session, base_open) =
                BrowsingSession::open(store(), ObjectId::new(start), config, page).unwrap();
            let (key, open) = sched.open(ObjectId::new(start), config, page).unwrap();
            prop_assert_eq!(&open, &base_open, "open events diverge for object {}", start);
            baselines.push(session);
            keys.push(key);
        }

        // Each fuzzed command is applied to every session in turn — the
        // scheduler interleaves their transfers on the shared link — then
        // both sides dwell for the same fuzzed tick.
        for (choice, n, ms) in script {
            let cmd = command(choice, n);
            for (i, &key) in keys.iter().enumerate() {
                let expect = baselines[i].apply(cmd.clone()).ok();
                let got = sched.apply(key, cmd.clone()).ok();
                prop_assert_eq!(got, expect, "session {i}: {cmd:?} diverged");
            }
            let dt = SimDuration::from_millis(ms);
            let expected_ticks: Vec<Vec<BrowseEvent>> =
                baselines.iter_mut().map(|s| s.tick(dt)).collect();
            sched.tick(dt);
            for (i, &key) in keys.iter().enumerate() {
                let got = sched.drain_events(key).unwrap();
                prop_assert_eq!(&got, &expected_ticks[i], "session {i}: tick events diverged");
            }
        }
    }

    #[test]
    fn voice_sessions_match_their_per_tick_baselines(
        starts in proptest::collection::vec(proptest::sample::select(vec![2u64, 6, 6, 2, 1, 3]), 2..7),
        script in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), proptest::collection::vec(any::<u8>(), 1..5)),
            0..32,
        ),
    ) {
        // The scheduler plays voice sessions in event time; standalone
        // sessions stepped tick by tick are the reference. Commands land
        // on playing, interrupted and finished sessions and on relevant
        // objects entered from a voice parent; ticks range from nothing to
        // several audio pages. Reading a session catches it up, so the
        // even sessions are read after every tick and the odd ones only
        // at the end: between commands, their wakes alone decide at which
        // tick end each change is sampled.
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);
        let mut baselines = Vec::new();
        let mut sched = SessionScheduler::new(server_of(voice_store()), Link::ethernet());
        let mut keys = Vec::new();
        for &start in &starts {
            let (session, base_open) =
                BrowsingSession::open(voice_store(), ObjectId::new(start), config, page).unwrap();
            let (key, open) = sched.open(ObjectId::new(start), config, page).unwrap();
            prop_assert_eq!(&open, &base_open, "open events diverge for object {}", start);
            baselines.push(session);
            keys.push(key);
        }
        let mut owed: Vec<Vec<BrowseEvent>> = vec![Vec::new(); keys.len()];
        for (choice, n, target, ticks) in script {
            let i = target as usize % keys.len();
            let cmd = voice_command(choice, n);
            let expect = baselines[i].apply(cmd.clone()).ok();
            let got = sched.apply(keys[i], cmd.clone()).ok();
            prop_assert_eq!(got, expect, "session {i}: {cmd:?} diverged");
            for tick in ticks {
                let dt = tick_len(tick);
                sched.tick(dt);
                for (j, &key) in keys.iter().enumerate() {
                    owed[j].extend(baselines[j].tick(dt));
                    if j % 2 == 1 {
                        continue;
                    }
                    let got = sched.drain_events(key).unwrap();
                    prop_assert_eq!(got, std::mem::take(&mut owed[j]), "session {j}");
                    let got = playhead(sched.session(key).unwrap());
                    prop_assert_eq!(got, playhead(&baselines[j]), "session {j} after {dt:?}");
                }
            }
        }
        for (j, &key) in keys.iter().enumerate() {
            prop_assert_eq!(sched.drain_events(key).unwrap(), std::mem::take(&mut owed[j]));
            prop_assert_eq!(playhead(sched.session(key).unwrap()), playhead(&baselines[j]));
        }
    }
}

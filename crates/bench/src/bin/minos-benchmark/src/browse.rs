//! The `browse` workload: the paper's presentation manager itself.
//!
//! Browsing sessions over a mixed corpus share one object server through a
//! [`SessionScheduler`]. Each op applies one scripted command to one
//! session and then advances every session by one [`TICK`]; users act in
//! visits of up to [`VISIT`] consecutive commands. The script is drawn from
//! the seed but always valid for the session's current mode, so no command
//! is refused.
//!
//! Every result is checked against a reference: the same script applied to
//! standalone [`BrowsingSession`]s over an in-memory store, with no server
//! and no link. The scheduler must produce exactly the events the reference
//! does, command by command and tick by tick, and must hand each session
//! the same object.

use crate::layers::Counters;
use crate::meter::{percentile, Call, Meter, Slicer};
use crate::{Rng, Round, Sim};
use minos_corpus::objects::archived_form;
use minos_corpus::{audio_xray_report, medical_report, office_document, subway_map_object};
use minos_net::Link;
use minos_object::{ArchivedObject, MultimediaObject};
use minos_presentation::{
    BrowseCommand, BrowseEvent, BrowsingSession, ObjectStore, SessionKey, SessionScheduler,
};
use minos_server::ObjectServer;
use minos_text::{LogicalLevel, PaginateConfig};
use minos_types::{MinosError, ObjectId, PageNumber, SimDuration};
use minos_voice::PauseKind;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Simulated time every session advances after each command.
const TICK: SimDuration = SimDuration::from_millis(50);
/// Length of one audio page of a voice-driven session.
const AUDIO_PAGE: SimDuration = SimDuration::from_secs(5);
/// Ops between comparisons of the events the ticks produced.
const DRAIN_EVERY: u64 = 32;
/// Users act in visits: up to this many consecutive commands on one
/// session before another user acts. Quick successions are what leave a
/// user waiting for a transfer the prefetcher has not finished.
const VISIT: u64 = 16;
/// Words the scripted pattern finds look for: frequent and rare ones, and
/// the recognizer's vocabulary for voice sessions.
const WORDS: [&str; 6] = ["shadow", "the", "film", "lung", "normal", "patient"];

/// Sizes of one round. Sessions come in groups of four, one per kind of
/// object: report, voice dictation, subway map, office document.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub groups: usize,
    pub slice: u64,
    pub slices: usize,
}

impl Shape {
    pub fn full() -> Self {
        Shape { groups: 8, slice: 6_144, slices: 10 }
    }

    pub fn tiny() -> Self {
        Shape { groups: 1, slice: 32, slices: 10 }
    }
}

/// The generated corpus and the object each session opens.
#[derive(Clone)]
pub struct Inputs {
    pub shape: Shape,
    pub seed: u64,
    objects: Vec<MultimediaObject>,
    archived: Vec<ArchivedObject>,
    opens: Vec<ObjectId>,
}

impl Inputs {
    pub fn generate(shape: Shape, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut objects = Vec::new();
        let mut opens = Vec::new();
        let mut next_id = 1u64;
        let mut id = || {
            next_id += 1;
            ObjectId::new(next_id - 1)
        };
        for _ in 0..shape.groups {
            let report = medical_report(id(), rng.below(1 << 20));
            let dictation = audio_xray_report(id(), rng.below(1 << 20));
            let (map, overlays) = subway_map_object(id(), id(), id(), rng.below(1 << 20));
            let office = office_document(id(), rng.below(1 << 20), 3);
            opens.extend([report.id, dictation.id, map.id, office.id]);
            objects.extend([report, dictation, map, office]);
            objects.extend(overlays);
        }
        let archived = objects.iter().map(archived_form).collect();
        Inputs { shape, seed, objects, archived, opens }
    }

    #[cfg(test)]
    /// Flips one byte of an attribute of the first object in the expected
    /// corpus: the session that opens it must see a different object.
    pub fn tamper(&mut self) {
        let value = &mut self.objects[0].attributes[0].value;
        let mut bytes = std::mem::take(value).into_bytes();
        bytes[0] ^= 0x20;
        *value = String::from_utf8(bytes).expect("an ASCII letter with its case flipped");
    }
}

/// The reference store: objects straight from the inputs.
struct RefStore(Rc<HashMap<ObjectId, MultimediaObject>>);

impl ObjectStore for RefStore {
    fn fetch(&mut self, id: ObjectId) -> minos_types::Result<MultimediaObject> {
        self.0.get(&id).cloned().ok_or_else(|| MinosError::UnknownObject(id.to_string()))
    }
}

/// Whether two objects are the same as far as a user can tell at a glance:
/// identity, name, attributes and driving mode.
fn same_object(a: &MultimediaObject, b: &MultimediaObject) -> bool {
    a.id == b.id
        && a.name == b.name
        && a.attributes == b.attributes
        && a.driving_mode == b.driving_mode
}

/// Records a failed check, keeping the first few.
fn note(problems: &mut Vec<String>, what: String) {
    if problems.len() < 8 {
        problems.push(what);
    }
}

fn pages_shown(events: &[BrowseEvent]) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e, BrowseEvent::PageShown(_) | BrowseEvent::CrossedIntoPage(_)))
        .count() as u64
}

/// The next scripted command for a session in the reference's state: page
/// turns, unit jumps and pattern finds in either mode; interrupt, resume
/// and pause rewinds in voice mode; entering a visible relevant object and
/// returning from one in visual mode.
fn command(rng: &mut Rng, session: &BrowsingSession<RefStore>) -> BrowseCommand {
    let voice = session.audio().is_some();
    let relevant = session.visible_relevant().len() as u64;
    let level = LogicalLevel::ALL[rng.below(LogicalLevel::ALL.len() as u64) as usize];
    match rng.below(100) {
        0..=29 => BrowseCommand::NextPage,
        30..=37 => BrowseCommand::PreviousPage,
        38..=41 => BrowseCommand::AdvancePages(rng.below(5) as i64 - 2),
        42..=45 => BrowseCommand::GotoPage(
            PageNumber::new(rng.below(6) as u32 + 1).expect("page numbers start at one"),
        ),
        46..=57 => BrowseCommand::NextUnit(level),
        58..=62 => BrowseCommand::PreviousUnit(level),
        63..=70 => BrowseCommand::FindPattern(WORDS[rng.below(WORDS.len() as u64) as usize].into()),
        71..=85 if voice => match rng.below(4) {
            0 => BrowseCommand::Interrupt,
            1 => BrowseCommand::Resume,
            2 => BrowseCommand::ResumePageStart,
            _ => BrowseCommand::RewindPauses(
                if rng.below(2) == 0 { PauseKind::Short } else { PauseKind::Long },
                rng.below(3) as usize + 1,
            ),
        },
        71..=85 if relevant > 0 => BrowseCommand::SelectRelevant(rng.below(relevant) as usize),
        86..=99 if session.depth() > 1 => BrowseCommand::ReturnFromRelevant,
        _ => BrowseCommand::NextPage,
    }
}

/// Runs one round: set-up, then the scripted sessions, publishing from
/// `inputs` and checking every result against references over `expect`.
pub fn round(inputs: &Inputs, expect: &Inputs, meter: &mut Meter) -> Result<Round, String> {
    let config = PaginateConfig::default();
    let copies: Vec<MultimediaObject> = inputs.objects.clone();
    meter.take();
    let mut server = meter.call(Call::ServerNew, 0, ObjectServer::new);
    for (object, archived) in copies.into_iter().zip(&inputs.archived) {
        let id = object.id;
        meter
            .call(Call::Publish, 0, || server.publish(object, archived))
            .map_err(|e| format!("publish {id}: {e}"))?;
    }
    let mut sched =
        meter.call(Call::SchedulerNew, 0, || SessionScheduler::new(server, Link::ethernet()));
    let mut keys: Vec<SessionKey> = Vec::with_capacity(inputs.opens.len());
    let mut opened = Vec::with_capacity(inputs.opens.len());
    // Latency samples are the calls that waited on a simulated transfer:
    // every open, and each command whose object was not already local.
    let mut latencies = Vec::new();
    for &id in &inputs.opens {
        let before = sched.elapsed();
        let (key, events) = meter
            .call(Call::Open, 0, || sched.open(id, config, AUDIO_PAGE))
            .map_err(|e| format!("open {id}: {e}"))?;
        latencies.push((sched.elapsed() - before).as_micros());
        keys.push(key);
        opened.push(events);
    }
    let setup = meter.end_setup();

    let mut problems = Vec::new();
    let store =
        Rc::new(expect.objects.iter().map(|o| (o.id, o.clone())).collect::<HashMap<_, _>>());
    let mut refs = Vec::with_capacity(keys.len());
    for (i, &id) in inputs.opens.iter().enumerate() {
        let (session, events) =
            BrowsingSession::open(RefStore(Rc::clone(&store)), id, config, AUDIO_PAGE)
                .map_err(|e| format!("reference open {id}: {e}"))?;
        let got = sched.session(keys[i]).map_err(|e| e.to_string())?;
        if events != opened[i] || !same_object(got.object(), session.object()) {
            note(&mut problems, format!("session {i} opened {id} differently from the reference"));
        }
        refs.push(session);
    }
    let voice_sessions = refs.iter().filter(|s| s.audio().is_some()).count();

    let mut slicer = Slicer::new(inputs.shape.slice, inputs.shape.slice, inputs.shape.slices);
    let total = slicer.total();
    let mut rng = Rng::new(inputs.seed ^ 0x00b2_005e);
    let mut tick_events: Vec<Vec<BrowseEvent>> = vec![Vec::new(); refs.len()];
    let (mut verified, mut failed, mut pages, mut entered) = (0u64, 0u64, 0u64, 0u64);
    let mut verify = Duration::ZERO;
    let (mut i, mut visit_left) = (0usize, 0u64);
    for op in 0..total {
        if visit_left == 0 {
            i = rng.below(refs.len() as u64) as usize;
            visit_left = 1 + rng.below(VISIT);
        }
        visit_left -= 1;
        let cmd = command(&mut rng, &refs[i]);
        let before = sched.elapsed();
        let got = meter.call(Call::Apply, op, || sched.apply(keys[i], cmd.clone()));
        let waited = (sched.elapsed() - before).as_micros();
        if waited > 0 {
            latencies.push(waited);
        }
        meter.call(Call::Tick, op, || sched.tick(TICK));

        let started = Instant::now();
        let want = refs[i].apply(cmd.clone());
        for (events, session) in tick_events.iter_mut().zip(refs.iter_mut()) {
            events.extend(session.tick(TICK));
        }
        match (got, want) {
            (Ok(got), Ok(want)) if got == want => {
                verified += 1;
                pages += pages_shown(&got);
                let entry = got.iter().any(|e| matches!(e, BrowseEvent::EnteredRelevant(_)));
                if entry || got.iter().any(|e| matches!(e, BrowseEvent::ReturnedToParent(_))) {
                    entered += u64::from(entry);
                    let session = sched.session(keys[i]).map_err(|e| e.to_string())?;
                    if !same_object(session.object(), refs[i].object()) {
                        note(&mut problems, format!("op {op}: session {i} shows the wrong object"));
                    }
                }
            }
            (Err(_), Err(_)) => failed += 1,
            (got, want) => note(
                &mut problems,
                format!("op {op}: session {i} {cmd:?} gave {got:?}, reference {want:?}"),
            ),
        }
        verify += started.elapsed();

        if (op + 1).is_multiple_of(DRAIN_EVERY) || op + 1 == total {
            for (j, &key) in keys.iter().enumerate() {
                let got = meter
                    .call(Call::DrainEvents, op, || sched.drain_events(key))
                    .map_err(|e| e.to_string())?;
                let started = Instant::now();
                if got == tick_events[j] {
                    pages += pages_shown(&got);
                } else {
                    note(&mut problems, format!("op {op}: session {j} ticked differently"));
                }
                tick_events[j].clear();
                verify += started.elapsed();
            }
        }
        slicer.op_done(meter);
    }
    meter.take();

    let counters = Counters {
        members: 1,
        link: sched.link_stats(),
        service: sched.service_stats(),
        kernel: sched.kernel_stats(),
        ..Counters::default()
    };
    if verified + failed != total {
        note(&mut problems, format!("{verified} verified + {failed} failed != {total} commands"));
    }
    let fetches = keys.len() as u64 + entered;
    if counters.service.served < fetches {
        note(
            &mut problems,
            format!("service served {} < {fetches} fetches", counters.service.served),
        );
    }
    if voice_sessions == 0 {
        note(&mut problems, "premise not met: no voice-driven session".into());
    }
    if counters.kernel.events_fired == 0 {
        note(&mut problems, "premise not met: the kernel fired no event".into());
    }
    latencies.sort_unstable();
    let sim = Sim {
        verified,
        pages,
        elapsed_us: sched.elapsed().as_micros(),
        p50_us: percentile(&latencies, 50.0),
        p99_us: percentile(&latencies, 99.0),
        samples: latencies.len() as u64,
    };
    Ok(Round {
        setup,
        rates: slicer.into_rates(),
        sim,
        attempted: total,
        failed,
        verify,
        counters,
        problems,
    })
}

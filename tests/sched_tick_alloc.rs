//! Allocation regression test for the scheduler's idle tick.
//!
//! A tick with no landing response and no audio change falling due must
//! cost no heap allocation, however many sessions are open and whatever
//! state their playback is in: a settled text reader is never visited, an
//! interrupted or finished voice session owes nothing, and a playing one
//! waits on its armed wake. Lives in the facade tests because the library
//! crates forbid the `unsafe` a `#[global_allocator]` needs.

use minos::corpus;
use minos::corpus::objects::archived_form;
use minos::net::Link;
use minos::presentation::{BrowseCommand, BrowseEvent, SessionScheduler};
use minos::server::ObjectServer;
use minos::text::PaginateConfig;
use minos::types::{ObjectId, PageNumber, SimDuration};
use minos::voice::PlaybackState;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's heap allocations, so the assertion is immune to
/// other tests running on parallel threads.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The idle ticks counted, each as long as a browsing tick.
const TICKS: u64 = 32;
const TICK: SimDuration = SimDuration::from_millis(50);

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn corpus_server() -> ObjectServer {
    let mut server = ObjectServer::new();
    let report = corpus::medical_report(ObjectId::new(1), 42);
    let dictation = corpus::audio_xray_report(ObjectId::new(2), 7);
    let (map, overlays) =
        corpus::subway_map_object(ObjectId::new(3), ObjectId::new(4), ObjectId::new(5), 11);
    for object in [report, dictation, map].into_iter().chain(overlays) {
        let archived = archived_form(&object);
        server.publish(object, &archived).unwrap();
    }
    server
}

#[test]
fn idle_ticks_allocate_nothing() {
    let config = PaginateConfig::default();
    let page = SimDuration::from_secs(5);
    let mut sched = SessionScheduler::new(corpus_server(), Link::ethernet());
    for object in [1, 3, 1, 3] {
        sched.open(ObjectId::new(object), config, page).unwrap();
    }
    let (playing, _) = sched.open(ObjectId::new(2), config, page).unwrap();
    let (interrupted, _) = sched.open(ObjectId::new(2), config, page).unwrap();
    let (finished, _) = sched.open(ObjectId::new(2), config, page).unwrap();
    sched.apply(interrupted, BrowseCommand::Interrupt).unwrap();
    sched.apply(finished, BrowseCommand::AdvancePages(100)).unwrap();
    // Every open's fetch and anticipation lands and the last page plays
    // out. The playing session then plays 100 ms into its seventh page,
    // past the x-ray anchor.
    for _ in 0..6 {
        sched.tick(SimDuration::from_secs(1));
    }
    sched.apply(playing, BrowseCommand::GotoPage(PageNumber::new(7).unwrap())).unwrap();
    sched.tick(SimDuration::from_millis(100));
    let state = |sched: &mut SessionScheduler, key| {
        sched.session(key).unwrap().audio().map(|audio| audio.state())
    };
    assert_eq!(state(&mut sched, playing), Some(PlaybackState::Playing));
    assert_eq!(state(&mut sched, interrupted), Some(PlaybackState::Interrupted));
    assert_eq!(state(&mut sched, finished), Some(PlaybackState::Finished));
    // The playing session's next change is its next page, 4.9 s away:
    // nothing falls due within the counted ticks.
    let audio = sched.session(playing).unwrap().audio().unwrap();
    let quiet = audio.next_change().unwrap().saturating_since(audio.position());
    assert_eq!(quiet, SimDuration::from_millis(4_900));
    assert!(quiet > TICK * TICKS);
    let fired = sched.kernel_stats().events_fired;
    for key in [playing, interrupted] {
        sched.drain_events(key).unwrap();
    }
    // The finished session reported its end once, on the tick that
    // reached it, however many ticks followed.
    let drained = sched.drain_events(finished).unwrap();
    let ends = drained.iter().filter(|&event| *event == BrowseEvent::PlaybackFinished).count();
    assert_eq!(ends, 1, "{drained:?}");

    let before = allocations();
    for _ in 0..TICKS {
        sched.tick(TICK);
    }
    let allocated = allocations() - before;

    assert_eq!(sched.kernel_stats().events_fired, fired, "nothing was woken");
    assert_eq!(allocated, 0, "{TICKS} idle ticks allocated {allocated} times");
    // Nor do the idle ticks owe the finished session anything.
    assert!(sched.drain_events(finished).unwrap().is_empty());
    assert!(sched.drain_events(interrupted).unwrap().is_empty());
    assert!(sched.drain_events(playing).unwrap().is_empty());
}

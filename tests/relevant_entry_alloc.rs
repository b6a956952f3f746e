//! Allocation regression test for entering a relevant object.
//!
//! A scheduled session holds each object once: the server keeps every
//! resident object behind an `Rc`, and a session entering one shares
//! that `Rc` instead of copying the object. So entering a landed overlay
//! with `SelectRelevant`, and entering it again after
//! `ReturnFromRelevant`, must allocate fewer bytes than the overlay's
//! image alone: the engine's pagination and the command's events, never
//! a copy of the object. Lives in the facade tests because the library
//! crates forbid the `unsafe` a `#[global_allocator]` needs.

use minos::corpus;
use minos::corpus::objects::archived_form;
use minos::net::Link;
use minos::presentation::{BrowseCommand, BrowseEvent, SessionScheduler};
use minos::server::ObjectServer;
use minos::text::PaginateConfig;
use minos::types::{ObjectId, SimDuration};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes this thread asks the heap for, so the assertion is
/// immune to other tests running on parallel threads.
struct ByteCountingAllocator;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

unsafe impl GlobalAlloc for ByteCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: ByteCountingAllocator = ByteCountingAllocator;

fn allocated_bytes() -> u64 {
    BYTES.with(Cell::get)
}

const MAP: ObjectId = ObjectId::new(3);
const HOSPITALS: ObjectId = ObjectId::new(4);

#[test]
fn entering_a_landed_overlay_copies_no_object() {
    let (map, overlays) = corpus::subway_map_object(MAP, HOSPITALS, ObjectId::new(5), 11);
    let image_bytes: u64 = overlays[0].images.iter().map(|image| image.byte_size()).sum();
    assert_eq!(overlays[0].id, HOSPITALS);
    let mut server = ObjectServer::new();
    for object in [map].into_iter().chain(overlays) {
        let archived = archived_form(&object);
        server.publish(object, &archived).unwrap();
    }
    let mut sched = SessionScheduler::new(server, Link::ethernet());
    let (key, _) = sched.open(MAP, PaginateConfig::default(), SimDuration::from_secs(5)).unwrap();

    for entry in ["first", "second"] {
        // The map's indicators announced the overlays: let the prefetch
        // land, so the entry waits on no transfer.
        for _ in 0..4 {
            sched.tick(SimDuration::from_secs(1));
        }
        let (before, waited) = (allocated_bytes(), sched.elapsed());
        let events = sched.apply(key, BrowseCommand::SelectRelevant(0)).unwrap();
        let allocated = allocated_bytes() - before;

        assert_eq!(events.first(), Some(&BrowseEvent::EnteredRelevant(HOSPITALS)));
        assert_eq!(sched.elapsed(), waited, "the {entry} entry waited on a transfer");
        assert!(
            allocated < image_bytes,
            "the {entry} entry allocated {allocated} bytes, the overlay's image is {image_bytes}"
        );
        let events = sched.apply(key, BrowseCommand::ReturnFromRelevant).unwrap();
        assert_eq!(events.first(), Some(&BrowseEvent::ReturnedToParent(MAP)));
    }
}

#[test]
fn entering_an_overlay_again_reuses_its_pagination() {
    // The session keeps the layout it built on the first entry, keyed by
    // the server's `Rc`: the second entry builds only the engine around
    // it, the command's events and the prefetch hint's vectors.
    let (map, overlays) = corpus::subway_map_object(MAP, HOSPITALS, ObjectId::new(5), 11);
    let mut server = ObjectServer::new();
    for object in [map].into_iter().chain(overlays) {
        let archived = archived_form(&object);
        server.publish(object, &archived).unwrap();
    }
    let mut sched = SessionScheduler::new(server, Link::ethernet());
    let (key, _) = sched.open(MAP, PaginateConfig::default(), SimDuration::from_secs(5)).unwrap();
    let mut entries = Vec::new();
    for _ in 0..2 {
        for _ in 0..4 {
            sched.tick(SimDuration::from_secs(1));
        }
        let before = allocated_bytes();
        let events = sched.apply(key, BrowseCommand::SelectRelevant(0)).unwrap();
        entries.push(allocated_bytes() - before);
        assert_eq!(events.first(), Some(&BrowseEvent::EnteredRelevant(HOSPITALS)));
        sched.apply(key, BrowseCommand::ReturnFromRelevant).unwrap();
    }
    assert!(entries[1] <= 1024, "the second entry allocated {} bytes: {entries:?}", entries[1]);
}

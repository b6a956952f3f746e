//! Allocation regression test for the clean page path.
//!
//! Once a connection is warm, a page fetched over a clean link must cost
//! no heap allocation from submit to recycle: the request table, the
//! retransmit timer, the service queue and the payload pool all reuse
//! what the first pages left behind. This counts allocations across
//! `fetch_page` → `wait` → `recycle_payload` on a 4-member, k=2 fleet
//! with 16 requests in flight. The receiver's per-frame work is pinned
//! the same way: the CRC of a page and the decode of a framed page into
//! a leased buffer allocate nothing. Lives in the facade tests because
//! the library crates forbid the `unsafe` a `#[global_allocator]` needs.

use minos::net::{crc32, Frame, FramePayload, Link, ServerResponse};
use minos::presentation::{Fleet, FleetConnection, FleetTicket};
use minos::types::{ByteSpan, ObjectId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

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

const MEMBERS: usize = 4;
const REPLICATION: usize = 2;
const WINDOW: usize = 16;
const OBJECTS: u64 = 8;
const PAGES: u64 = 16;
const PAGE_LEN: u64 = 4096;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Keeps `WINDOW` pages in flight: collects the oldest, recycles its
/// payload and submits the next page, `count` times.
fn scan(
    conn: &mut FleetConnection,
    inflight: &mut VecDeque<FleetTicket>,
    next: &mut u64,
    count: u64,
) {
    for _ in 0..count {
        let page = *next % (OBJECTS * PAGES);
        *next += 1;
        let object = ObjectId::new(1 + page / PAGES);
        let rel = ByteSpan::at((page % PAGES) * PAGE_LEN, PAGE_LEN);
        inflight.push_back(conn.fetch_page(object, rel).unwrap());
        if inflight.len() < WINDOW {
            continue;
        }
        let ticket = inflight.pop_front().unwrap();
        let (response, _) = conn.wait(ticket).unwrap();
        let ServerResponse::Span(bytes) = response else {
            panic!("unexpected response {response:?}");
        };
        assert_eq!(bytes.len(), PAGE_LEN as usize);
        conn.recycle_payload(bytes);
    }
}

#[test]
fn a_warm_clean_page_allocates_nothing() {
    let mut fleet = Fleet::new(MEMBERS, REPLICATION).unwrap();
    for o in 0..OBJECTS {
        let body: Vec<u8> = (0..PAGES * PAGE_LEN).map(|i| ((i + o) % 251) as u8).collect();
        fleet.publish_paged(ObjectId::new(1 + o), &body, PAGE_LEN).unwrap();
    }
    let mut conn = FleetConnection::with_window(fleet, Link::ethernet(), WINDOW);
    let mut inflight = VecDeque::with_capacity(WINDOW);
    let mut next = 0;
    // Warm-up: fills the pool, sizes every queue and table, and walks
    // each member's connection queue through a drain and a refill.
    scan(&mut conn, &mut inflight, &mut next, 4 * OBJECTS * PAGES);

    const MEASURED: u64 = 1024;
    let before = allocations();
    scan(&mut conn, &mut inflight, &mut next, MEASURED);
    let per_page = (allocations() - before) as f64 / MEASURED as f64;
    assert_eq!(per_page, 0.0, "a warm clean page allocated {per_page} times");
}

/// `crc32` of a 32 KiB page makes no heap allocation, the first call this
/// thread makes included: that call builds the lookup tables unless
/// another test's thread got there first, and they live in a static
/// either way; the fold's window lives on the stack. Nor does
/// `Frame::decode_with` of a framed page when its lease hands out a buffer
/// with room for the page.
#[test]
fn a_page_crc_and_a_warm_page_decode_allocate_nothing() {
    const PAGE: usize = 32 * 1024;
    let page: Vec<u8> = (0..PAGE).map(|i| (i % 251) as u8).collect();
    let before = allocations();
    std::hint::black_box(crc32(std::hint::black_box(&page)));
    assert_eq!(allocations() - before, 0, "crc32 of a 32 KiB page allocated");

    let framed = Frame::response(1, 7, ServerResponse::Span(page.clone())).encode();
    let mut warm = Some(Vec::with_capacity(PAGE));
    let before = allocations();
    let frame = Frame::decode_with(&framed, &mut || warm.take().unwrap_or_default()).unwrap();
    assert_eq!(allocations() - before, 0, "a warm decode of a framed page allocated");
    assert!(warm.is_none(), "the decode took the leased buffer");
    let FramePayload::Response(ServerResponse::Span(bytes)) = frame.payload else {
        panic!("unexpected payload {:?}", frame.payload);
    };
    assert_eq!(bytes, page);
}

//! Pooled transmit and payload buffers for the frame hot path.
//!
//! The framed transport (§5) moves one presentation page per request, and
//! at pipelined window depths every message used to pay a fresh `Vec`
//! allocation on encode, another on decode, and a third for the retransmit
//! copy. This module supplies the lease/recycle discipline that removes
//! them: a [`BufferPool`] keeps a small free list of byte buffers, a
//! [`PooledBuf`] lease returns its buffer to the pool when dropped, and
//! explicit [`BufferPool::lease_vec`]/[`BufferPool::recycle`] serve the
//! call sites where the buffer must cross an owning API boundary (a
//! response payload travelling inside a [`crate::ServerResponse`]).
//!
//! The pool is deliberately single-threaded (`Rc`/`RefCell`): the
//! simulation drives one connection at a time, and the crate forbids
//! `unsafe`. [`PoolStats`] counts hits, misses, and recycles so the
//! transport accounting can report allocations-per-page — the number the
//! E12/E14 experiments pin near zero.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::rc::{Rc, Weak};

/// Lease/recycle accounting for one [`BufferPool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Leases served from the free list (no allocation).
    pub hits: u64,
    /// Leases that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers returned to the free list.
    pub recycled: u64,
    /// Returned buffers dropped because the free list was at its
    /// retention cap.
    pub discarded: u64,
    /// Most buffers ever held on the free list at once.
    pub high_water: u64,
    /// Buffers stocked up front by [`BufferPool::prewarm`], counted apart
    /// from `recycled` so warmup never reads as steady-state traffic.
    pub prewarmed: u64,
}

/// The shared state behind a pool handle and its outstanding leases.
#[derive(Debug)]
struct PoolInner {
    free: Vec<Vec<u8>>,
    retain_cap: usize,
    stats: PoolStats,
}

impl PoolInner {
    /// Returns `buf` to the free list, or drops it at the retention cap.
    /// Zero-capacity buffers (a detached lease's husk) are never retained.
    fn give_back(&mut self, buf: Vec<u8>) {
        if buf.capacity() == 0 || self.free.len() >= self.retain_cap {
            self.stats.discarded += 1;
            return;
        }
        self.stats.recycled += 1;
        self.free.push(buf);
        self.stats.high_water = self.stats.high_water.max(self.free.len() as u64);
    }
}

/// A free list of reusable byte buffers. Cloning the handle shares the
/// pool; dropping the last handle drops the retained buffers.
#[derive(Clone, Debug)]
pub struct BufferPool {
    inner: Rc<RefCell<PoolInner>>,
}

impl BufferPool {
    /// Default retention cap: buffers kept on the free list beyond this
    /// are dropped instead of retained. Sized to a full pipelined window
    /// per direction with headroom; raise it with
    /// [`BufferPool::with_retain_cap`] for wider fleets.
    pub const DEFAULT_RETAIN_CAP: usize = 64;

    /// A pool with the default retention cap.
    pub fn new() -> Self {
        Self::with_retain_cap(Self::DEFAULT_RETAIN_CAP)
    }

    /// A pool retaining at most `retain_cap` free buffers.
    pub fn with_retain_cap(retain_cap: usize) -> Self {
        BufferPool {
            inner: Rc::new(RefCell::new(PoolInner {
                free: Vec::new(),
                retain_cap,
                stats: PoolStats::default(),
            })),
        }
    }

    /// Leases a cleared buffer that returns itself to the pool on drop.
    pub fn lease(&self) -> PooledBuf {
        PooledBuf { buf: self.lease_vec(), home: Rc::downgrade(&self.inner) }
    }

    /// Leases a cleared raw `Vec` for payloads that must own their bytes
    /// across an API boundary. Pair with [`BufferPool::recycle`] when the
    /// consumer is done with it.
    pub fn lease_vec(&self) -> Vec<u8> {
        let mut inner = self.inner.borrow_mut();
        match inner.free.pop() {
            Some(mut buf) => {
                inner.stats.hits += 1;
                buf.clear();
                buf
            }
            None => {
                inner.stats.misses += 1;
                Vec::new()
            }
        }
    }

    /// Returns a raw buffer to the free list (dropped beyond the
    /// retention cap).
    pub fn recycle(&self, buf: Vec<u8>) {
        self.inner.borrow_mut().give_back(buf);
    }

    /// Stocks the free list with up to `buffers` empty buffers of
    /// `capacity` bytes each, bounded by the retention cap. Cold-start
    /// leases then hit the free list instead of allocating, so small-run
    /// alloc metrics measure the steady state, not first-lease warmup.
    /// Prewarmed buffers are counted in [`PoolStats::prewarmed`], not
    /// `recycled`.
    pub fn prewarm(&self, buffers: usize, capacity: usize) {
        let mut inner = self.inner.borrow_mut();
        let capacity = capacity.max(1);
        let mut added = 0;
        while added < buffers && inner.free.len() < inner.retain_cap {
            added += 1;
            inner.stats.prewarmed += 1;
            inner.free.push(Vec::with_capacity(capacity));
            inner.stats.high_water = inner.stats.high_water.max(inner.free.len() as u64);
        }
    }

    /// Buffers currently on the free list.
    pub fn free_buffers(&self) -> usize {
        self.inner.borrow().free.len()
    }

    /// Lease/recycle accounting so far.
    pub fn stats(&self) -> PoolStats {
        self.inner.borrow().stats
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

/// A leased buffer that returns itself to its pool when dropped.
///
/// Derefs to `Vec<u8>`, so encode paths write into it directly. Use
/// [`PooledBuf::detach`] to move the bytes out permanently (the pool sees
/// a discard, not a recycle).
#[derive(Debug)]
pub struct PooledBuf {
    buf: Vec<u8>,
    home: Weak<RefCell<PoolInner>>,
}

impl PooledBuf {
    /// Moves the bytes out of the lease; nothing returns to the pool.
    pub fn detach(mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }
}

impl Deref for PooledBuf {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(home) = self.home.upgrade() {
            home.borrow_mut().give_back(std::mem::take(&mut self.buf));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_lease_misses_then_recycled_buffers_hit() {
        let pool = BufferPool::new();
        let mut buf = pool.lease_vec();
        buf.extend_from_slice(&[1, 2, 3]);
        let cap = buf.capacity();
        pool.recycle(buf);
        assert_eq!(pool.free_buffers(), 1);
        let again = pool.lease_vec();
        assert!(again.is_empty(), "leases come back cleared");
        assert_eq!(again.capacity(), cap, "the allocation is reused");
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses, stats.recycled), (1, 1, 1));
    }

    #[test]
    fn dropping_a_lease_returns_it_to_the_pool() {
        let pool = BufferPool::new();
        {
            let mut lease = pool.lease();
            lease.extend_from_slice(&[7; 32]);
        }
        assert_eq!(pool.free_buffers(), 1);
        assert_eq!(pool.stats().recycled, 1);
        let lease = pool.lease();
        assert!(lease.capacity() >= 32, "the dropped lease's allocation came back");
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn detached_leases_never_return() {
        let pool = BufferPool::new();
        let mut lease = pool.lease();
        lease.extend_from_slice(&[9; 8]);
        let owned = lease.detach();
        assert_eq!(owned, vec![9; 8]);
        assert_eq!(pool.free_buffers(), 0);
        // The drained husk is not retained either.
        assert_eq!(pool.stats().recycled, 0);
    }

    #[test]
    fn retention_cap_bounds_the_free_list() {
        let pool = BufferPool::with_retain_cap(2);
        for _ in 0..4 {
            let mut v = pool.lease_vec();
            v.push(1);
            pool.recycle(v);
            let _ = pool.lease_vec();
        }
        let mut extras: Vec<Vec<u8>> = (0..4).map(|_| pool.lease_vec()).collect();
        for v in &mut extras {
            v.push(1);
        }
        for v in extras {
            pool.recycle(v);
        }
        assert!(pool.free_buffers() <= 2, "retention cap holds");
        assert!(pool.stats().discarded > 0);
        assert!(pool.stats().high_water <= 2);
    }

    #[test]
    fn empty_returns_are_discarded_not_retained() {
        let pool = BufferPool::new();
        pool.recycle(Vec::new());
        assert_eq!(pool.free_buffers(), 0);
        assert_eq!(pool.stats().discarded, 1);
    }

    #[test]
    fn leases_outliving_the_pool_are_harmless() {
        let lease = {
            let pool = BufferPool::new();
            let mut l = pool.lease();
            l.push(1);
            l
        };
        drop(lease); // the pool is gone; the buffer is simply freed
    }

    #[test]
    fn prewarmed_leases_hit_without_counting_as_recycles() {
        let pool = BufferPool::new();
        pool.prewarm(4, 4_096);
        assert_eq!(pool.free_buffers(), 4);
        let stats = pool.stats();
        assert_eq!(stats.prewarmed, 4);
        assert_eq!(stats.recycled, 0);
        let buf = pool.lease_vec();
        assert!(buf.capacity() >= 4_096, "prewarmed capacity is real");
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (1, 0), "cold start is a hit now");
        // Prewarm respects the retention cap.
        let small = BufferPool::with_retain_cap(2);
        small.prewarm(10, 64);
        assert_eq!(small.free_buffers(), 2);
        assert_eq!(small.stats().prewarmed, 2);
    }
}

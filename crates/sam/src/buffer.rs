//! Simulated page buffer with LRU replacement and I/O accounting.
//!
//! The paper's experiments hold the R*-tree on "disk" behind an LRU buffer
//! (128 KB in §3.4, 32 pages in §5) and report *physical page accesses*.
//! This module reproduces that counting model: every node visit is a
//! logical access; it becomes a physical access when the page is not
//! resident. Traversals count node visits themselves and report each to
//! a [`PageObserver`]: an [`LruBuffer`] here, `()` in the in-memory engine.

use std::collections::HashMap;

/// Identifier of a page (node) in the simulated store.
pub type PageId = u64;

/// What a traversal reports each node visit to.
pub trait PageObserver {
    /// Touches `page`: one node visit.
    fn access(&mut self, page: PageId);

    /// Physical reads so far (0 without a buffer).
    fn physical(&self) -> u64 {
        0
    }
}

/// No buffer, no disk: the in-memory engine's observer.
impl PageObserver for () {
    #[inline(always)]
    fn access(&mut self, _: PageId) {}
}

/// Access statistics of a buffer or a traversal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Node visits.
    pub logical: u64,
    /// Buffer misses = simulated disk reads (0 without a buffer).
    pub physical: u64,
}

impl IoStats {
    /// Buffer hit ratio in `[0, 1]`; 1.0 when nothing was accessed.
    pub fn hit_ratio(&self) -> f64 {
        if self.logical == 0 {
            1.0
        } else {
            1.0 - self.physical as f64 / self.logical as f64
        }
    }
}

/// An LRU page buffer of fixed capacity.
#[derive(Debug, Clone)]
pub struct LruBuffer {
    capacity: usize,
    clock: u64,
    resident: HashMap<PageId, u64>,
    stats: IoStats,
}

impl LruBuffer {
    /// A buffer holding `capacity` pages (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LruBuffer {
            capacity,
            clock: 0,
            // Twice the pages ever resident: evictions leave tombstones,
            // and a table at most half full clears them in place instead
            // of reallocating — a warm buffer never allocates.
            resident: HashMap::with_capacity(2 * capacity + 2),
            stats: IoStats::default(),
        }
    }

    /// A buffer of `bytes` total size for the given page size.
    pub fn with_bytes(bytes: usize, page_size: usize) -> Self {
        LruBuffer::new((bytes / page_size.max(1)).max(1))
    }

    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Clears residency and statistics (used between experiment phases).
    pub fn reset(&mut self) {
        self.resident.clear();
        self.stats = IoStats::default();
        self.clock = 0;
    }
}

impl PageObserver for LruBuffer {
    /// Counts a logical access and, on a miss, a physical access with
    /// LRU eviction.
    fn access(&mut self, page: PageId) {
        self.clock += 1;
        self.stats.logical += 1;
        if let Some(last_used) = self.resident.get_mut(&page) {
            *last_used = self.clock;
            return;
        }
        self.stats.physical += 1;
        if self.resident.len() >= self.capacity {
            // Evict the least recently used page (linear scan: buffers in
            // the reproduced experiments hold at most a few dozen pages).
            if let Some((&victim, _)) = self.resident.iter().min_by_key(|(_, &t)| t) {
                self.resident.remove(&victim);
            }
        }
        self.resident.insert(page, self.clock);
    }

    fn physical(&self) -> u64 {
        self.stats.physical
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits_the_buffer() {
        let mut b = LruBuffer::new(4);
        b.access(1);
        b.access(1);
        b.access(1);
        assert_eq!(b.stats().logical, 3);
        assert_eq!(b.stats().physical, 1);
        assert!((b.stats().hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_oldest() {
        let mut b = LruBuffer::new(2);
        b.access(1);
        b.access(2);
        b.access(1); // 1 is now more recent than 2
        b.access(3); // evicts 2
        assert_eq!(b.stats().physical, 3);
        b.access(1); // still resident
        assert_eq!(b.stats().physical, 3);
        b.access(2); // was evicted: miss
        assert_eq!(b.stats().physical, 4);
    }

    #[test]
    fn capacity_from_bytes() {
        let b = LruBuffer::with_bytes(128 * 1024, 4 * 1024);
        assert_eq!(b.capacity, 32);
        let b2 = LruBuffer::with_bytes(128 * 1024, 2 * 1024);
        assert_eq!(b2.capacity, 64);
        // Degenerate sizes still give a 1-page buffer.
        assert_eq!(LruBuffer::with_bytes(0, 4096).capacity, 1);
    }

    #[test]
    fn reset_clears_residency() {
        let mut b = LruBuffer::new(2);
        b.access(1);
        b.access(2);
        b.access(1); // resident: no physical read
        assert_eq!(b.stats().physical, 2);
        b.reset();
        assert_eq!(b.stats(), IoStats::default());
        assert_eq!(b.resident.len(), 0);
        b.access(1);
        assert_eq!(b.stats().physical, 1);
    }

    /// LRU as a recency list: front = least recently used.
    struct NaiveLru {
        capacity: usize,
        pages: Vec<PageId>,
        stats: IoStats,
    }

    impl NaiveLru {
        fn access(&mut self, page: PageId) {
            self.stats.logical += 1;
            match self.pages.iter().position(|&p| p == page) {
                Some(i) => {
                    self.pages.remove(i);
                }
                None => {
                    self.stats.physical += 1;
                    if self.pages.len() == self.capacity {
                        self.pages.remove(0);
                    }
                }
            }
            self.pages.push(page);
        }
    }

    #[test]
    fn seeded_trace_matches_a_naive_lru_after_every_access() {
        for capacity in [1usize, 4, 32] {
            let mut buffer = LruBuffer::new(capacity);
            let mut naive = NaiveLru {
                capacity,
                pages: Vec::new(),
                stats: IoStats::default(),
            };
            // A seeded LCG over a page universe twice the largest
            // capacity, with runs of re-references like a tree descent.
            let mut state = 0x2545_f491_4f6c_dd1du64;
            let mut page = 0;
            for step in 0..10_000 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                if (state >> 60) > 4 {
                    page = (state >> 33) % 64;
                }
                buffer.access(page);
                naive.access(page);
                assert_eq!(
                    buffer.stats(),
                    naive.stats,
                    "capacity {capacity}, step {step}"
                );
            }
            assert_eq!(buffer.resident.len(), naive.pages.len());
        }
    }

    #[test]
    fn working_set_larger_than_buffer_thrashes() {
        let mut b = LruBuffer::new(3);
        for round in 0..5 {
            for page in 0..6 {
                b.access(page);
            }
            let _ = round;
        }
        // Cyclic access through 6 pages with 3 slots under LRU misses
        // every time.
        assert_eq!(b.stats().physical, 30);
    }
}

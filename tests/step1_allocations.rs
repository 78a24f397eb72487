//! Step 1 does not touch the allocator once warm: the R*-tree is a frozen
//! column arena, `tree_join` keeps its scratch per thread, and point /
//! window probes descend on an inline stack into the caller's `Vec`.
//!
//! The engine's own probe path on top of that costs the same number of
//! allocations whether it records metrics or not: every instrument is a
//! handle resolved at construction.
//!
//! And dropping a built TR* arena frees no large block whole (why that
//! matters, and why an adopted one has nothing to trim, is on the `Drop`
//! of the built columns in `msj_exact::trstar`).
//!
//! The counter is the process-wide `#[global_allocator]`, but it counts
//! per thread and only on the thread that asks, so neither the harness's
//! threads nor the other tests can disturb a measurement.

use msj::core::{EngineConfig, JoinConfig, ObsConfig, Request, SpatialEngine};
use msj::geom::{Point, Rect};
use msj::sam::{tree_join, LruBuffer, PageLayout, RStarTree};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Size of the largest block freed while counting.
    static LARGEST_FREED: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with its arguments unchanged;
// the counter beside the call allocates nothing itself.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            let _ = LARGEST_FREED.try_with(|n| n.set(n.get().max(layout.size())));
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap allocations (growth included) this thread makes inside `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.get();
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    ALLOCATIONS.get() - before
}

#[test]
fn a_warm_join_and_warm_probes_allocate_nothing() {
    let rel_a = msj::datagen::small_carto(3000, 24.0, 71);
    let rel_b = msj::datagen::small_carto(3000, 24.0, 72);
    let config = JoinConfig::default();
    let layout = PageLayout::with_extra_bytes(config.page_size, 0);
    let keys =
        |rel: &msj::geom::Relation| -> Vec<_> { rel.iter().map(|o| (o.mbr(), o.id)).collect() };
    let tree_a = RStarTree::bulk_load(layout, keys(&rel_a));
    let tree_b = RStarTree::bulk_load(layout, keys(&rel_b));
    assert!(tree_a.height() >= 2, "the join must descend");

    // The join: one run warms the per-thread scratch, the second is
    // measured. The sink holds room for every pair up front.
    let mut buffer = LruBuffer::with_bytes(config.buffer_bytes, config.page_size);
    let mut pairs = Vec::new();
    let warm = tree_join(&tree_a, &tree_b, &mut buffer, |a, b| pairs.push((a, b)));
    assert!(warm.candidates > 1000);
    let first = std::mem::replace(&mut pairs, Vec::with_capacity(warm.candidates as usize));
    let mut again = warm;
    let allocations = allocations_in(|| {
        again = tree_join(&tree_a, &tree_b, &mut buffer, |a, b| pairs.push((a, b)));
    });
    assert_eq!(pairs, first, "same stream on the warm run");
    assert_eq!(again.mbr_tests, warm.mbr_tests);
    assert_eq!(allocations, 0, "a warm tree_join allocated");

    // The probes, down the tree as the engine's selections descend it.
    let world = rel_a.bounding_rect().expect("non-empty relation");
    let at = |i: usize| {
        Point::new(
            world.xmin() + world.width() * (i as f64 * 0.618_033_988_7).fract(),
            world.ymin() + world.height() * (i as f64 * 0.414_213_562_3).fract(),
        )
    };
    let side = world.width() * 0.02_f64.sqrt();
    let window = |i: usize| Rect::new(at(i), Point::new(at(i).x + side, at(i).y + side));
    let mut ids = Vec::new();
    let mut proved = Vec::new();
    let mut probe_all = |ids: &mut Vec<u32>| {
        let mut found = 0;
        for i in 0..1000 {
            ids.clear();
            proved.clear();
            tree_a.point_query(at(i), &mut (), ids);
            tree_a.window_query_proving(window(i), &mut (), ids, &mut proved);
            found += ids.len() as u64;
        }
        found
    };
    let warm = probe_all(&mut ids);
    assert!(warm > 1000, "the probes must find candidates ({warm})");
    let capacity = ids.capacity();
    let mut again = 0;
    let allocations = allocations_in(|| again = probe_all(&mut ids));
    assert_eq!(again, warm);
    assert_eq!(ids.capacity(), capacity);
    assert_eq!(allocations, 0, "warm point / window probes allocated");
}

/// Observing a probe is free of allocations: a warm point / window
/// request through `submit` allocates exactly as often on an engine that
/// records latency, step time and traffic counters as on a dark one.
#[test]
fn observed_probes_allocate_no_more_than_dark_ones() {
    let rel = std::sync::Arc::new(msj::datagen::small_carto(3000, 24.0, 73));
    let world = rel.bounding_rect().expect("non-empty relation");
    let at = |i: usize| {
        Point::new(
            world.xmin() + world.width() * (i as f64 * 0.618_033_988_7).fract(),
            world.ymin() + world.height() * (i as f64 * 0.414_213_562_3).fract(),
        )
    };
    let side = world.width() * 0.02_f64.sqrt();
    let probes_allocate = |obs: ObsConfig| {
        let engine = SpatialEngine::new(EngineConfig {
            obs,
            ..EngineConfig::default()
        });
        let dataset = engine.register(rel.clone()).id();
        let probe_all = || {
            for i in 0..200 {
                let point = at(i);
                let window = Rect::new(point, Point::new(point.x + side, point.y + side));
                let found = engine.submit(Request::Point { dataset, point });
                assert!(found.is_ok());
                let found = engine.submit(Request::Window { dataset, window });
                assert!(found.is_ok());
            }
        };
        probe_all();
        allocations_in(probe_all)
    };
    let dark = probes_allocate(ObsConfig::disabled());
    let observed = probes_allocate(ObsConfig::default());
    assert!(
        observed <= dark,
        "400 observed probes allocated {observed} times, dark ones {dark}"
    );
}

/// A dropped TR* arena gives its two big columns back through a
/// shrinking `realloc`: the largest block it frees whole is an offset
/// table, under a hundredth of the arena.
#[test]
fn a_dropped_tr_star_arena_frees_no_large_block_whole() {
    let rel = msj::datagen::small_carto(3000, 24.0, 74);
    let arena = msj::exact::TrStarStore::build(&rel, 6);
    let bytes = arena.to_bytes().len();
    assert!(bytes > 2 << 20, "the arena must be large ({bytes} B)");
    LARGEST_FREED.set(0);
    allocations_in(|| drop(arena));
    let largest = LARGEST_FREED.get();
    assert!(
        largest * 100 < bytes,
        "dropping a {bytes} B arena freed a {largest} B block whole"
    );
}

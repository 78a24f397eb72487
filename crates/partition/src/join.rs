//! The partitioned MBR join: per-tile plane sweeps executed in parallel
//! over scoped threads, funneled onto the calling thread in tile order
//! ([`partition_join`], or [`partition_join_funneled`] with a cancel
//! token). The tile threads are Step 1's own; whatever runs downstream
//! of the calling thread schedules itself.

use crate::grid::Grid;
use crate::stats::PartitionStats;
use msj_geom::{panic_message, resolve_threads, CancelToken, ObjectId, Rect, WorkerPanic};
use std::thread::ScopedJoinHandle;

/// Joins every scoped worker, isolating panics: all workers are drained
/// (no thread leak, deterministic teardown), then the *first* panic is
/// re-raised as a structured [`WorkerPanic`] carrying the worker index —
/// the engine layer catches it at the join boundary and fails the request
/// instead of the process.
fn join_isolating_panics<T>(handles: Vec<ScopedJoinHandle<'_, T>>, mut on_ok: impl FnMut(T)) {
    let mut panicked: Option<WorkerPanic> = None;
    for (worker, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok(value) => on_ok(value),
            Err(payload) => {
                if panicked.is_none() {
                    panicked = Some(WorkerPanic {
                        worker,
                        message: panic_message(payload.as_ref()),
                    });
                }
            }
        }
    }
    if let Some(panic) = panicked {
        std::panic::resume_unwind(Box::new(panic));
    }
}

/// What one tile's mini-join produced.
#[derive(Debug, Default)]
struct TileResult {
    pairs: Vec<(ObjectId, ObjectId)>,
    pair_tests: u64,
    dedup_skipped: u64,
}

/// One tile's mini-join into `result`, whose pair buffer is reused: a
/// forward plane sweep over the tile's two rectangle lists (sorted here
/// by `xmin`), reporting the intersecting pairs whose reference point
/// lies in `tile`.
fn tile_sweep(
    grid: &Grid,
    tile: usize,
    side_a: &mut [(Rect, ObjectId)],
    side_b: &mut [(Rect, ObjectId)],
    result: &mut TileResult,
) {
    result.pairs.clear();
    (result.pair_tests, result.dedup_skipped) = (0, 0);
    if side_a.is_empty() || side_b.is_empty() {
        return;
    }
    side_a.sort_unstable_by(|p, q| p.0.xmin().partial_cmp(&q.0.xmin()).expect("finite xmin"));
    side_b.sort_unstable_by(|p, q| p.0.xmin().partial_cmp(&q.0.xmin()).expect("finite xmin"));
    let (side_a, side_b) = (&*side_a, &*side_b);

    // The side whose next rectangle starts first probes the other side
    // from that side's cursor, up to the first rectangle that starts
    // right of the probe: every one scanned overlaps it in x and costs a
    // pair test in y. A pair is replicated into every tile both
    // rectangles overlap, but counts only where the lower-left corner of
    // their intersection falls.
    let (mut i, mut j) = (0, 0);
    while i < side_a.len() && j < side_b.len() {
        let a_probes = side_a[i].0.xmin() <= side_b[j].0.xmin();
        let (probe, others) = if a_probes {
            (side_a[i], &side_b[j..])
        } else {
            (side_b[j], &side_a[i..])
        };
        for &other in others {
            if other.0.xmin() > probe.0.xmax() {
                break;
            }
            result.pair_tests += 1;
            if probe.0.ymin() <= other.0.ymax() && other.0.ymin() <= probe.0.ymax() {
                let ((ra, ida), (rb, idb)) = if a_probes {
                    (probe, other)
                } else {
                    (other, probe)
                };
                if grid.reference_tile(&ra, &rb) == tile {
                    result.pairs.push((ida, idb));
                } else {
                    result.dedup_skipped += 1;
                }
            }
        }
        if a_probes {
            i += 1;
        } else {
            j += 1;
        }
    }
}

/// Below this many total tile assignments the sweeps of
/// [`partition_join`] / [`partition_join_funneled`] run on the calling
/// thread regardless of the requested `threads` — spawn cost would
/// dominate the sub-millisecond sweep work. [`PartitionStats::threads`]
/// records the worker count actually used.
pub const PARALLEL_THRESHOLD: u64 = 4096;

/// The bucketed grid of one join: universe grid, per-tile rectangle lists
/// for both sides, assignment counts.
struct Prepared {
    grid: Grid,
    buckets_a: Vec<Vec<(Rect, ObjectId)>>,
    buckets_b: Vec<Vec<(Rect, ObjectId)>>,
    assignments_a: u64,
    assignments_b: u64,
}

/// Builds the grid and buckets; `None` when either side is empty (no
/// candidates can exist).
fn prepare(
    a: &[(Rect, ObjectId)],
    b: &[(Rect, ObjectId)],
    tiles_per_axis: usize,
) -> Option<Prepared> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let grid = Grid::covering(a, b, tiles_per_axis)?;
    let (buckets_a, assignments_a) = grid.assign(a);
    let (buckets_b, assignments_b) = grid.assign(b);
    Some(Prepared {
        grid,
        buckets_a,
        buckets_b,
        assignments_a,
        assignments_b,
    })
}

fn base_stats(prep: &Prepared, a_len: usize, b_len: usize, workers: usize) -> PartitionStats {
    PartitionStats {
        tiles_per_axis: prep.grid.tiles_per_axis(),
        threads: workers,
        assignments_a: prep.assignments_a,
        assignments_b: prep.assignments_b,
        items_a: a_len as u64,
        items_b: b_len as u64,
        pair_tests: 0,
        dedup_skipped: 0,
        tile_candidates: Vec::with_capacity(prep.grid.tile_count()),
    }
}

/// The partitioned parallel MBR join, funneled onto the calling thread.
///
/// Every intersecting `(a, b)` MBR pair is streamed to `on_pair` exactly
/// once, in deterministic tile-major order independent of `threads`.
/// `threads == 0` uses the machine's available parallelism; inputs below
/// [`PARALLEL_THRESHOLD`] assignments run serially either way. Tile
/// sweeps run on scoped worker threads; the sink runs on the calling
/// thread, so downstream steps need no synchronization.
pub fn partition_join<F: FnMut(ObjectId, ObjectId)>(
    a: &[(Rect, ObjectId)],
    b: &[(Rect, ObjectId)],
    tiles_per_axis: usize,
    threads: usize,
    on_pair: F,
) -> PartitionStats {
    partition_join_funneled(a, b, tiles_per_axis, threads, None, on_pair)
}

/// [`partition_join`] with an optional cooperative [`CancelToken`],
/// polled at every tile boundary (sweep side and replay side). On one
/// thread each tile is delivered as soon as it is swept; parallel sweeps
/// are replayed in tile order once all have run. Once cancelled, no
/// further tiles are swept and no further pairs are replayed; the stats
/// cover exactly the tiles that ran. `None` is the zero-overhead path.
pub fn partition_join_funneled<F: FnMut(ObjectId, ObjectId)>(
    a: &[(Rect, ObjectId)],
    b: &[(Rect, ObjectId)],
    tiles_per_axis: usize,
    threads: usize,
    cancel: Option<&CancelToken>,
    mut on_pair: F,
) -> PartitionStats {
    let threads = resolve_threads(threads);
    let Some(mut prep) = prepare(a, b, tiles_per_axis) else {
        // One side (or both) is empty: no tiles ran, no workers spawned.
        return PartitionStats::empty(tiles_per_axis, 1);
    };
    let tile_count = prep.grid.tile_count();
    let workers = if prep.assignments_a + prep.assignments_b < PARALLEL_THRESHOLD {
        1
    } else {
        threads.min(tile_count).max(1)
    };
    let mut stats = base_stats(&prep, a.len(), b.len(), workers);
    // Hands one swept tile to the calling thread's sink, tile-major.
    let mut deliver = |result: &mut TileResult| {
        stats.pair_tests += result.pair_tests;
        stats.dedup_skipped += result.dedup_skipped;
        stats.tile_candidates.push(result.pairs.len() as u64);
        for (id_a, id_b) in result.pairs.drain(..) {
            on_pair(id_a, id_b);
        }
    };

    if workers <= 1 {
        // Each tile goes out as soon as it is swept: the sink overlaps
        // the sweep, and one tile's pairs are all that is ever held.
        let mut result = TileResult::default();
        for tile in 0..tile_count {
            if cancel.is_some_and(|c| c.is_cancelled()) {
                break; // tile boundary: stop sweeping and delivering
            }
            tile_sweep(
                &prep.grid,
                tile,
                &mut prep.buckets_a[tile],
                &mut prep.buckets_b[tile],
                &mut result,
            );
            deliver(&mut result);
        }
        return stats;
    }

    // Tiles are handed to workers round-robin (tile t → worker t mod W) so
    // spatially clustered hot tiles spread across workers; each worker
    // writes into its own slot of the per-tile result table.
    let mut results: Vec<TileResult> = Vec::with_capacity(tile_count);
    results.resize_with(tile_count, TileResult::default);
    let mut per_worker: Vec<Vec<(usize, &mut TileResult, _, _)>> =
        (0..workers).map(|_| Vec::new()).collect();
    let slots = results
        .iter_mut()
        .zip(prep.buckets_a.iter_mut())
        .zip(prep.buckets_b.iter_mut())
        .enumerate()
        .map(|(tile, ((res, ba), bb))| (tile, res, ba, bb));
    for slot in slots {
        per_worker[slot.0 % workers].push(slot);
    }
    let grid = &prep.grid;
    std::thread::scope(|scope| {
        let handles: Vec<_> = per_worker
            .into_iter()
            .map(|own| {
                scope.spawn(move || {
                    for (tile, result, bucket_a, bucket_b) in own {
                        if cancel.is_some_and(|c| c.is_cancelled()) {
                            break; // tile boundary: drop remaining tiles
                        }
                        tile_sweep(grid, tile, bucket_a, bucket_b, result);
                    }
                })
            })
            .collect();
        join_isolating_panics(handles, |()| {});
    });

    // Deterministic merge: replay pairs in tile-major order on the
    // calling thread.
    for result in &mut results {
        if cancel.is_some_and(|c| c.is_cancelled()) {
            break; // tile boundary: stop replaying delivered pairs
        }
        deliver(result);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_items(n_side: usize, offset: f64, size: f64) -> Vec<(Rect, ObjectId)> {
        let mut items = Vec::new();
        let mut id = 0u32;
        for i in 0..n_side {
            for j in 0..n_side {
                let x = i as f64 * 10.0 + offset;
                let y = j as f64 * 10.0 + offset;
                items.push((Rect::from_bounds(x, y, x + size, y + size), id));
                id += 1;
            }
        }
        items
    }

    fn reference(a: &[(Rect, ObjectId)], b: &[(Rect, ObjectId)]) -> Vec<(ObjectId, ObjectId)> {
        let mut out = Vec::new();
        for &(ra, ida) in a {
            for &(rb, idb) in b {
                if ra.intersects(&rb) {
                    out.push((ida, idb));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn sorted(mut v: Vec<(ObjectId, ObjectId)>) -> Vec<(ObjectId, ObjectId)> {
        v.sort_unstable();
        v
    }

    #[test]
    fn cancelled_join_stops_at_tile_boundaries() {
        let a = grid_items(10, 0.0, 8.0);
        let b = grid_items(10, 4.0, 8.0);
        let expect = reference(&a, &b);

        // Pre-cancelled: no tile sweeps, no pairs arrive, stats stay
        // well-formed.
        for threads in [1usize, 4] {
            let token = CancelToken::new();
            token.cancel();
            let stats = partition_join_funneled(&a, &b, 4, threads, Some(&token), |_, _| {
                panic!("no pairs expected")
            });
            assert_eq!(stats.candidates(), 0, "threads {threads}");
        }

        // Cancelled mid-run from the sink: delivery stops at the next
        // tile boundary, and what arrived is a subset of the full join.
        let token = CancelToken::new();
        let mut got = Vec::new();
        partition_join_funneled(&a, &b, 4, 1, Some(&token), |x, y| {
            got.push((x, y));
            if got.len() == 8 {
                token.cancel();
            }
        });
        let got = sorted(got);
        assert!(got.len() >= 8);
        assert!(got.len() < expect.len(), "stopped before completion");
        assert!(got.iter().all(|p| expect.binary_search(p).is_ok()));
    }

    #[test]
    fn matches_nested_loops_across_tiles_and_threads() {
        let a = grid_items(9, 0.0, 8.0);
        let b = grid_items(9, 4.0, 8.0);
        let expect = reference(&a, &b);
        assert!(!expect.is_empty());
        for tiles in [1usize, 2, 4, 7] {
            for threads in [1usize, 2, 8] {
                let mut got = Vec::new();
                let stats = partition_join(&a, &b, tiles, threads, |x, y| got.push((x, y)));
                assert_eq!(sorted(got), expect, "tiles {tiles} threads {threads}");
                assert_eq!(stats.candidates(), expect.len() as u64);
                assert_eq!(stats.tile_candidates.len(), tiles * tiles);
            }
        }
    }

    #[test]
    fn output_order_is_thread_count_invariant() {
        let a = grid_items(8, 0.0, 9.5);
        let b = grid_items(8, 3.0, 9.5);
        let mut first = Vec::new();
        partition_join(&a, &b, 4, 1, |x, y| first.push((x, y)));
        for threads in [2usize, 3, 8, 16] {
            let mut got = Vec::new();
            partition_join(&a, &b, 4, threads, |x, y| got.push((x, y)));
            assert_eq!(got, first, "threads {threads}");
        }
    }

    #[test]
    fn no_duplicates_despite_replication() {
        // Large rectangles overlapping many tiles stress the dedup.
        let a = grid_items(5, 0.0, 25.0);
        let b = grid_items(5, 7.0, 25.0);
        let mut got = Vec::new();
        let stats = partition_join(&a, &b, 6, 4, |x, y| got.push((x, y)));
        let mut deduped = got.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(got.len(), deduped.len(), "duplicate pairs emitted");
        assert_eq!(sorted(got), reference(&a, &b));
        assert!(
            stats.dedup_skipped > 0,
            "replication should have produced skips"
        );
        assert!(stats.replicated_a() > 0);
    }

    #[test]
    fn empty_sides_yield_empty_join() {
        let a = grid_items(3, 0.0, 8.0);
        let stats = partition_join(&a, &[], 4, 2, |_, _| panic!("no pairs expected"));
        assert_eq!(stats.candidates(), 0);
        let stats = partition_join(&[], &a, 4, 2, |_, _| panic!("no pairs expected"));
        assert_eq!(stats.candidates(), 0);
    }

    #[test]
    fn identical_rectangles_all_pair_up() {
        let r = Rect::from_bounds(1.0, 1.0, 2.0, 2.0);
        let a: Vec<(Rect, ObjectId)> = (0..40).map(|i| (r, i)).collect();
        let mut got = Vec::new();
        let stats = partition_join(&a, &a, 4, 3, |x, y| got.push((x, y)));
        assert_eq!(got.len(), 1600);
        // A degenerate-extent universe still lands everything in one tile.
        assert_eq!(stats.candidates(), 1600);
    }

    #[test]
    fn large_inputs_use_the_requested_threads() {
        let a = grid_items(60, 0.0, 8.0);
        let b = grid_items(60, 4.0, 8.0);
        assert!(a.len() as u64 + b.len() as u64 >= super::PARALLEL_THRESHOLD);
        let mut got = Vec::new();
        let stats = partition_join(&a, &b, 8, 4, |x, y| got.push((x, y)));
        assert_eq!(stats.threads, 4);
        assert_eq!(sorted(got), reference(&a, &b));
    }

    #[test]
    fn tiny_inputs_fall_back_to_serial() {
        let a = grid_items(3, 0.0, 8.0);
        let b = grid_items(3, 4.0, 8.0);
        let stats = partition_join(&a, &b, 2, 8, |_, _| {});
        assert_eq!(stats.threads, 1, "sub-threshold work must not spawn");
    }

    #[test]
    fn zero_threads_uses_available_parallelism() {
        let a = grid_items(6, 0.0, 8.0);
        let b = grid_items(6, 4.0, 8.0);
        let mut got = Vec::new();
        let stats = partition_join(&a, &b, 3, 0, |x, y| got.push((x, y)));
        assert_eq!(sorted(got), reference(&a, &b));
        assert!(stats.threads >= 1);
    }

    #[test]
    fn stats_accounting_identities() {
        let a = grid_items(7, 0.0, 12.0);
        let b = grid_items(7, 5.0, 12.0);
        let mut count = 0u64;
        let stats = partition_join(&a, &b, 4, 2, |_, _| count += 1);
        assert_eq!(stats.candidates(), count);
        assert_eq!(stats.tile_candidates.iter().sum::<u64>(), count);
        // Every item is assigned at least once.
        assert!(stats.assignments_a >= a.len() as u64);
        assert!(stats.assignments_b >= b.len() as u64);
        // Pair tests bound the emitted + skipped matches.
        assert!(stats.pair_tests >= count + stats.dedup_skipped);
        assert!(stats.busiest_tile().is_some());
    }
}

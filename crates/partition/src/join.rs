//! The partitioned MBR join: per-tile plane sweeps executed in parallel
//! over scoped threads, delivered either funneled onto the calling thread
//! ([`partition_join`], or [`partition_join_funneled`] with an explicit
//! kernel dispatch and cancel token) or straight to caller-supplied
//! per-worker sinks ([`partition_join_workers`] — the fused execution
//! path).

use crate::grid::Grid;
use crate::stats::PartitionStats;
use msj_geom::kernels::{self, KernelDispatch};
use msj_geom::{
    panic_message, resolve_threads, CancelToken, ObjectId, PairBatchBuffer, PairConsumer, Rect,
    WorkerPanic,
};
use msj_obs::{WorkerLane, WorkerTelemetry};
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

/// Per-tile accounting of one worker-delivered tile sweep (the pairs went
/// to the worker's sink, so only the counters travel back).
#[derive(Debug, Clone, Copy)]
struct TileOutcome {
    tile: usize,
    candidates: u64,
    pair_tests: u64,
    dedup_skipped: u64,
}

/// Reusable sweep scratch: the wide-kernel hit list and the x-sorted
/// rectangle columns of the current tile. One instance serves a whole
/// tile loop (one per worker), so repacking never reallocates in steady
/// state.
#[derive(Debug, Default)]
pub struct SweepScratch {
    hits: Vec<u32>,
    ax: Vec<f64>,
    ay0: Vec<f64>,
    ay1: Vec<f64>,
    axm: Vec<f64>,
    bx: Vec<f64>,
    by0: Vec<f64>,
    by1: Vec<f64>,
    bxm: Vec<f64>,
}

impl SweepScratch {
    fn repack(&mut self, side_a: &[(Rect, ObjectId)], side_b: &[(Rect, ObjectId)]) {
        self.ax.clear();
        self.ay0.clear();
        self.ay1.clear();
        self.axm.clear();
        for (r, _) in side_a {
            self.ax.push(r.xmin());
            self.ay0.push(r.ymin());
            self.ay1.push(r.ymax());
            self.axm.push(r.xmax());
        }
        self.bx.clear();
        self.by0.clear();
        self.by1.clear();
        self.bxm.clear();
        for (r, _) in side_b {
            self.bx.push(r.xmin());
            self.by0.push(r.ymin());
            self.by1.push(r.ymax());
            self.bxm.push(r.xmax());
        }
    }
}

/// Forward plane sweep over one tile's two rectangle lists (already
/// bucketed; sorted here by `xmin`), reporting intersecting pairs whose
/// reference point lies in `tile`, on an explicit kernel dispatch path
/// and with caller-owned scratch. After sorting, both sides are repacked
/// into SoA columns and the inner x-overlapping runs execute as wide
/// scans; the emitted pairs, their order, and both counters are
/// byte-identical across paths.
pub fn tile_sweep(
    dispatch: KernelDispatch,
    grid: &Grid,
    tile: usize,
    side_a: &mut [(Rect, ObjectId)],
    side_b: &mut [(Rect, ObjectId)],
    scratch: &mut SweepScratch,
    on_pair: &mut impl FnMut(ObjectId, ObjectId),
) -> (u64, u64) {
    let mut pair_tests = 0u64;
    let mut dedup_skipped = 0u64;
    side_a.sort_unstable_by(|p, q| p.0.xmin().partial_cmp(&q.0.xmin()).expect("finite xmin"));
    side_b.sort_unstable_by(|p, q| p.0.xmin().partial_cmp(&q.0.xmin()).expect("finite xmin"));
    scratch.repack(side_a, side_b);

    // The kernel handles the x-break and the y-band test of each run; the
    // reference-point dedup (the pair is replicated into every tile both
    // rectangles overlap, but counts only where the lower-left corner of
    // their intersection falls) stays scalar over the few survivors.
    let mut i = 0;
    let mut j = 0;
    while i < side_a.len() && j < side_b.len() {
        if scratch.ax[i] <= scratch.bx[j] {
            let (ra, ida) = side_a[i];
            scratch.hits.clear();
            pair_tests += kernels::sweep_scan(
                dispatch,
                scratch.axm[i],
                scratch.ay0[i],
                scratch.ay1[i],
                &scratch.bx,
                &scratch.by0,
                &scratch.by1,
                j,
                &mut scratch.hits,
            );
            for &k in &scratch.hits {
                let (rb, idb) = side_b[k as usize];
                if grid.reference_tile(&ra, &rb) == tile {
                    on_pair(ida, idb);
                } else {
                    dedup_skipped += 1;
                }
            }
            i += 1;
        } else {
            let (rb, idb) = side_b[j];
            scratch.hits.clear();
            pair_tests += kernels::sweep_scan(
                dispatch,
                scratch.bxm[j],
                scratch.by0[j],
                scratch.by1[j],
                &scratch.ax,
                &scratch.ay0,
                &scratch.ay1,
                i,
                &mut scratch.hits,
            );
            for &k in &scratch.hits {
                let (ra, ida) = side_a[k as usize];
                if grid.reference_tile(&ra, &rb) == tile {
                    on_pair(ida, idb);
                } else {
                    dedup_skipped += 1;
                }
            }
            j += 1;
        }
    }
    (pair_tests, dedup_skipped)
}

/// Below this many total tile assignments the funneled drivers'
/// ([`partition_join`], [`partition_join_funneled`]) sweeps run
/// on the calling thread regardless of the requested `threads` — spawn
/// cost would dominate the sub-millisecond sweep work.
/// [`PartitionStats::threads`] records the worker count actually used.
/// ([`partition_join_workers`] does *not* apply this threshold: its
/// workers also run the downstream filter + exact steps, which dwarf the
/// spawn cost.)
pub const PARALLEL_THRESHOLD: u64 = 4096;

/// The bucketed grid both join drivers share: universe grid, per-tile
/// rectangle lists for both sides, assignment counts.
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
    partition_join_funneled(
        KernelDispatch::auto(),
        a,
        b,
        tiles_per_axis,
        threads,
        None,
        on_pair,
    )
}

/// [`partition_join`] with an explicit kernel dispatch path and an
/// optional cooperative [`CancelToken`], polled at every tile boundary
/// (sweep side and replay side). Once cancelled, no further tiles are
/// swept and no further pairs are replayed; the stats cover exactly the
/// tiles that ran. `None` is the zero-overhead path.
pub fn partition_join_funneled<F: FnMut(ObjectId, ObjectId)>(
    dispatch: KernelDispatch,
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

    // Tiles are handed to workers round-robin (tile t → worker t mod W) so
    // spatially clustered hot tiles spread across workers; each worker
    // writes into its own slot of the per-tile result table.
    let workers = if prep.assignments_a + prep.assignments_b < PARALLEL_THRESHOLD {
        1
    } else {
        threads.min(tile_count).max(1)
    };
    let mut results: Vec<TileResult> = Vec::with_capacity(tile_count);
    results.resize_with(tile_count, TileResult::default);

    if workers <= 1 {
        let mut scratch = SweepScratch::default();
        for (tile, result) in results.iter_mut().enumerate() {
            if cancel.is_some_and(|c| c.is_cancelled()) {
                break; // tile boundary: stop sweeping, replay what ran
            }
            run_tile(
                dispatch,
                &prep.grid,
                tile,
                &mut prep.buckets_a[tile],
                &mut prep.buckets_b[tile],
                &mut scratch,
                result,
            );
        }
    } else {
        // Split the per-tile slots round-robin into one work list per
        // worker (tile t → worker t mod W).
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
                        let mut scratch = SweepScratch::default();
                        for (tile, result, bucket_a, bucket_b) in own {
                            if cancel.is_some_and(|c| c.is_cancelled()) {
                                break; // tile boundary: drop remaining tiles
                            }
                            run_tile(
                                dispatch,
                                grid,
                                tile,
                                bucket_a,
                                bucket_b,
                                &mut scratch,
                                result,
                            );
                        }
                    })
                })
                .collect();
            join_isolating_panics(handles, |()| {});
        });
    }

    // Deterministic merge: replay pairs in tile-major order on the
    // calling thread.
    let mut stats = base_stats(&prep, a.len(), b.len(), workers);
    for result in results {
        if cancel.is_some_and(|c| c.is_cancelled()) {
            break; // tile boundary: stop replaying delivered pairs
        }
        stats.pair_tests += result.pair_tests;
        stats.dedup_skipped += result.dedup_skipped;
        stats.tile_candidates.push(result.pairs.len() as u64);
        for (id_a, id_b) in result.pairs {
            on_pair(id_a, id_b);
        }
    }
    stats
}

/// Records one tile's outcome into the worker's backend lane: pairs
/// swept, one batch per tile flushed, the busiest tile as the peak.
#[inline]
fn observe_tile(lane: Option<&WorkerLane>, outcome: &TileOutcome) {
    if let Some(lane) = lane {
        lane.add_pairs(outcome.candidates);
        lane.inc_batches();
        lane.record_buffered(outcome.candidates);
    }
}

/// The partitioned parallel MBR join delivered to caller-supplied
/// workers: each worker thread attaches its own sink on `consumer` and
/// the tile sweeps stream their pairs into it *on the worker thread* —
/// no funnel, no intermediate pair buffer. This is the Step-1 producer of
/// the fused execution engine: the consumer typically runs the geometric
/// filter and the exact step right in the sink.
///
/// `workers == 0` uses the machine's available parallelism; the count is
/// clamped to the tile count (a tile is the unit of work). Each worker
/// processes tiles `w, w + W, w + 2W, …` in increasing order, so every
/// worker's pair stream — and therefore any per-worker accumulation — is
/// deterministic for a fixed worker count. Pairs are emitted exactly once
/// (reference-point deduplication, as with [`partition_join`]); the
/// *union* across workers equals [`partition_join`]'s stream as a set.
///
/// Pairs are delivered in runs of up to `batch` through
/// [`msj_geom::PairSink::consume_batch`] (a caller-side
/// [`PairBatchBuffer`] per worker, flushed at every tile boundary), so a
/// consumer pays one dispatch — and can run one batched classification —
/// per run instead of per pair. Order within a worker is unchanged.
///
/// With `telemetry`, worker `w` records into `telemetry.backend_lane(w)`
/// the candidate pairs it swept, the tile flushes it performed, and its
/// busiest tile's candidate count. With `cancel`, every worker polls the
/// token at each tile boundary: once cancelled, workers stop sweeping
/// their remaining tiles, flush nothing further, and tear down normally.
/// `None` is the zero-overhead path for both. A worker that *panics* is
/// isolated: the other workers drain, then the panic is re-raised as a
/// structured [`WorkerPanic`] for the engine layer to catch.
#[allow(clippy::too_many_arguments)]
pub fn partition_join_workers(
    dispatch: KernelDispatch,
    a: &[(Rect, ObjectId)],
    b: &[(Rect, ObjectId)],
    tiles_per_axis: usize,
    workers: usize,
    batch: usize,
    consumer: &dyn PairConsumer,
    telemetry: Option<&WorkerTelemetry>,
    cancel: Option<&CancelToken>,
) -> PartitionStats {
    let workers = resolve_threads(workers);
    let Some(mut prep) = prepare(a, b, tiles_per_axis) else {
        return PartitionStats::empty(tiles_per_axis, 1);
    };
    let tile_count = prep.grid.tile_count();
    let workers = workers.min(tile_count).max(1);

    let mut outcomes: Vec<TileOutcome> = Vec::with_capacity(tile_count);
    if workers <= 1 {
        let lane = telemetry.map(|t| t.backend_lane(0));
        let mut sink = consumer.attach();
        let mut buffer = PairBatchBuffer::new(&mut *sink, batch);
        let mut scratch = SweepScratch::default();
        for (tile, (bucket_a, bucket_b)) in prep
            .buckets_a
            .iter_mut()
            .zip(prep.buckets_b.iter_mut())
            .enumerate()
        {
            if cancel.is_some_and(|c| c.is_cancelled()) {
                break; // tile boundary: stop sweeping
            }
            let outcome = sweep_into(
                dispatch,
                &prep.grid,
                tile,
                bucket_a,
                bucket_b,
                &mut scratch,
                &mut buffer,
            );
            buffer.flush(); // tile boundary
            observe_tile(lane, &outcome);
            outcomes.push(outcome);
        }
    } else {
        let mut per_worker: Vec<Vec<(usize, _, _)>> = (0..workers).map(|_| Vec::new()).collect();
        let slots = prep
            .buckets_a
            .iter_mut()
            .zip(prep.buckets_b.iter_mut())
            .enumerate()
            .map(|(tile, (ba, bb))| (tile, ba, bb));
        for slot in slots {
            per_worker[slot.0 % workers].push(slot);
        }
        let grid = &prep.grid;
        std::thread::scope(|scope| {
            let handles: Vec<_> = per_worker
                .into_iter()
                .enumerate()
                .map(|(w, own)| {
                    scope.spawn(move || {
                        let lane = telemetry.map(|t| t.backend_lane(w));
                        let mut sink = consumer.attach();
                        let mut buffer = PairBatchBuffer::new(&mut *sink, batch);
                        let mut scratch = SweepScratch::default();
                        let mut done: Vec<TileOutcome> = Vec::with_capacity(own.len());
                        for (tile, bucket_a, bucket_b) in own {
                            if cancel.is_some_and(|c| c.is_cancelled()) {
                                break; // tile boundary: drop remaining tiles
                            }
                            let outcome = sweep_into(
                                dispatch,
                                grid,
                                tile,
                                bucket_a,
                                bucket_b,
                                &mut scratch,
                                &mut buffer,
                            );
                            buffer.flush(); // tile boundary
                            observe_tile(lane, &outcome);
                            done.push(outcome);
                        }
                        done
                    })
                })
                .collect();
            join_isolating_panics(handles, |done| outcomes.extend(done));
        });
    }

    // Stitch the per-worker outcomes back into tile order so the stats —
    // per-tile candidate counts included — are identical to the funneled
    // driver's, independent of the worker count.
    let mut stats = base_stats(&prep, a.len(), b.len(), workers);
    stats.tile_candidates.resize(tile_count, 0);
    for outcome in outcomes {
        stats.pair_tests += outcome.pair_tests;
        stats.dedup_skipped += outcome.dedup_skipped;
        stats.tile_candidates[outcome.tile] = outcome.candidates;
    }
    stats
}

/// Sweeps one tile directly into a worker's sink, returning the tile's
/// counters.
fn sweep_into(
    dispatch: KernelDispatch,
    grid: &Grid,
    tile: usize,
    bucket_a: &mut [(Rect, ObjectId)],
    bucket_b: &mut [(Rect, ObjectId)],
    scratch: &mut SweepScratch,
    sink: &mut dyn msj_geom::PairSink,
) -> TileOutcome {
    let mut candidates = 0u64;
    let (pair_tests, dedup_skipped) = if bucket_a.is_empty() || bucket_b.is_empty() {
        (0, 0)
    } else {
        tile_sweep(
            dispatch,
            grid,
            tile,
            bucket_a,
            bucket_b,
            scratch,
            &mut |x, y| {
                candidates += 1;
                sink.pair(x, y);
            },
        )
    };
    TileOutcome {
        tile,
        candidates,
        pair_tests,
        dedup_skipped,
    }
}

/// The funneled driver's per-tile step: [`sweep_into`] with a
/// pair-collecting sink, so both drivers share one sweep-and-account
/// implementation.
fn run_tile(
    dispatch: KernelDispatch,
    grid: &Grid,
    tile: usize,
    bucket_a: &mut [(Rect, ObjectId)],
    bucket_b: &mut [(Rect, ObjectId)],
    scratch: &mut SweepScratch,
    result: &mut TileResult,
) {
    let mut pairs = Vec::new();
    let outcome = sweep_into(
        dispatch,
        grid,
        tile,
        bucket_a,
        bucket_b,
        scratch,
        &mut |x: ObjectId, y: ObjectId| pairs.push((x, y)),
    );
    *result = TileResult {
        pairs,
        pair_tests: outcome.pair_tests,
        dedup_skipped: outcome.dedup_skipped,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use msj_geom::FnConsumer;
    use std::sync::Mutex;

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

    /// A consumer whose sinks collect into a shared mutex-guarded vec —
    /// enough to observe the union of all workers' pairs.
    struct Collecting {
        pairs: Mutex<Vec<(ObjectId, ObjectId)>>,
        attaches: Mutex<usize>,
    }

    impl Collecting {
        fn new() -> Self {
            Collecting {
                pairs: Mutex::new(Vec::new()),
                attaches: Mutex::new(0),
            }
        }
    }

    impl msj_geom::PairConsumer for Collecting {
        fn attach(&self) -> Box<dyn msj_geom::PairSink + '_> {
            *self.attaches.lock().unwrap() += 1;
            struct Sink<'a> {
                owner: &'a Collecting,
                local: Vec<(ObjectId, ObjectId)>,
            }
            impl msj_geom::PairSink for Sink<'_> {
                fn pair(&mut self, a: ObjectId, b: ObjectId) {
                    self.local.push((a, b));
                }
            }
            impl Drop for Sink<'_> {
                fn drop(&mut self) {
                    self.owner.pairs.lock().unwrap().append(&mut self.local);
                }
            }
            Box::new(Sink {
                owner: self,
                local: Vec::new(),
            })
        }
    }

    /// [`partition_join_workers`]: detected dispatch, no telemetry, no token.
    fn workers_join(
        a: &[(Rect, ObjectId)],
        b: &[(Rect, ObjectId)],
        tiles_per_axis: usize,
        workers: usize,
        batch: usize,
        consumer: &dyn PairConsumer,
    ) -> PartitionStats {
        let auto = KernelDispatch::auto();
        partition_join_workers(
            auto,
            a,
            b,
            tiles_per_axis,
            workers,
            batch,
            consumer,
            None,
            None,
        )
    }

    #[test]
    fn cancelled_worker_join_stops_at_tile_boundaries() {
        let a = grid_items(10, 0.0, 8.0);
        let b = grid_items(10, 4.0, 8.0);
        let expect = reference(&a, &b);

        // Pre-cancelled: no tiles sweep, no pairs arrive, stats stay
        // well-formed.
        for workers in [1usize, 4] {
            let token = CancelToken::new();
            token.cancel();
            let consumer = Collecting::new();
            let stats = partition_join_workers(
                KernelDispatch::auto(),
                &a,
                &b,
                4,
                workers,
                7,
                &consumer,
                None,
                Some(&token),
            );
            assert!(consumer.pairs.into_inner().unwrap().is_empty());
            assert_eq!(stats.candidates(), 0, "workers {workers}");
        }

        // Cancelled mid-run from a sink: the delivered pairs are a
        // subset of the full join (tiles that completed before the poll).
        let token = CancelToken::new();
        struct CancelAfter<'t> {
            token: &'t CancelToken,
            seen: Mutex<Vec<(ObjectId, ObjectId)>>,
        }
        impl msj_geom::PairConsumer for CancelAfter<'_> {
            fn attach(&self) -> Box<dyn msj_geom::PairSink + '_> {
                let token = self.token;
                let seen = &self.seen;
                Box::new(move |x: ObjectId, y: ObjectId| {
                    let mut guard = seen.lock().unwrap();
                    guard.push((x, y));
                    if guard.len() == 8 {
                        token.cancel();
                    }
                })
            }
        }
        let consumer = CancelAfter {
            token: &token,
            seen: Mutex::new(Vec::new()),
        };
        partition_join_workers(
            KernelDispatch::auto(),
            &a,
            &b,
            4,
            1,
            7,
            &consumer,
            None,
            Some(&token),
        );
        let got = sorted(consumer.seen.into_inner().unwrap());
        assert!(!got.is_empty());
        assert!(got.len() < expect.len(), "stopped before completion");
        assert!(got.iter().all(|p| expect.binary_search(p).is_ok()));
    }

    #[test]
    fn worker_panic_is_reraised_as_structured_payload() {
        let a = grid_items(10, 0.0, 8.0);
        let b = grid_items(10, 4.0, 8.0);
        struct Exploding;
        impl msj_geom::PairConsumer for Exploding {
            fn attach(&self) -> Box<dyn msj_geom::PairSink + '_> {
                Box::new(|_: ObjectId, _: ObjectId| panic!("sink exploded"))
            }
        }
        let caught = std::panic::catch_unwind(|| {
            workers_join(&a, &b, 4, 4, 7, &Exploding);
        })
        .expect_err("worker panic must propagate");
        let wp = caught
            .downcast_ref::<msj_geom::WorkerPanic>()
            .expect("structured WorkerPanic payload");
        assert!(wp.worker < 4, "worker index in range, got {}", wp.worker);
        assert_eq!(wp.message, "sink exploded");
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
    fn worker_delivery_matches_the_funneled_join() {
        let a = grid_items(8, 0.0, 9.5);
        let b = grid_items(8, 3.0, 9.5);
        let mut funneled = Vec::new();
        let funneled_stats = partition_join(&a, &b, 4, 1, |x, y| funneled.push((x, y)));
        for workers in [1usize, 2, 3, 8, 64] {
            let consumer = Collecting::new();
            let stats = workers_join(&a, &b, 4, workers, 7, &consumer);
            let got = consumer.pairs.into_inner().unwrap();
            assert_eq!(sorted(got), sorted(funneled.clone()), "workers {workers}");
            // Stats are worker-count invariant, tile detail included.
            assert_eq!(stats.tile_candidates, funneled_stats.tile_candidates);
            assert_eq!(stats.pair_tests, funneled_stats.pair_tests);
            assert_eq!(stats.dedup_skipped, funneled_stats.dedup_skipped);
            // One sink per worker, clamped to the tile count.
            assert_eq!(stats.threads, workers.min(16));
            assert_eq!(*consumer.attaches.lock().unwrap(), stats.threads);
        }

        // With telemetry, every candidate is accounted to exactly one
        // backend lane; peaks bound the busiest tile.
        for workers in [1usize, 3, 8] {
            let telemetry = WorkerTelemetry::new(workers);
            let consumer = Collecting::new();
            let stats = partition_join_workers(
                KernelDispatch::auto(),
                &a,
                &b,
                4,
                workers,
                7,
                &consumer,
                Some(&telemetry),
                None,
            );
            let lanes = telemetry.snapshot();
            let backend_pairs: u64 = lanes
                .iter()
                .filter(|l| l.role == msj_obs::LaneRole::Backend)
                .map(|l| l.pairs)
                .sum();
            let backend_batches: u64 = lanes
                .iter()
                .filter(|l| l.role == msj_obs::LaneRole::Backend)
                .map(|l| l.batches)
                .sum();
            let peak = lanes.iter().map(|l| l.peak_buffered).max().unwrap();
            assert_eq!(backend_pairs, stats.candidates(), "workers {workers}");
            assert_eq!(backend_batches, stats.tile_candidates.len() as u64);
            assert_eq!(peak, stats.busiest_tile().unwrap().1);
        }
    }

    #[test]
    fn worker_delivery_handles_empty_sides() {
        let a = grid_items(3, 0.0, 8.0);
        let consumer = Collecting::new();
        let stats = workers_join(&a, &[], 4, 4, 16, &consumer);
        assert_eq!(stats.candidates(), 0);
        assert_eq!(stats.threads, 1);
        assert!(consumer.pairs.into_inner().unwrap().is_empty());
    }

    #[test]
    fn worker_delivery_through_fn_consumer_single_worker() {
        let a = grid_items(5, 0.0, 9.0);
        let b = grid_items(5, 4.0, 9.0);
        let mut got = Vec::new();
        let stats = {
            let mut push = |x: ObjectId, y: ObjectId| got.push((x, y));
            let consumer = FnConsumer::new(&mut push);
            workers_join(&a, &b, 3, 1, 4, &consumer)
        };
        assert_eq!(sorted(got), reference(&a, &b));
        assert_eq!(stats.threads, 1);
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
    fn every_dispatch_path_emits_identical_pairs_and_stats() {
        // Large rectangles force replication + dedup; odd counts hit the
        // kernel tails.
        let a = grid_items(7, 0.0, 23.0);
        let b = grid_items(7, 9.0, 23.0);
        type Cell = (Vec<(ObjectId, ObjectId)>, u64, u64);
        let mut reference: Option<Cell> = None;
        for d in KernelDispatch::all_available() {
            let mut got = Vec::new();
            let stats = partition_join_funneled(d, &a, &b, 5, 2, None, |x, y| got.push((x, y)));
            let cell = (got, stats.pair_tests, stats.dedup_skipped);
            match &reference {
                None => reference = Some(cell),
                Some(want) => assert_eq!(&cell, want, "dispatch {}", d.label()),
            }
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

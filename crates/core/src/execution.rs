//! The execution engine: **one** driver for Steps 1–3 of a prepared join
//! (`run_steps`), parameterized by an [`Execution`] policy.
//!
//! * [`Execution::Serial`] — one sink on the calling thread; candidates
//!   stream through filter + exact immediately, in Step-1 order.
//! * [`Execution::Fused`] — Steps 2–3 run *inside* the Step-1 workers
//!   (Tsitsigkos & Mamoulis 2019): each worker thread attaches its own
//!   [`PairSink`] and classifies every candidate the moment it is swept.
//!   No candidate set is ever materialized; the partitioned backend
//!   buffers nothing at all, and the R*-traversal backend buffers at most
//!   a few bounded chunks in flight
//!   ([`MultiStepStats::peak_buffered_candidates`] reports the observed
//!   peak).
//!
//! Both policies produce the identical response set and *exactly* merged
//! operation counts — every counter is a commutative sum over per-worker
//! partials, and the fused response set is canonically sorted — so the
//! property tests can assert `Fused == Serial` bit for bit. Pick
//! `Serial` when Step-1 order matters (debugging, streaming consumers)
//! or the workload is tiny; pick `Fused` on multi-core hardware.

use crate::candidates::CandidateSource;
use crate::filter::{FilterOutcome, FilterScratch, GeometricFilter};
use crate::pipeline::JoinResult;
use crate::stats::MultiStepStats;
use msj_exact::ExactProcessor;
use msj_fault::{FaultAction, FaultSession};
use msj_geom::{resolve_threads, CancelToken, ObjectId, PairConsumer, PairSink, WorkerPanic};
use msj_obs::{Span, Step, StepSpans, WorkerLane, WorkerTelemetry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How the engine schedules Steps 2–3 relative to Step 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Execution {
    /// Stream every candidate through filter + exact on the calling
    /// thread, in Step-1 delivery order. Response pairs keep that order.
    #[default]
    Serial,
    /// Run filter + exact inside the Step-1 workers: `threads` worker
    /// sinks (`0` = available parallelism), each classifying its own
    /// candidate stream. The response set is canonically sorted and
    /// byte-identical to `Serial`'s (after sorting), with exactly-merged
    /// operation counts.
    Fused {
        /// Downstream worker count (0 = available parallelism). The
        /// partitioned backend clamps to its tile count — a tile is the
        /// unit of work.
        threads: usize,
    },
}

// The engine shares the filter and the exact processor read-only across
// all worker threads; per-worker mutability is confined to each sink's
// own `OpCounts`/counters. Keep that property explicit:
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<GeometricFilter>();
    assert_sync::<ExactProcessor<'static>>();
};

/// One worker's accumulated output: its response pairs plus the Step-2/3
/// counters (including its private `exact_ops`).
type Partial = (Vec<(ObjectId, ObjectId)>, MultiStepStats);

/// The engine's pair consumer: every attached sink classifies candidates
/// through the shared filter and exact processor, accumulating into
/// worker-local state that is published on detach (sink drop).
struct FusedConsumer<'a> {
    filter: &'a GeometricFilter,
    exact: &'a ExactProcessor<'a>,
    partials: Mutex<Vec<Partial>>,
    /// Shared per-step wall-clock accumulators of the run (every sink
    /// adds its filter/exact time; relaxed atomics, no contention);
    /// `None` when the run is untimed — no sink then reads a clock.
    spans: Option<&'a StepSpans>,
    /// Per-worker lanes; `None` when the run is untimed.
    telemetry: Option<&'a WorkerTelemetry>,
    /// The run's cooperative cancel token; sinks poll it once per batch
    /// and drop further candidates once it reads cancelled.
    cancel: Option<&'a CancelToken>,
    /// The run's armed fault plan (inert in production); sinks offer it
    /// every batch boundary as an injection site.
    fault: &'a FaultSession,
    /// Requested downstream worker count (the fault plan derives its
    /// target worker modulo this).
    workers: usize,
    /// Attach-order counter — gives every sink a stable worker index
    /// even when telemetry is off.
    attached: AtomicUsize,
}

impl FusedConsumer<'_> {
    fn into_partials(self) -> Vec<Partial> {
        // A sink that panicked mid-batch still published its partial on
        // drop but poisoned the mutex doing so; the data is a plain
        // commutative accumulator, so recover it rather than propagate.
        self.partials
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl PairConsumer for FusedConsumer<'_> {
    fn attach(&self) -> Box<dyn PairSink + '_> {
        Box::new(FusedSink {
            owner: self,
            worker: self.attached.fetch_add(1, Ordering::Relaxed),
            lane: self.telemetry.map(|t| t.attach_consumer()),
            pairs: Vec::new(),
            stats: MultiStepStats::default(),
            outcomes: Vec::new(),
            filter_scratch: FilterScratch::default(),
        })
    }
}

/// One worker's sink: Steps 2–3 fused into the candidate stream.
struct FusedSink<'a> {
    owner: &'a FusedConsumer<'a>,
    /// This sink's attach-order worker index (fault-targeting and panic
    /// attribution).
    worker: usize,
    /// This sink's consumer-side telemetry lane (attach order).
    lane: Option<&'a WorkerLane>,
    pairs: Vec<(ObjectId, ObjectId)>,
    stats: MultiStepStats,
    /// Scratch for batched classification (reused across batches).
    outcomes: Vec<FilterOutcome>,
    filter_scratch: FilterScratch,
}

impl FusedSink<'_> {
    /// Applies one classified outcome: Step-2 bookkeeping, and the Step-3
    /// exact test for the inconclusive pairs.
    #[inline]
    fn apply(&mut self, id_a: ObjectId, id_b: ObjectId, outcome: FilterOutcome) {
        match outcome {
            FilterOutcome::HitRaster => {
                self.stats.raster_hits += 1;
                self.pairs.push((id_a, id_b));
            }
            FilterOutcome::DropRaster => self.stats.raster_drops += 1,
            FilterOutcome::FalseHit => self.stats.filter_false_hits += 1,
            FilterOutcome::HitProgressive => {
                self.stats.filter_hits_progressive += 1;
                self.pairs.push((id_a, id_b));
            }
            FilterOutcome::HitFalseArea => {
                self.stats.filter_hits_false_area += 1;
                self.pairs.push((id_a, id_b));
            }
            FilterOutcome::Candidate => {
                self.stats.exact_tests += 1;
                if self
                    .owner
                    .exact
                    .intersects(id_a, id_b, &mut self.stats.exact_ops)
                {
                    self.stats.exact_hits += 1;
                    self.pairs.push((id_a, id_b));
                }
            }
        }
    }

    /// Applies a classified batch: Step-2/2a counter bookkeeping plus
    /// the Step-3 exact tests — identical work whether timed or not.
    fn apply_batch(&mut self, batch: &[(ObjectId, ObjectId)], outcomes: &[FilterOutcome]) {
        let raster_decided_before = self.stats.raster_hits + self.stats.raster_drops;
        for (&(id_a, id_b), &outcome) in batch.iter().zip(outcomes) {
            self.apply(id_a, id_b, outcome);
        }
        if self.owner.filter.raster_active() {
            let decided = self.stats.raster_hits + self.stats.raster_drops;
            self.stats.raster_inconclusive +=
                batch.len() as u64 - (decided - raster_decided_before);
        }
    }
}

impl PairSink for FusedSink<'_> {
    fn pair(&mut self, id_a: ObjectId, id_b: ObjectId) {
        // Cold path: every production backend batches (the per-pair
        // timing overhead here is acceptable because this is rare).
        self.consume_batch(&[(id_a, id_b)]);
    }

    fn consume_batch(&mut self, batch: &[(ObjectId, ObjectId)]) {
        // Batch boundary: the one injection site and cancellation point
        // shared by every execution policy and backend — a disabled
        // plan costs a single never-taken branch here.
        if self.owner.fault.armed() {
            match self.owner.fault.on_batch(self.worker, self.owner.workers) {
                FaultAction::Proceed => {}
                FaultAction::Panic => std::panic::panic_any(WorkerPanic {
                    worker: self.worker,
                    message: self.owner.fault.panic_message(),
                }),
                FaultAction::Sleep(stall) => std::thread::sleep(stall),
                FaultAction::Cancel => {
                    if let Some(token) = self.owner.cancel {
                        token.cancel();
                    }
                }
            }
        }
        if self.owner.cancel.is_some_and(|c| c.is_cancelled()) {
            // The run is tearing down: drop the batch unprocessed. The
            // Step-1 backend stops producing at its own next boundary.
            return;
        }
        if let Some(lane) = self.lane {
            lane.add_pairs(batch.len() as u64);
            lane.inc_batches();
            lane.record_buffered(batch.len() as u64);
        }
        let mut outcomes = std::mem::take(&mut self.outcomes);
        let (spans, filter) = (self.owner.spans, self.owner.filter);
        // Step 2, batch-wide: one compiled-plan dispatch for the run (the
        // raster prepass reports its own share of the time into the
        // Step-2a span; Step 2 covers it).
        time_step(spans, Step::Step2, || {
            filter.classify_batch_observed(batch, &mut outcomes, &mut self.filter_scratch, spans)
        });
        // Step 3 (plus cheap bookkeeping) for the whole batch.
        time_step(spans, Step::Step3, || self.apply_batch(batch, &outcomes));
        self.outcomes = outcomes;
    }
}

/// Runs `work`, charging its wall-clock to `step` of a timed run; an
/// untimed run does the identical work with zero clock reads.
fn time_step<T>(spans: Option<&StepSpans>, step: Step, work: impl FnOnce() -> T) -> T {
    let Some(spans) = spans else { return work() };
    let start = Span::start();
    let out = work();
    spans.finish(step, start);
    out
}

impl Drop for FusedSink<'_> {
    fn drop(&mut self) {
        let partial = (std::mem::take(&mut self.pairs), self.stats);
        // Runs during unwind too (a panicking worker detaches its sink):
        // never double-panic on a mutex another panicking worker
        // poisoned — the partials are commutative sums, safe to recover.
        self.owner
            .partials
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(partial);
    }
}

/// Runs Steps 1–3 once over prepared Step-0 state — the one driver under
/// [`crate::PreparedJoin`], for every [`Execution`] policy and backend.
///
/// The run polls `cancel` and offers `fault` as an injection site at
/// every batch boundary; a cancelled run returns the partial result it
/// had (the caller reads the token), and a panicking worker unwinds
/// through here as a [`WorkerPanic`] payload for the caller to contain.
/// With `timed` off no clock is read and no telemetry lane is allocated:
/// every `*_nanos` statistic stays zero.
///
/// Re-running is deterministic in everything but the R*-traversal's
/// simulated I/O counters (its LRU buffer stays warm across runs, so
/// later runs report fewer physical reads).
pub(crate) fn run_steps(
    source: &dyn CandidateSource,
    filter: &GeometricFilter,
    exact: &ExactProcessor<'_>,
    execution: Execution,
    timed: bool,
    cancel: Option<&CancelToken>,
    fault: &FaultSession,
) -> JoinResult {
    let (workers, fused) = match execution {
        Execution::Serial => (1, false),
        Execution::Fused { threads } => (resolve_threads(threads), true),
    };

    // The backend feeds candidates to one sink per worker; every sink
    // runs filter + exact immediately.
    let spans = StepSpans::new();
    let telemetry = timed.then(|| WorkerTelemetry::new(workers));
    let consumer = FusedConsumer {
        filter,
        exact,
        partials: Mutex::new(Vec::new()),
        spans: timed.then_some(&spans),
        telemetry: telemetry.as_ref(),
        cancel,
        fault,
        workers,
        attached: AtomicUsize::new(0),
    };
    let t_run = timed.then(Span::start);
    let step1 = source.join_candidates(&consumer, workers, telemetry.as_ref(), cancel);

    // Deterministic merge: all counters are commutative sums, so the
    // worker completion order cannot influence the totals.
    let mut stats = MultiStepStats {
        mbr_join: step1.join,
        partition: step1.partition,
        peak_buffered_candidates: step1.peak_buffered,
        ..MultiStepStats::default()
    };
    let mut pairs: Vec<(ObjectId, ObjectId)> = Vec::new();
    for (p, s) in consumer.into_partials() {
        if pairs.is_empty() {
            // Move the first worker's output — on the serial path
            // (exactly one partial) this is the whole response set.
            pairs = p;
        } else {
            pairs.extend(p);
        }
        stats.raster_hits += s.raster_hits;
        stats.raster_drops += s.raster_drops;
        stats.raster_inconclusive += s.raster_inconclusive;
        stats.filter_false_hits += s.filter_false_hits;
        stats.filter_hits_progressive += s.filter_hits_progressive;
        stats.filter_hits_false_area += s.filter_hits_false_area;
        stats.exact_tests += s.exact_tests;
        stats.exact_hits += s.exact_hits;
        stats.exact_ops.merge(&s.exact_ops);
    }
    if fused {
        // Canonical response order, independent of worker
        // interleaving.
        pairs.sort_unstable();
    }
    // Per-step wall-clock attribution: Step-2/2a/3 times are summed
    // across workers in the shared spans; Step 1 is the residual of
    // the Steps-1–3 wall (exact when serial, a lower bound under
    // fused overlap — see the field docs).
    stats.step2_nanos = spans.get(Step::Step2);
    stats.step2a_nanos = spans.get(Step::Step2a);
    stats.step3_nanos = spans.get(Step::Step3);
    let steps123 = t_run.map_or(0, |t| t.elapsed_nanos());
    stats.step1_nanos = steps123.saturating_sub(stats.step2_nanos + stats.step3_nanos);
    // The largest worker pool that actually ran anywhere in the
    // execution: the engine's own sinks, or the backend's internal
    // tile sweeps when Step 1 parallelized under a serial downstream.
    stats.threads_used = step1
        .workers_fed
        .max(step1.partition.map_or(1, |p| p.threads))
        .max(1);
    stats.result_pairs = pairs.len() as u64;
    JoinResult {
        pairs,
        stats,
        worker_lanes: telemetry.map(|t| t.snapshot()).unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates;
    use crate::config::{Backend, JoinConfig};
    use crate::pipeline::MultiStepJoin;

    fn sorted(mut v: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        v.sort_unstable();
        v
    }

    fn fused(base: JoinConfig, threads: usize) -> JoinConfig {
        JoinConfig {
            execution: Execution::Fused { threads },
            ..base
        }
    }

    #[test]
    fn fused_equals_serial_on_both_backends() {
        let a = msj_datagen::small_carto(40, 24.0, 901);
        let b = msj_datagen::small_carto(40, 24.0, 902);
        for backend in [
            Backend::RStarTraversal,
            Backend::PartitionedSweep {
                tiles_per_axis: 4,
                threads: 2,
            },
        ] {
            let base = JoinConfig {
                backend,
                ..JoinConfig::default()
            };
            let serial = MultiStepJoin::new(base).execute(&a, &b);
            for threads in [1usize, 2, 8] {
                let f = MultiStepJoin::new(fused(base, threads)).execute(&a, &b);
                assert_eq!(
                    sorted(serial.pairs.clone()),
                    f.pairs,
                    "{backend:?} x{threads}"
                );
                assert_eq!(serial.stats.exact_ops, f.stats.exact_ops);
                assert_eq!(serial.stats.exact_tests, f.stats.exact_tests);
                assert_eq!(serial.stats.filter_false_hits, f.stats.filter_false_hits);
            }
        }
    }

    #[test]
    fn fused_reports_actual_worker_count() {
        let a = msj_datagen::small_carto(24, 20.0, 903);
        let b = msj_datagen::small_carto(24, 20.0, 904);
        // R*-traversal: the engine spawns exactly the requested sinks.
        for threads in [1usize, 2, 8] {
            let f = MultiStepJoin::new(fused(JoinConfig::default(), threads)).execute(&a, &b);
            assert_eq!(f.stats.threads_used, threads as u64);
        }
        // Partitioned: clamped to the tile count (1x1 grid → 1 worker).
        let one_tile = JoinConfig {
            backend: Backend::PartitionedSweep {
                tiles_per_axis: 1,
                threads: 1,
            },
            ..JoinConfig::default()
        };
        let f = MultiStepJoin::new(fused(one_tile, 8)).execute(&a, &b);
        assert_eq!(f.stats.threads_used, 1);
    }

    #[test]
    fn serial_reports_backend_internal_threads() {
        // Large enough to clear the partition crate's parallel threshold:
        // the serial pipeline's Step 1 runs internal tile workers, and
        // threads_used must say so.
        let a = msj_datagen::large_relation(3000, 0, 905);
        let b = msj_datagen::large_relation(3000, 1, 905);
        let config = JoinConfig {
            backend: Backend::PartitionedSweep {
                tiles_per_axis: 8,
                threads: 2,
            },
            execution: Execution::Serial,
            ..JoinConfig::default()
        };
        let r = MultiStepJoin::new(config).execute(&a, &b);
        assert_eq!(r.stats.threads_used, 2, "backend tile workers ran");
        // The plain R*-traversal serial pipeline stays single-threaded.
        let r = MultiStepJoin::new(JoinConfig::default()).execute(&a, &b);
        assert_eq!(r.stats.threads_used, 1);
    }

    #[test]
    fn fused_rstar_bounds_the_candidate_buffer() {
        let a = msj_datagen::small_carto(120, 24.0, 906);
        let b = msj_datagen::small_carto(120, 24.0, 907);
        let f = MultiStepJoin::new(fused(JoinConfig::default(), 4)).execute(&a, &b);
        let bound = candidates::fused_buffer_bound(4, JoinConfig::default().batch_pairs);
        assert!(
            f.stats.peak_buffered_candidates <= bound,
            "peak {} exceeds bound {bound}",
            f.stats.peak_buffered_candidates
        );
        // The partitioned backend buffers nothing at all.
        let grid = fused(
            JoinConfig {
                backend: Backend::PartitionedSweep {
                    tiles_per_axis: 4,
                    threads: 2,
                },
                ..JoinConfig::default()
            },
            4,
        );
        let f = MultiStepJoin::new(grid).execute(&a, &b);
        assert_eq!(f.stats.peak_buffered_candidates, 0);
    }
}

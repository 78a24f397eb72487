//! The execution engine: **one** driver for the multi-step join,
//! parameterized by an [`Execution`] policy.
//!
//! Before this engine existed the workspace had two divergent executors —
//! a serial streaming pipeline and a `parallel_join` that materialized
//! the *entire* candidate set into a `Vec` before fanning Steps 2–3 out
//! (a full barrier, paying memory proportional to the candidate count).
//! The engine replaces both:
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

use crate::candidates;
use crate::config::JoinConfig;
use crate::filter::{FilterOutcome, FilterScratch, GeometricFilter};
use crate::pipeline::JoinResult;
use crate::stats::MultiStepStats;
use msj_exact::ExactProcessor;
use msj_fault::{FaultAction, FaultSession};
use msj_geom::{
    panic_message, resolve_threads, CancelReason, CancelToken, ObjectId, PairConsumer, PairSink,
    Relation, WorkerPanic,
};
use msj_obs::{ObsConfig, Span, Step, StepSpans, WorkerLane, WorkerTelemetry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

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

impl Execution {
    /// Fused execution sized for the machine.
    pub fn fused_auto() -> Self {
        Execution::Fused { threads: 0 }
    }
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

/// Why a controlled run ([`ScopedPreparedJoin::try_run_with`]) failed.
/// The engine maps this onto its public [`crate::EngineError`] variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RunError {
    /// The run's cancel token read cancelled (explicitly or because its
    /// deadline expired); the run stopped at a batch boundary.
    Cancelled {
        /// Why the token tripped.
        reason: CancelReason,
        /// Wall-clock since the token was armed.
        elapsed: Duration,
        /// Step-1 candidates delivered before the stop.
        partial_candidates: u64,
    },
    /// A worker thread (or the calling thread's fused sink) panicked;
    /// the panic was contained at the run boundary.
    Panicked {
        /// Attach-order index of the panicking worker.
        worker: usize,
        /// The panic payload, rendered.
        message: String,
    },
}

/// The engine's pair consumer: every attached sink classifies candidates
/// through the shared filter and exact processor, accumulating into
/// worker-local state that is published on detach (sink drop).
struct FusedConsumer<'a> {
    filter: &'a GeometricFilter,
    exact: &'a ExactProcessor<'a>,
    partials: Mutex<Vec<Partial>>,
    /// Shared per-step wall-clock accumulators of the run (every sink
    /// adds its filter/exact time; relaxed atomics, no contention).
    spans: &'a StepSpans,
    /// Per-worker lanes; `None` when observability is disabled.
    telemetry: Option<&'a WorkerTelemetry>,
    /// Whether sinks read the clock at all
    /// ([`msj_obs::ObsConfig::enabled`]).
    timed: bool,
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

impl<'a> FusedConsumer<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        filter: &'a GeometricFilter,
        exact: &'a ExactProcessor<'a>,
        spans: &'a StepSpans,
        telemetry: Option<&'a WorkerTelemetry>,
        timed: bool,
        cancel: Option<&'a CancelToken>,
        fault: &'a FaultSession,
        workers: usize,
    ) -> Self {
        FusedConsumer {
            filter,
            exact,
            partials: Mutex::new(Vec::new()),
            spans,
            telemetry,
            timed,
            cancel,
            fault,
            workers,
            attached: AtomicUsize::new(0),
        }
    }

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
        let spans = self.owner.spans;
        if self.owner.timed {
            // Step 2, batch-wide: one compiled-plan dispatch for the run
            // (the raster prepass reports its own share of the time into
            // the Step-2a span; Step 2 covers it).
            let t_filter = Span::start();
            self.owner.filter.classify_batch_observed(
                batch,
                &mut outcomes,
                &mut self.filter_scratch,
                Some(spans),
            );
            spans.finish(Step::Step2, t_filter);
            // Step 3 (plus cheap bookkeeping) for the whole batch.
            let t_exact = Span::start();
            self.apply_batch(batch, &outcomes);
            spans.finish(Step::Step3, t_exact);
        } else {
            // Observability off: the identical work, zero clock reads.
            self.owner.filter.classify_batch_observed(
                batch,
                &mut outcomes,
                &mut self.filter_scratch,
                None,
            );
            self.apply_batch(batch, &outcomes);
        }
        self.outcomes = outcomes;
    }
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

/// A join with Step 0 (preprocessing, the paper's "insertion time") done:
/// the Step-1 candidate source, the approximation stores and the
/// exact-step object representations are built, and Steps 1–3 can run —
/// repeatedly, under any [`Execution`] policy — without paying that cost
/// again. Built by [`crate::MultiStepJoin::prepare`] (borrowed, scoped to
/// the relations) or assembled by the resident engine from `Arc`-shared
/// Step-0 state (`ScopedPreparedJoin<'static>`, the payload of the owned
/// [`crate::PreparedJoin`]).
///
/// Every run takes `&self` — per-run mutability lives inside the
/// candidate source — so a prepared join can serve concurrent callers.
/// Re-running is deterministic in everything but the R*-traversal's
/// simulated I/O counters (its LRU buffer stays warm across runs, so
/// later runs report fewer physical reads).
pub struct ScopedPreparedJoin<'a> {
    execution: Execution,
    source: Box<dyn candidates::CandidateSource + 'a>,
    filter: GeometricFilter,
    exact: ExactProcessor<'a>,
    /// Step-0 wall-clock, attached to every run's statistics.
    step0_nanos: u64,
    /// Whether runs read clocks and collect worker telemetry.
    obs: ObsConfig,
}

impl<'a> ScopedPreparedJoin<'a> {
    /// Assembles a prepared join from already-built components (the
    /// resident engine's path — Step 0 ran at dataset registration).
    pub(crate) fn from_parts(
        execution: Execution,
        source: Box<dyn candidates::CandidateSource + 'a>,
        filter: GeometricFilter,
        exact: ExactProcessor<'a>,
        step0_nanos: u64,
        obs: ObsConfig,
    ) -> Self {
        ScopedPreparedJoin {
            execution,
            source,
            filter,
            exact,
            step0_nanos,
            obs,
        }
    }

    /// The execution policy configured at preparation.
    pub fn execution(&self) -> Execution {
        self.execution
    }

    /// Runs Steps 1–3 under the policy configured at preparation.
    pub fn run(&self) -> JoinResult {
        self.run_with(self.execution)
    }

    /// Runs Steps 1–3 under an explicit policy (the preparation is
    /// policy-independent).
    pub fn run_with(&self, execution: Execution) -> JoinResult {
        let fault = FaultSession::inert();
        self.run_controlled(execution, None, &fault)
    }

    /// [`run_with`](Self::run_with) that can fail: the run polls `cancel`
    /// at every batch boundary, offers `fault` every batch as an
    /// injection site, and catches worker panics at the join boundary —
    /// a panicking worker yields [`RunError::Panicked`] instead of
    /// unwinding through the caller, leaving the prepared join reusable.
    pub(crate) fn try_run_with(
        &self,
        execution: Execution,
        cancel: Option<&CancelToken>,
        fault: &FaultSession,
    ) -> Result<JoinResult, RunError> {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_controlled(execution, cancel, fault)
        }));
        let result = match outcome {
            Ok(result) => result,
            Err(payload) => {
                let panic = match payload.downcast::<WorkerPanic>() {
                    Ok(panic) => *panic,
                    Err(payload) => WorkerPanic {
                        worker: 0,
                        message: panic_message(payload.as_ref()),
                    },
                };
                return Err(RunError::Panicked {
                    worker: panic.worker,
                    message: panic.message,
                });
            }
        };
        if let Some(token) = cancel {
            if let Some(reason) = token.reason() {
                return Err(RunError::Cancelled {
                    reason,
                    elapsed: token.elapsed(),
                    partial_candidates: result.stats.mbr_join.candidates,
                });
            }
        }
        Ok(result)
    }

    fn run_controlled(
        &self,
        execution: Execution,
        cancel: Option<&CancelToken>,
        fault: &FaultSession,
    ) -> JoinResult {
        let (workers, fused) = match execution {
            Execution::Serial => (1, false),
            Execution::Fused { threads } => (resolve_threads(threads), true),
        };

        // Steps 1–3: the backend feeds candidates to one sink per
        // worker; every sink runs filter + exact immediately. With
        // observability disabled the spans stay zero and no clock is
        // ever read — the telemetry lanes are never allocated either.
        let spans = StepSpans::new();
        let telemetry = self.obs.enabled.then(|| WorkerTelemetry::new(workers));
        let consumer = FusedConsumer::new(
            &self.filter,
            &self.exact,
            &spans,
            telemetry.as_ref(),
            self.obs.enabled,
            cancel,
            fault,
            workers,
        );
        let t_run = self.obs.enabled.then(Span::start);
        let step1 =
            self.source
                .join_candidates_controlled(&consumer, workers, telemetry.as_ref(), cancel);

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
        // fused overlap — see the field docs). All zero when
        // observability is disabled.
        stats.step2_nanos = spans.get(Step::Step2);
        stats.step2a_nanos = spans.get(Step::Step2a);
        stats.step3_nanos = spans.get(Step::Step3);
        let steps123 = t_run.map_or(0, |t| t.elapsed_nanos());
        stats.step0_nanos = self.step0_nanos;
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
}

/// Builds a [`ScopedPreparedJoin`]: Step 0 for both relations under
/// `config`.
pub(crate) fn prepare<'a>(
    config: &JoinConfig,
    rel_a: &'a Relation,
    rel_b: &'a Relation,
) -> ScopedPreparedJoin<'a> {
    let t_prep = config.obs.enabled.then(Instant::now);
    let source = candidates::join_source(config, rel_a, rel_b);
    let filter = GeometricFilter::from_config(config, rel_a, rel_b);
    let exact = ExactProcessor::new(config.exact, rel_a, rel_b);
    ScopedPreparedJoin {
        execution: config.execution,
        source,
        filter,
        exact,
        step0_nanos: t_prep.map_or(0, |t| t.elapsed().as_nanos() as u64),
        obs: config.obs,
    }
}

/// Runs the full three-step join of `rel_a` with `rel_b` under the
/// configured [`Execution`] policy — the entry point behind
/// [`crate::MultiStepJoin::execute`].
pub(crate) fn run_join(config: &JoinConfig, rel_a: &Relation, rel_b: &Relation) -> JoinResult {
    prepare(config, rel_a, rel_b).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Backend;
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

    #[test]
    fn prepared_join_runs_repeatedly_under_any_policy() {
        let a = msj_datagen::small_carto(30, 20.0, 908);
        let b = msj_datagen::small_carto(30, 20.0, 909);
        let join = MultiStepJoin::new(JoinConfig::default());
        let reference = join.execute(&a, &b);
        let prepared = join.prepare(&a, &b);
        let serial = prepared.run();
        assert_eq!(serial.pairs, reference.pairs);
        // Same preparation, different policies: identical response sets.
        for threads in [1usize, 2, 8] {
            let f = prepared.run_with(Execution::Fused { threads });
            assert_eq!(f.pairs, sorted(reference.pairs.clone()), "x{threads}");
            assert_eq!(f.stats.exact_ops, reference.stats.exact_ops);
        }
        // And a repeat serial run still agrees (warm buffer, same set).
        assert_eq!(prepared.run().pairs, reference.pairs);
    }

    #[test]
    fn fused_auto_resolves_to_available_parallelism() {
        assert_eq!(Execution::default(), Execution::Serial);
        let Execution::Fused { threads } = Execution::fused_auto() else {
            panic!("fused_auto must be fused");
        };
        assert_eq!(threads, 0);
    }
}

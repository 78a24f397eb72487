//! The execution engine: **one** driver for Steps 1–3 of a prepared join
//! (`run_steps`), parameterized by an [`Execution`] policy — and the only
//! place in the workspace that spawns threads for Steps 2–3.
//!
//! Step 1 is a serial producer whatever the backend: a
//! [`CandidateSource`] delivers its candidate batches on the calling
//! thread. The policy decides where they are classified:
//!
//! * [`Execution::Serial`] — by one sink on the calling thread, the
//!   moment they are delivered, in Step-1 order.
//! * [`Execution::Fused`] — by a pool of sinks fed through one bounded
//!   queue (the paper's §6 outlook; Steps 2–3 are embarrassingly
//!   parallel over candidate batches): `threads − 1` spawned sink
//!   threads plus the calling thread, which classifies a batch itself
//!   whenever the queue is full and drains the queue with the others
//!   once Step 1 is done. Whichever sink is idle takes the next batch,
//!   so a hot tile or a slow batch never pins Steps 2–3 to one thread,
//!   and Step 1 never waits on them. At most [`fused_buffer_bound`]
//!   candidates are in flight
//!   ([`MultiStepStats::peak_buffered_candidates`] reports the observed
//!   peak); the executor never holds the candidate set.
//!
//! Both policies produce the identical response set and *exactly* merged
//! operation counts — every counter is a commutative sum over per-sink
//! partials, and the fused response set is canonically sorted — so the
//! property tests can assert `Fused == Serial` bit for bit. Pick
//! `Serial` when Step-1 order matters (debugging, streaming consumers)
//! or the workload is tiny; pick `Fused` on multi-core hardware.

use crate::candidates::{CandidateSource, Step1Stats};
use crate::filter::{FilterOutcome, GeometricFilter};
use crate::pipeline::JoinResult;
use crate::stats::MultiStepStats;
use msj_exact::{ExactProcessor, ExactTester};
use msj_fault::{FaultAction, FaultSession};
use msj_geom::{panic_message, resolve_threads, CancelToken, ObjectId, PairSink, WorkerPanic};
use msj_obs::{Span, Step, StepSpans, WorkerLane, WorkerTelemetry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};

/// How the engine schedules Steps 2–3 relative to Step 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Execution {
    /// Stream every candidate through filter + exact on the calling
    /// thread, in Step-1 delivery order. Response pairs keep that order.
    #[default]
    Serial,
    /// Run filter + exact on a pool of sinks fed from Step 1 as it
    /// produces. The response set is canonically sorted and
    /// byte-identical to `Serial`'s (after sorting), with exactly-merged
    /// operation counts.
    Fused {
        /// Steps-2–3 sinks, whatever the backend (0 = available
        /// parallelism): the calling thread plus `threads − 1` spawned
        /// threads, so 1 classifies on the calling thread alone. Step 1's
        /// own threads are the backend's setting
        /// (`Backend::PartitionedSweep::threads`).
        threads: usize,
    },
}

/// Bounded-queue depth per sink of the fused fan-out. Together
/// with the configured batch size this caps the candidates in flight —
/// see [`fused_buffer_bound`].
pub const FUSED_QUEUE_DEPTH: usize = 4;

/// Upper bound on candidates buffered between Step 1 and `workers` fused
/// sinks fed in batches of at most `batch` pairs: the queue full
/// ([`FUSED_QUEUE_DEPTH`] batches per sink) plus one batch in every
/// sink's hands, and one more for slack. Holds for both backends; a
/// serial run buffers nothing.
pub const fn fused_buffer_bound(workers: usize, batch: usize) -> u64 {
    (workers * (FUSED_QUEUE_DEPTH + 1) * batch + batch) as u64
}

// The engine shares the filter and the exact tester read-only across
// all sink threads; per-sink mutability is confined to each sink's own
// `OpCounts`/counters. Keep that property explicit:
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<GeometricFilter>();
    assert_sync::<ExactTester<'static>>();
};

type Pair = (ObjectId, ObjectId);

/// One sink's accumulated output: its response pairs plus the Step-2/3
/// counters (including its private `exact_ops`).
type Partial = (Vec<Pair>, MultiStepStats);

/// What every sink of one run shares, read-only.
struct Shared<'a> {
    filter: &'a GeometricFilter,
    exact: ExactTester<'a>,
    /// Per-step wall-clock accumulators of the run (every sink adds its
    /// filter/exact time; relaxed atomics, no contention); `None` when
    /// the run is untimed — no sink then reads a clock.
    spans: Option<&'a StepSpans>,
    /// The run's lanes; `None` when the run is untimed.
    telemetry: Option<&'a WorkerTelemetry>,
    /// The run's cooperative cancel token; sinks poll it once per batch
    /// and drop further candidates once it reads cancelled.
    cancel: Option<&'a CancelToken>,
    /// The run's armed fault plan (inert in production); sinks offer it
    /// every batch boundary as an injection site.
    fault: &'a FaultSession,
    /// Sink count of the run (1 = the calling thread's sink only).
    workers: usize,
}

/// One sink: Steps 2–3 on every candidate batch it is handed.
struct FusedSink<'a> {
    shared: &'a Shared<'a>,
    /// This sink's worker index (fault site, panic attribution, lane).
    worker: usize,
    lane: Option<&'a WorkerLane>,
    pairs: Vec<Pair>,
    stats: MultiStepStats,
    /// Scratch for batched classification (reused across batches).
    outcomes: Vec<FilterOutcome>,
}

impl<'a> FusedSink<'a> {
    fn new(shared: &'a Shared<'a>, worker: usize) -> Self {
        FusedSink {
            shared,
            worker,
            lane: shared.telemetry.map(|t| t.consumer(worker)),
            pairs: Vec::new(),
            stats: MultiStepStats::default(),
            outcomes: Vec::new(),
        }
    }

    fn into_partial(self) -> Partial {
        (self.pairs, self.stats)
    }

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
                    .shared
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
    fn apply_batch(&mut self, batch: &[Pair], outcomes: &[FilterOutcome]) {
        let raster_decided_before = self.stats.raster_hits + self.stats.raster_drops;
        for (&(id_a, id_b), &outcome) in batch.iter().zip(outcomes) {
            self.apply(id_a, id_b, outcome);
        }
        if self.shared.filter.raster_active() {
            let decided = self.stats.raster_hits + self.stats.raster_drops;
            self.stats.raster_inconclusive +=
                batch.len() as u64 - (decided - raster_decided_before);
        }
    }
}

impl PairSink for FusedSink<'_> {
    fn pair(&mut self, id_a: ObjectId, id_b: ObjectId) {
        // Cold path: every backend delivers batches.
        self.consume_batch(&[(id_a, id_b)]);
    }

    fn consume_batch(&mut self, batch: &[Pair]) {
        // Batch boundary: the one injection site and cancellation point
        // shared by every execution policy and backend — a disabled
        // plan costs a single never-taken branch here.
        let shared = self.shared;
        if shared.fault.armed() {
            match shared.fault.on_batch(self.worker, shared.workers) {
                FaultAction::Proceed => {}
                FaultAction::Panic => std::panic::panic_any(WorkerPanic {
                    worker: self.worker,
                    message: shared.fault.panic_message(),
                }),
                FaultAction::Sleep(stall) => std::thread::sleep(stall),
                FaultAction::Cancel => {
                    if let Some(token) = shared.cancel {
                        token.cancel();
                    }
                }
            }
        }
        if shared.cancel.is_some_and(|c| c.is_cancelled()) {
            // The run is tearing down: drop the batch unprocessed. The
            // Step-1 backend stops producing at its own next boundary.
            return;
        }
        if let Some(lane) = self.lane {
            lane.record_batch(batch.len() as u64);
        }
        let mut outcomes = std::mem::take(&mut self.outcomes);
        let (spans, filter) = (shared.spans, shared.filter);
        // Step 2, batch-wide: one compiled-plan dispatch for the run (the
        // raster prepass reports its own share of the time into the
        // Step-2a span; Step 2 covers it).
        time_step(spans, Step::Step2, || {
            filter.classify_batch_observed(batch, &mut outcomes, spans)
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

/// The one sink every backend delivers into: counts each batch once on
/// the producer lane — the batch boundary the executor sees under both
/// policies — then hands it to `next` (the calling thread's sink, or the
/// fan-out's queue).
struct Produced<'a, S> {
    lane: Option<&'a WorkerLane>,
    next: S,
}

impl<S: PairSink> PairSink for Produced<'_, S> {
    fn pair(&mut self, id_a: ObjectId, id_b: ObjectId) {
        self.consume_batch(&[(id_a, id_b)]);
    }

    fn consume_batch(&mut self, batch: &[Pair]) {
        if let Some(lane) = self.lane {
            lane.record_batch(batch.len() as u64);
        }
        self.next.consume_batch(batch);
    }
}

/// The sink pool's end of the fan-out's queue.
struct Pool {
    /// `mpsc::Receiver` is single-consumer; the mutex turns it into a
    /// shared work queue (locked per batch, not per pair). Poison is
    /// ignored: a panicking sink must not take the queue down with it.
    rx: Mutex<mpsc::Receiver<Vec<Pair>>>,
    /// Emptied chunks go back to the producer: steady state allocates
    /// nothing.
    recycle: mpsc::Sender<Vec<Pair>>,
    /// Candidates queued or in a sink thread's hands right now.
    buffered: AtomicU64,
}

impl Pool {
    fn next(&self) -> Option<Vec<Pair>> {
        self.rx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv()
            .ok()
    }

    /// Classifies queued batches with `sink` until the queue is closed
    /// and empty.
    fn drain(&self, sink: &mut FusedSink<'_>) {
        while let Some(mut chunk) = self.next() {
            sink.consume_batch(&chunk);
            self.buffered
                .fetch_sub(chunk.len() as u64, Ordering::Relaxed);
            chunk.clear();
            let _ = self.recycle.send(chunk); // the producer may be done
        }
    }
}

/// The fan-out's producer end on the calling thread: each batch is
/// copied into a recycled chunk and queued for whichever sink thread is
/// idle — or, when the queue is full, classified right here by the
/// calling thread's own sink instead of waiting for room.
struct Feeder<'a, 'q> {
    queue: mpsc::SyncSender<Vec<Pair>>,
    recycled: mpsc::Receiver<Vec<Pair>>,
    pool: &'q Pool,
    peak: u64,
    local: FusedSink<'a>,
}

impl PairSink for Feeder<'_, '_> {
    fn pair(&mut self, id_a: ObjectId, id_b: ObjectId) {
        self.consume_batch(&[(id_a, id_b)]);
    }

    fn consume_batch(&mut self, batch: &[Pair]) {
        let mut chunk = self.recycled.try_recv().unwrap_or_default();
        chunk.extend_from_slice(batch);
        let n = batch.len() as u64;
        let now = self.pool.buffered.fetch_add(n, Ordering::Relaxed) + n;
        match self.queue.try_send(chunk) {
            Ok(()) => self.peak = self.peak.max(now),
            Err(mpsc::TrySendError::Full(mut chunk)) => {
                self.pool.buffered.fetch_sub(n, Ordering::Relaxed);
                self.local.consume_batch(batch);
                chunk.clear();
                let _ = self.pool.recycle.send(chunk);
            }
            Err(mpsc::TrySendError::Disconnected(_)) => {
                unreachable!("the queue's receiver outlives the feeder")
            }
        }
    }
}

/// Step 1 on the calling thread feeding `shared.workers` sinks — the
/// calling thread's own and `workers − 1` spawned threads — through one
/// bounded queue; returns Step 1's statistics, every sink's partial and
/// the peak of candidates queued or in a sink thread's hands.
///
/// Step 1 never waits on the queue (a full queue means the calling
/// thread classifies the batch itself), and once it is done the calling
/// thread drains the queue alongside the sink threads. A sink thread
/// that panics stops; the first such panic is re-raised on the calling
/// thread as a [`WorkerPanic`] once every thread has joined.
fn fan_out(
    source: &dyn CandidateSource,
    shared: &Shared<'_>,
    producer: Option<&WorkerLane>,
) -> (Step1Stats, Vec<Partial>, u64) {
    let (queue, rx) = mpsc::sync_channel(shared.workers * FUSED_QUEUE_DEPTH);
    let (recycle, recycled) = mpsc::channel();
    let pool = Pool {
        rx: Mutex::new(rx),
        recycle,
        buffered: AtomicU64::new(0),
    };
    let caught: Mutex<Option<WorkerPanic>> = Mutex::new(None);
    let out = std::thread::scope(|scope| {
        let threads: Vec<_> = (1..shared.workers)
            .map(|worker| {
                let (pool, caught) = (&pool, &caught);
                scope.spawn(move || {
                    let mut sink = FusedSink::new(shared, worker);
                    let run = catch_unwind(AssertUnwindSafe(|| pool.drain(&mut sink)));
                    if let Err(panic) = run {
                        let mut slot = caught.lock().unwrap_or_else(PoisonError::into_inner);
                        slot.get_or_insert(WorkerPanic {
                            worker,
                            message: panic_message(panic.as_ref()),
                        });
                    }
                    sink.into_partial()
                })
            })
            .collect();
        let mut feeder = Produced {
            lane: producer,
            next: Feeder {
                queue,
                recycled,
                pool: &pool,
                peak: 0,
                local: FusedSink::new(shared, 0),
            },
        };
        let step1 = source.join_candidates(&mut feeder, shared.cancel);
        let Feeder {
            queue,
            mut local,
            peak,
            ..
        } = feeder.next;
        drop(queue); // closes the queue: everyone drains what is left
        pool.drain(&mut local);
        let partials = std::iter::once(local.into_partial())
            .chain(
                threads
                    .into_iter()
                    .map(|t| t.join().expect("sink panics are caught")),
            )
            .collect();
        (step1, partials, peak)
    });
    if let Some(panic) = caught.into_inner().unwrap_or_else(PoisonError::into_inner) {
        std::panic::resume_unwind(Box::new(panic));
    }
    out
}

/// Runs Steps 1–3 once over prepared Step-0 state — the one driver under
/// [`crate::PreparedJoin`], for every [`Execution`] policy and backend.
///
/// The run polls `cancel` and offers `fault` as an injection site at
/// every batch boundary; a cancelled run returns the partial result it
/// had, unsorted (the caller reads the token), and a panicking sink unwinds
/// through here as a [`WorkerPanic`] payload for the caller to contain.
/// With `timed` off no clock is read and no telemetry lane is allocated:
/// every `*_nanos` statistic stays zero.
///
/// Re-running is deterministic in everything but the `*_nanos` and, under
/// `Fused`, `peak_buffered_candidates`; Step 1 shares no mutable state,
/// so runs of one source may overlap on any number of threads.
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
    let spans = StepSpans::new();
    let telemetry = timed.then(|| WorkerTelemetry::new(workers));
    let shared = Shared {
        filter,
        exact: exact.tester(),
        spans: timed.then_some(&spans),
        telemetry: telemetry.as_ref(),
        cancel,
        fault,
        workers,
    };
    let producer = telemetry.as_ref().map(|t| t.producer());
    let t_run = timed.then(Span::start);
    let (step1, partials, peak_buffered) = if workers <= 1 {
        // One sink on the calling thread: every batch is classified
        // where Step 1 delivers it, and nothing is buffered.
        let mut sink = Produced {
            lane: producer,
            next: FusedSink::new(&shared, 0),
        };
        let step1 = source.join_candidates(&mut sink, cancel);
        (step1, vec![sink.next.into_partial()], 0)
    } else {
        fan_out(source, &shared, producer)
    };

    // Deterministic merge: all counters are commutative sums, so the
    // sink completion order cannot influence the totals.
    let mut stats = MultiStepStats {
        mbr_join: step1.join,
        partition: step1.partition,
        peak_buffered_candidates: peak_buffered,
        ..MultiStepStats::default()
    };
    let mut pairs: Vec<Pair> = Vec::new();
    for (p, s) in partials {
        if pairs.is_empty() {
            // Move the first sink's output — on the serial path
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
    if fused && !cancel.is_some_and(|c| c.is_cancelled()) {
        // Canonical response order, independent of sink interleaving. A
        // cancelled run's pairs are about to be discarded: sorting them
        // would only lengthen the overshoot past its deadline.
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
    // The larger thread pool of the run: the executor's sinks, or the
    // grid backend's Step-1 tile sweeps.
    stats.threads_used = (workers as u64).max(step1.partition.map_or(1, |p| p.threads));
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

    fn one_tile_grid() -> JoinConfig {
        JoinConfig {
            backend: Backend::PartitionedSweep {
                tiles_per_axis: 1,
                threads: 1,
            },
            ..JoinConfig::default()
        }
    }

    /// `Fused { threads }` means that many Steps-2–3 sinks on either
    /// backend, however few tiles the grid has.
    #[test]
    fn fused_runs_every_requested_sink_on_both_backends() {
        let a = msj_datagen::small_carto(24, 20.0, 903);
        let b = msj_datagen::small_carto(24, 20.0, 904);
        for base in [JoinConfig::default(), one_tile_grid()] {
            let serial = MultiStepJoin::new(base).execute(&a, &b);
            for threads in [1usize, 2, 4, 8] {
                let f = MultiStepJoin::new(fused(base, threads)).execute(&a, &b);
                let label = format!("{:?} x{threads}", base.backend);
                assert_eq!(f.stats.threads_used, threads as u64, "{label}");
                assert_eq!(sorted(serial.pairs.clone()), f.pairs, "{label}");
                assert_eq!(serial.stats.exact_ops, f.stats.exact_ops, "{label}");
            }
        }
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

    /// The fan-out buffers a bounded number of candidates, whichever
    /// backend feeds it; the serial policy buffers none.
    #[test]
    fn fused_buffer_stays_under_its_bound_on_both_backends() {
        let a = msj_datagen::small_carto(120, 24.0, 906);
        let b = msj_datagen::small_carto(120, 24.0, 907);
        let grid = JoinConfig {
            backend: Backend::PartitionedSweep {
                tiles_per_axis: 4,
                threads: 2,
            },
            ..JoinConfig::default()
        };
        let bound = fused_buffer_bound(4, JoinConfig::default().batch_pairs);
        for base in [JoinConfig::default(), grid] {
            let label = format!("{:?}", base.backend);
            let serial = MultiStepJoin::new(base).execute(&a, &b);
            assert_eq!(serial.stats.peak_buffered_candidates, 0, "{label}");
            let f = MultiStepJoin::new(fused(base, 4)).execute(&a, &b);
            let peak = f.stats.peak_buffered_candidates;
            assert!(
                peak > 0 && peak <= bound,
                "{label}: peak {peak}, bound {bound}"
            );
        }
    }
}

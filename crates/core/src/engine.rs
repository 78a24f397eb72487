//! The resident engine: registered datasets, owned prepared joins, and a
//! unified query-serving surface.
//!
//! The paper's whole economy is that Step-0 preprocessing — R*-trees,
//! approximation stores, raster signatures, TR*-tree object
//! representations — is built *once* and amortized over many executions
//! ("time and storage is invested in the representation of the spatial
//! objects", §4.2). A [`SpatialEngine`] makes that shape first-class:
//!
//! * [`SpatialEngine::register`] runs Step 0 for one relation and
//!   **owns** the result behind [`Arc`] — the returned [`DatasetHandle`]
//!   is a cheap, clonable, thread-safe reference;
//! * [`SpatialEngine::prepare_join`] assembles (and caches) an owned
//!   [`PreparedJoin`] — **no borrowed lifetime** — from the two
//!   datasets' shared Step-0 state plus the pair-level raster
//!   signatures; it can be held in an `Arc`, shared across threads, and
//!   re-run indefinitely, each run byte-identical in its response set;
//! * join, self-join, point and window (selection) queries all go
//!   through one [`Request`]/[`Response`] surface —
//!   [`SpatialEngine::submit`] for a single query,
//!   [`SpatialEngine::submit_batch`] for a batch — and every response
//!   carries the §5 cost-model accounting ([`Admission`]): the
//!   admission-time estimate next to the observed breakdown, including
//!   the measured Step-2a decided-rate fed back as an observed
//!   parameter;
//! * execution of join requests is admission-controlled: configure
//!   [`SpatialEngine::with_admission_limit`] and the engine refuses
//!   (with [`EngineError::AdmissionDenied`]) any join whose §5 modeled
//!   cost — from the prepared join's observed history, or the a-priori
//!   estimate before a first run — exceeds the limit.
//!
//! ```
//! use msj_core::{JoinConfig, Request, Response, SpatialEngine};
//!
//! let engine = SpatialEngine::new(JoinConfig::default());
//! let forests = engine.register(msj_datagen::small_carto(24, 20.0, 7));
//! let cities = engine.register(msj_datagen::small_carto(24, 20.0, 8));
//!
//! // A resident prepared join: Step 0 is already paid; every run is
//! // Steps 1–3 only.
//! let prepared = engine.prepare_join(&forests, &cities);
//! let first = prepared.run();
//!
//! // The same join through the serving surface, plus a point probe.
//! let responses = engine.submit_batch([
//!     Request::Join { a: forests.id(), b: cities.id(), execution: None },
//!     Request::Point { dataset: forests.id(), point: msj_geom::Point::new(0.0, 0.0) },
//! ]);
//! let Ok(Response::Join(join)) = &responses[0] else { panic!() };
//! assert_eq!(join.pairs, first.pairs);
//! assert!(responses[1].is_ok());
//! ```

use crate::candidates::{self, SharedStep1};
use crate::config::{Backend, JoinConfig};
use crate::cost::{estimate_cost, figure18_cost, CostBreakdown, CostModelParams, ExactCostKind};
use crate::execution::{Execution, RunError, ScopedPreparedJoin};
use crate::filter::GeometricFilter;
use crate::pipeline::JoinResult;
use crate::queries::{QueryStats, SelectionState};
use crate::stats::MultiStepStats;
use msj_approx::RasterStore;
use msj_approx::{ConservativeStore, ProgressiveStore};
use msj_exact::{ExactAlgorithm, ExactProcessor, OpCounts, TrStarStore};
use msj_fault::{FaultConfig, FaultSession};
use msj_geom::{CancelReason, CancelToken, ObjectId, Point, Rect, RelHandle, Relation};
use msj_obs::{
    Counter, LaneRole, MetricsRegistry, ObsConfig, Span, Step, StepSpans, Trace, TraceRing,
    TraceSteps,
};
use msj_sam::RStarTree;
use msj_store::{Section, Segment, Store};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Identifier of a dataset registered on one engine (assigned in
/// registration order).
pub type DatasetId = u32;

/// One registered dataset: the relation (always resident) plus a
/// residency slot for its Step-0 artifacts.
///
/// The artifacts live behind an `RwLock<Option<…>>` so a store-backed
/// engine can **evict** a cold dataset's artifacts under a byte budget
/// and re-materialize them on next touch — from the persistent store
/// when one is armed (each section's image adopted by `from_bytes`), from
/// the relation otherwise (a full Step-0 rebuild). In-flight work is
/// never invalidated: anything using the artifacts holds the `Arc`, so
/// eviction only drops this state's reference.
struct DatasetState {
    id: DatasetId,
    relation: Arc<Relation>,
    /// Wall-clock of this dataset's share of Step 0 at registration (or
    /// of the store load that materialized it on an opened engine).
    step0_nanos: u64,
    /// Bytes this dataset's artifacts account for under the residency
    /// budget: the segment file size when a store is armed, 0 otherwise
    /// (no store means no budget and no eviction).
    bytes: u64,
    artifacts: RwLock<Option<Arc<DatasetArtifacts>>>,
}

/// Every per-relation Step-0 artifact the engine's configuration calls
/// for, all `Arc`-shared — the evictable half of a [`DatasetState`].
struct DatasetArtifacts {
    /// The paged R*-tree (only under [`Backend::RStarTraversal`]; the
    /// partitioned backend indexes lazily inside its sources).
    tree: Option<Arc<RStarTree>>,
    conservative: Option<Arc<ConservativeStore>>,
    progressive: Option<Arc<ProgressiveStore>>,
    /// TR*-tree object representations (only when the exact step is
    /// [`ExactAlgorithm::TrStar`]).
    trstar: Option<Arc<TrStarStore>>,
    /// Resident selection state serving point/window queries.
    selection: SelectionState<'static>,
}

/// A cheap, clonable, thread-safe reference to a registered dataset.
#[derive(Clone)]
pub struct DatasetHandle {
    state: Arc<DatasetState>,
}

impl DatasetHandle {
    /// The dataset's engine-assigned id (what [`Request`]s name).
    pub fn id(&self) -> DatasetId {
        self.state.id
    }

    /// The registered relation.
    pub fn relation(&self) -> &Arc<Relation> {
        &self.state.relation
    }

    /// Objects in the relation.
    pub fn len(&self) -> usize {
        self.state.relation.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.state.relation.is_empty()
    }

    /// Nanoseconds spent on this dataset's Step-0 preprocessing at
    /// registration.
    pub fn step0_nanos(&self) -> u64 {
        self.state.step0_nanos
    }
}

impl std::fmt::Debug for DatasetHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DatasetHandle")
            .field("id", &self.state.id)
            .field("objects", &self.state.relation.len())
            .finish()
    }
}

/// Per-run statistics a [`PreparedJoin`] retains as admission history
/// ([`PreparedJoin::run_history`]).
pub const RUN_HISTORY: usize = 32;

/// `reason` labels of `msj_degraded_mode_total`, pre-registered so the
/// family renders at zero from the first scrape.
const DEGRADED_REASONS: [&str; 3] = ["raster_checksum", "fault_injected", "store_corrupt"];

/// `kind` labels of `msj_request_errors_total` — one per
/// [`EngineError`] variant (the canonical list lives on
/// [`EngineError::ALL_KINDS`] so wire mappings outside this crate can
/// assert exhaustiveness).
const ERROR_KINDS: [&str; 6] = EngineError::ALL_KINDS;

/// `site` labels of `msj_fault_injected_total` — the
/// [`msj_fault::FaultKind::site`] names, engine-internal sites and the
/// wire-level sites a network front injects at.
const FAULT_SITES: [&str; 9] = [
    "worker_panic",
    "slow_worker",
    "raster_corrupt",
    "store_corrupt",
    "cancel_at_batch",
    "conn_reset",
    "partial_write",
    "slow_client",
    "drop_before_reply",
];

/// What a registration spends its time on: the four per-dataset
/// Step-0 artifacts and the write-through to the store — the `artifact`
/// labels of `msj_step0_artifact_nanos_total`.
#[derive(Debug, Clone, Copy)]
enum Step0Artifact {
    Tree,
    Conservative,
    Progressive,
    TrStar,
    Persist,
}

impl Step0Artifact {
    const ALL: [Step0Artifact; 5] = [
        Step0Artifact::Tree,
        Step0Artifact::Conservative,
        Step0Artifact::Progressive,
        Step0Artifact::TrStar,
        Step0Artifact::Persist,
    ];

    fn name(self) -> &'static str {
        match self {
            Step0Artifact::Tree => "tree",
            Step0Artifact::Conservative => "conservative",
            Step0Artifact::Progressive => "progressive",
            Step0Artifact::TrStar => "trstar",
            Step0Artifact::Persist => "persist",
        }
    }
}

/// Shared observability state of one engine: the metrics registry plus
/// the trace ring, `Arc`-co-owned by every [`PreparedJoin`] so direct
/// `prepared.run()` calls record exactly like submitted requests.
struct EngineObs {
    registry: MetricsRegistry,
    /// `msj_step0_artifact_nanos_total`, indexed by [`Step0Artifact`].
    step0_artifacts: [Arc<Counter>; 5],
    traces: TraceRing,
    /// Kernel dispatch label (`"scalar"`/`"sse2"`/`"avx2"`) the engine's
    /// batched loops run on — stamped onto every trace.
    dispatch: &'static str,
}

impl EngineObs {
    fn new(config: ObsConfig, dispatch: msj_geom::KernelDispatch) -> Self {
        let registry = MetricsRegistry::with_enabled(config.enabled);
        // Describe and pre-register the whole metric schema up front:
        // exporters render every family from the first scrape on, at
        // zero, instead of families popping into existence per request.
        registry.describe(
            "msj_request_latency_nanos",
            "End-to-end request latency in nanoseconds, by request kind",
        );
        registry.describe(
            "msj_step_nanos_total",
            "Cumulative pipeline wall-clock nanoseconds, by step",
        );
        registry.describe(
            "msj_admission_accept_total",
            "Join requests admitted under the section-5 cost model",
        );
        registry.describe(
            "msj_admission_shed_total",
            "Join requests refused by the admission limit",
        );
        registry.describe(
            "msj_admission_error_ratio",
            "Relative error of the latest admission estimate vs the observed cost",
        );
        registry.describe(
            "msj_prepared_cache_hits_total",
            "prepare_join calls served from the prepared-join cache",
        );
        registry.describe(
            "msj_prepared_cache_misses_total",
            "prepare_join calls that built pair-level Step-0 state",
        );
        registry.describe(
            "msj_prepared_cache_evictions_total",
            "Prepared joins evicted by the LRU count cap",
        );
        registry.describe(
            "msj_kernel_dispatch",
            "Selected kernel dispatch path (1 = active), by path",
        );
        registry.describe(
            "msj_datasets_registered_total",
            "Datasets registered on the engine (Step-0 runs)",
        );
        registry.describe(
            "msj_registration_nanos",
            "Step-0 registration wall-clock nanoseconds per dataset",
        );
        registry.describe(
            "msj_step0_artifact_nanos_total",
            "Cumulative Step-0 wall-clock nanoseconds, by artifact built or persisted",
        );
        registry.describe(
            "msj_worker_pairs_total",
            "Candidate pairs handled by execution workers, by lane role",
        );
        registry.describe(
            "msj_worker_batches_total",
            "Batches flushed by execution workers, by lane role",
        );
        registry.describe(
            "msj_request_cancelled_total",
            "Join requests stopped by explicit cooperative cancellation",
        );
        registry.describe(
            "msj_deadline_exceeded_total",
            "Join requests stopped because their deadline expired",
        );
        registry.describe(
            "msj_worker_panics_total",
            "Worker panics contained at the run boundary",
        );
        registry.describe(
            "msj_degraded_mode_total",
            "Joins that fell back to the filter-only path, by reason",
        );
        registry.describe(
            "msj_request_errors_total",
            "Requests that returned an error, by error kind",
        );
        registry.describe(
            "msj_fault_injected_total",
            "Deterministic fault injections that fired, by site",
        );
        registry.describe(
            "msj_store_bytes",
            "Resident artifact-store bytes, by dataset (0 when evicted)",
        );
        registry.describe(
            "msj_store_load_nanos",
            "Wall-clock nanoseconds per artifact load from the persistent store",
        );
        registry.describe(
            "msj_store_evictions_total",
            "Dataset artifact sets evicted by the residency byte budget",
        );
        registry.describe(
            "msj_store_checksum_failures_total",
            "Store sections that failed checksum or shape validation at load, by section",
        );
        for kind in ["join", "self_join", "point", "window"] {
            registry.histogram("msj_request_latency_nanos", &[("kind", kind)]);
        }
        for step in Step::ALL {
            registry.counter("msj_step_nanos_total", &[("step", step.name())]);
        }
        for role in [LaneRole::Backend, LaneRole::Consumer] {
            registry.counter("msj_worker_pairs_total", &[("role", role.as_str())]);
            registry.counter("msj_worker_batches_total", &[("role", role.as_str())]);
        }
        for reason in DEGRADED_REASONS {
            registry.counter("msj_degraded_mode_total", &[("reason", reason)]);
        }
        for kind in ERROR_KINDS {
            registry.counter("msj_request_errors_total", &[("kind", kind)]);
        }
        for site in FAULT_SITES {
            registry.counter("msj_fault_injected_total", &[("site", site)]);
        }
        for section in Section::ALL {
            registry.counter(
                "msj_store_checksum_failures_total",
                &[("section", section.name())],
            );
        }
        registry.counter("msj_store_evictions_total", &[]);
        registry.histogram("msj_store_load_nanos", &[]);
        registry.counter("msj_request_cancelled_total", &[]);
        registry.counter("msj_deadline_exceeded_total", &[]);
        registry.counter("msj_worker_panics_total", &[]);
        registry.counter("msj_admission_accept_total", &[]);
        registry.counter("msj_admission_shed_total", &[]);
        registry.counter("msj_prepared_cache_hits_total", &[]);
        registry.counter("msj_prepared_cache_misses_total", &[]);
        registry.counter("msj_prepared_cache_evictions_total", &[]);
        registry.counter("msj_datasets_registered_total", &[]);
        registry.histogram("msj_registration_nanos", &[]);
        let step0_artifacts = Step0Artifact::ALL.map(|artifact| {
            registry.counter(
                "msj_step0_artifact_nanos_total",
                &[("artifact", artifact.name())],
            )
        });
        registry.gauge("msj_admission_error_ratio", &[]);
        // The dispatch gauge family carries every path the engine could
        // run on; the selected one sits at 1.
        for path in ["scalar", "sse2", "avx2"] {
            registry.gauge("msj_kernel_dispatch", &[("path", path)]);
        }
        if registry.is_enabled() {
            registry
                .gauge("msj_kernel_dispatch", &[("path", dispatch.label())])
                .set(1.0);
        }
        EngineObs {
            registry,
            step0_artifacts,
            traces: TraceRing::new(config.trace_capacity),
            dispatch: dispatch.label(),
        }
    }

    /// Runs `work`, charging its wall-clock time to `artifact`.
    fn time_artifact<T>(&self, artifact: Step0Artifact, work: impl FnOnce() -> T) -> T {
        if !self.registry.is_enabled() {
            return work();
        }
        let start = Instant::now();
        let out = work();
        self.step0_artifacts[artifact as usize].add(start.elapsed().as_nanos() as u64);
        out
    }
}

/// An **owned** prepared join — the resident counterpart of
/// [`ScopedPreparedJoin`], with no borrowed lifetime: both datasets'
/// Step-0 state is co-owned behind `Arc`, so the value can be cached,
/// moved, held in an `Arc` and executed from any thread, indefinitely.
///
/// Every run produces the identical response set (canonically sorted
/// under fused execution); the only run-to-run drift is the simulated
/// LRU buffer of the R*-traversal staying warm (later runs report fewer
/// physical reads). The [`RUN_HISTORY`] most recent runs' statistics are
/// retained as the admission history the engine's §5 cost model
/// estimates from.
pub struct PreparedJoin {
    a: DatasetHandle,
    b: DatasetHandle,
    exact_cost_kind: ExactCostKind,
    scoped: ScopedPreparedJoin<'static>,
    /// Request-kind label of every run (`"join"` / `"self_join"`).
    kind: &'static str,
    /// §5 constants for the trace-time estimate.
    params: CostModelParams,
    /// The owning engine's registry/trace ring.
    obs: Arc<EngineObs>,
    /// Resolved fault-injection plan (disabled in production).
    fault: FaultConfig,
    /// Engine-shared latch: an armed plan fires at most once per engine,
    /// so the run after an injected failure is fault-free — exactly the
    /// recover-and-serve sequence the chaos suite exercises.
    fault_spent: Arc<AtomicBool>,
    /// Engine-configured default deadline armed per run when the caller
    /// passes no token of their own.
    deadline: Option<Duration>,
    /// `Some(reason)` when Step 2a was disabled for this pair because
    /// its raster signatures failed verification (degraded mode).
    degraded: Option<&'static str>,
    /// Bounded ring of per-run statistics, newest last (admission
    /// history).
    history: Mutex<VecDeque<MultiStepStats>>,
}

impl PreparedJoin {
    /// Runs Steps 1–3 under the engine-configured execution policy.
    ///
    /// Panics on cancellation / worker panic; use [`Self::try_run`] when
    /// a deadline or fault plan is armed.
    pub fn run(&self) -> JoinResult {
        self.run_with(self.scoped.execution())
    }

    /// Runs Steps 1–3 under an explicit policy, panicking on failure.
    pub fn run_with(&self, execution: Execution) -> JoinResult {
        match self.try_run_with(execution, None) {
            Ok(result) => result,
            Err(err) => panic!("prepared join failed: {err}"),
        }
    }

    /// Runs Steps 1–3 under the engine-configured execution policy,
    /// surfacing deadline / cancellation / worker-panic failures as
    /// structured errors.
    pub fn try_run(&self) -> Result<JoinResult, EngineError> {
        self.try_run_with(self.scoped.execution(), None)
    }

    /// Runs Steps 1–3 under an explicit policy. Every run — successful
    /// or failed — records into the owning engine's metrics registry
    /// (and trace ring, when tracing is on): direct runs and submitted
    /// requests are indistinguishable to the exporters.
    ///
    /// When `cancel` is `None` and the engine configures a default
    /// deadline, a fresh token armed with that deadline governs the run.
    /// A caller-supplied token always wins (its deadline, if any, is the
    /// caller's business).
    pub fn try_run_with(
        &self,
        execution: Execution,
        cancel: Option<&CancelToken>,
    ) -> Result<JoinResult, EngineError> {
        let own_token = match (cancel, self.deadline) {
            (None, Some(deadline)) => Some(CancelToken::with_deadline(deadline)),
            _ => None,
        };
        let cancel = cancel.or(own_token.as_ref());
        let session = if self.fault_spent.load(Ordering::Acquire) {
            FaultSession::inert()
        } else {
            FaultSession::new(self.fault)
        };
        let enabled = self.obs.registry.is_enabled();
        // The trace carries the estimate the run would have been
        // admitted under — taken before this run extends the history.
        let estimated_s =
            (enabled && self.obs.traces.enabled()).then(|| self.admission_estimate(&self.params).0);
        let t_run = enabled.then(Span::start);
        let outcome = self.scoped.try_run_with(execution, cancel, &session);
        let latency_nanos = t_run.map_or(0, |t| t.elapsed_nanos());
        if let Some(site) = session.fired() {
            self.fault_spent.store(true, Ordering::Release);
            if enabled {
                self.obs
                    .registry
                    .counter("msj_fault_injected_total", &[("site", site)])
                    .inc();
            }
        }
        match outcome {
            Ok(result) => {
                {
                    let mut history = self
                        .history
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    if history.len() == RUN_HISTORY {
                        history.pop_front();
                    }
                    history.push_back(result.stats);
                }
                if enabled {
                    self.record_run(&result, latency_nanos, estimated_s.unwrap_or(0.0));
                }
                Ok(result)
            }
            Err(run_err) => {
                let err = match run_err {
                    RunError::Cancelled {
                        reason: CancelReason::DeadlineExpired,
                        elapsed,
                        partial_candidates,
                    } => EngineError::DeadlineExceeded {
                        elapsed,
                        partial_candidates,
                    },
                    RunError::Cancelled {
                        reason: CancelReason::Explicit,
                        partial_candidates,
                        ..
                    } => EngineError::Cancelled { partial_candidates },
                    RunError::Panicked { worker, message } => {
                        EngineError::WorkerPanicked { worker, message }
                    }
                };
                if enabled {
                    self.record_failure(&err, latency_nanos, estimated_s.unwrap_or(0.0));
                }
                Err(err)
            }
        }
    }

    /// Publishes one failed run: the per-cause counter and (when
    /// tracing) a trace whose kind names the failure. The per-kind
    /// `msj_request_errors_total` counter is incremented once at the
    /// request surface, not here, so a submitted request is never
    /// double-counted.
    fn record_failure(&self, err: &EngineError, latency_nanos: u64, estimated_s: f64) {
        let reg = &self.obs.registry;
        let (trace_kind, partial) = match err {
            EngineError::DeadlineExceeded {
                partial_candidates, ..
            } => {
                reg.counter("msj_deadline_exceeded_total", &[]).inc();
                ("join_deadline", *partial_candidates)
            }
            EngineError::Cancelled { partial_candidates } => {
                reg.counter("msj_request_cancelled_total", &[]).inc();
                ("join_cancelled", *partial_candidates)
            }
            EngineError::WorkerPanicked { .. } => {
                reg.counter("msj_worker_panics_total", &[]).inc();
                ("join_panic", 0)
            }
            _ => ("join_error", 0),
        };
        if self.obs.traces.enabled() {
            self.obs.traces.push(Trace {
                seq: self.obs.traces.next_seq(),
                kind: trace_kind,
                datasets: self.datasets(),
                admitted: true,
                estimated_s,
                latency_nanos,
                candidates: partial,
                results: 0,
                dispatch: self.obs.dispatch,
                steps: TraceSteps::default(),
            });
        }
    }

    /// `Some(reason)` when this pair runs in degraded mode — its raster
    /// signatures failed verification, so Step 2a is disabled and every
    /// candidate surviving Step 2 goes to exact geometry. Answers stay
    /// correct; only the §4 filter speedup is lost.
    pub fn degraded_reason(&self) -> Option<&'static str> {
        self.degraded
    }

    /// Publishes one finished run: latency histogram, per-step counters,
    /// worker-lane aggregates and (when tracing) the request trace.
    fn record_run(&self, result: &JoinResult, latency_nanos: u64, estimated_s: f64) {
        let reg = &self.obs.registry;
        let s = &result.stats;
        reg.histogram("msj_request_latency_nanos", &[("kind", self.kind)])
            .record(latency_nanos);
        for (step, nanos) in [
            (Step::Step1, s.step1_nanos),
            (Step::Step2, s.step2_nanos),
            (Step::Step2a, s.step2a_nanos),
            (Step::Step3, s.step3_nanos),
        ] {
            reg.counter("msj_step_nanos_total", &[("step", step.name())])
                .add(nanos);
        }
        let mut pairs = [0u64; 2];
        let mut batches = [0u64; 2];
        for lane in &result.worker_lanes {
            let i = match lane.role {
                LaneRole::Backend => 0,
                LaneRole::Consumer => 1,
            };
            pairs[i] += lane.pairs;
            batches[i] += lane.batches;
        }
        for (i, role) in [LaneRole::Backend, LaneRole::Consumer]
            .into_iter()
            .enumerate()
        {
            reg.counter("msj_worker_pairs_total", &[("role", role.as_str())])
                .add(pairs[i]);
            reg.counter("msj_worker_batches_total", &[("role", role.as_str())])
                .add(batches[i]);
        }
        if self.obs.traces.enabled() {
            self.obs.traces.push(Trace {
                seq: self.obs.traces.next_seq(),
                kind: self.kind,
                datasets: self.datasets(),
                admitted: true,
                estimated_s,
                latency_nanos,
                candidates: s.mbr_join.candidates,
                results: s.result_pairs,
                dispatch: self.obs.dispatch,
                steps: TraceSteps {
                    step0_nanos: s.step0_nanos,
                    step1_nanos: s.step1_nanos,
                    step2_nanos: s.step2_nanos,
                    step2a_nanos: s.step2a_nanos,
                    step3_nanos: s.step3_nanos,
                },
            });
        }
    }

    /// The joined dataset ids `(a, b)`.
    pub fn datasets(&self) -> (DatasetId, DatasetId) {
        (self.a.id(), self.b.id())
    }

    /// Statistics of the most recent run, if any ran yet.
    pub fn last_stats(&self) -> Option<MultiStepStats> {
        // Plain-data ring: a panic mid-push can't leave it half-written,
        // so recover from poisoning instead of cascading the panic.
        self.history
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .back()
            .copied()
    }

    /// Statistics of up to [`RUN_HISTORY`] most recent runs, oldest
    /// first.
    pub fn run_history(&self) -> Vec<MultiStepStats> {
        self.history
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .iter()
            .copied()
            .collect()
    }

    /// The §5 modeled cost this join would be admitted under right now:
    /// the observed history when a run happened (`from_history = true`),
    /// the a-priori estimate otherwise.
    pub fn admission_estimate(&self, params: &CostModelParams) -> (f64, bool) {
        match self.last_stats() {
            Some(stats) => (
                figure18_cost(&stats, self.exact_cost_kind, params).total_s(),
                true,
            ),
            None => (
                a_priori_estimate(self.a.len(), self.b.len(), self.exact_cost_kind, params),
                false,
            ),
        }
    }
}

/// The §5 estimate for a join that never ran: on the paper's
/// cartographic workloads each object meets on the order of one join
/// partner (Table 2), so the larger side bounds the expected candidate
/// count. Needs only the dataset sizes — admission can refuse a request
/// before any pair-level Step 0 is built.
fn a_priori_estimate(
    len_a: usize,
    len_b: usize,
    kind: ExactCostKind,
    params: &CostModelParams,
) -> f64 {
    estimate_cost(len_a.max(len_b) as u64, 0, kind, params).total_s()
}

/// One query against the serving surface ([`SpatialEngine::submit`]).
///
/// Datasets are named by [`DatasetId`] (from [`DatasetHandle::id`]) so a
/// request is `Copy` and batches are cheap to assemble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request {
    /// Intersection join of two registered datasets, optionally under an
    /// execution-policy override (`None` = the engine's configured
    /// policy).
    Join {
        a: DatasetId,
        b: DatasetId,
        execution: Option<Execution>,
    },
    /// Intersection self-join of one dataset (every pair `(i, j)` of the
    /// dataset with intersecting regions, `i == j` included).
    SelfJoin {
        dataset: DatasetId,
        execution: Option<Execution>,
    },
    /// Point selection: every object whose region contains the point
    /// (closed semantics).
    Point { dataset: DatasetId, point: Point },
    /// Window selection: every object whose region intersects the window
    /// (closed semantics).
    Window { dataset: DatasetId, window: Rect },
}

/// §5 cost-model accounting attached to every response: the
/// admission-time estimate next to the breakdown observed for the
/// execution that actually ran (including the measured filter yield and
/// Step-2a decided-rate as observed parameters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Admission {
    /// Modeled total cost (seconds) this request was admitted under.
    pub estimated_s: f64,
    /// Whether the estimate came from observed history of the same
    /// prepared state (`true`) or the a-priori model (`false`).
    pub from_history: bool,
    /// The §5 breakdown of the execution that ran, estimated vs.
    /// observed filter yield included.
    pub cost: CostBreakdown,
}

/// Outcome of a join-shaped request.
#[derive(Debug, Clone)]
pub struct JoinResponse {
    /// The response set: pairs whose regions intersect.
    pub pairs: Vec<(ObjectId, ObjectId)>,
    pub stats: MultiStepStats,
    pub admission: Admission,
}

/// Outcome of a selection-shaped (point/window) request.
#[derive(Debug, Clone)]
pub struct SelectionResponse {
    /// Objects satisfying the selection.
    pub ids: Vec<ObjectId>,
    pub stats: QueryStats,
    /// Weighted exact-geometry operations of the final step.
    pub exact_ops: OpCounts,
    pub admission: Admission,
}

/// Outcome of one [`Request`].
#[derive(Debug, Clone)]
pub enum Response {
    Join(JoinResponse),
    Selection(SelectionResponse),
}

impl Response {
    /// The attached §5 accounting, whatever the request shape.
    pub fn admission(&self) -> &Admission {
        match self {
            Response::Join(r) => &r.admission,
            Response::Selection(r) => &r.admission,
        }
    }
}

/// Why the engine refused — or had to abandon — a request.
///
/// `#[non_exhaustive]`: match with a wildcard arm; the failure surface
/// can grow (a future network front will add transport-shaped errors).
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The request names a dataset id this engine never registered.
    UnknownDataset(DatasetId),
    /// The §5 modeled cost exceeds the configured admission limit.
    AdmissionDenied {
        estimated_s: f64,
        limit_s: f64,
        /// Whether `estimated_s` came from the observed run history of a
        /// cached prepared join (`true`) or the a-priori size-based
        /// model (`false`) — a network front turns this estimate into a
        /// retry-after hint, and the provenance travels with it.
        from_history: bool,
    },
    /// The request outlived its deadline and was stopped cooperatively
    /// at the next batch boundary.
    DeadlineExceeded {
        /// Wall-clock from token arming to the stop.
        elapsed: Duration,
        /// Step-1 candidates delivered before the stop.
        partial_candidates: u64,
    },
    /// The request's cancel token was cancelled explicitly.
    Cancelled {
        /// Step-1 candidates delivered before the stop.
        partial_candidates: u64,
    },
    /// A worker thread panicked mid-run; the panic was contained at the
    /// run boundary and the engine (datasets, caches, metrics) stays
    /// fully serviceable.
    WorkerPanicked {
        /// Attach-order index of the panicking worker.
        worker: usize,
        /// The rendered panic payload.
        message: String,
    },
    /// The pair's Step-2a raster signatures failed verification and the
    /// configuration forbids the degraded filter-only fallback
    /// ([`JoinConfig::allow_degraded`] is `false`).
    DegradedUnavailable {
        /// What failed verification.
        reason: &'static str,
    },
}

impl EngineError {
    /// Every [`kind`](EngineError::kind) label, one per variant, in
    /// declaration order. Frontends that map engine errors onto another
    /// surface (e.g. `msj-serve`'s wire statuses) iterate this list in a
    /// completeness test so a new variant cannot ship unmapped.
    pub const ALL_KINDS: [&'static str; 6] = [
        "unknown_dataset",
        "admission_denied",
        "deadline_exceeded",
        "cancelled",
        "worker_panicked",
        "degraded_unavailable",
    ];

    /// The stable `kind` label this error is counted under in
    /// `msj_request_errors_total`.
    pub fn kind(&self) -> &'static str {
        match self {
            EngineError::UnknownDataset(_) => "unknown_dataset",
            EngineError::AdmissionDenied { .. } => "admission_denied",
            EngineError::DeadlineExceeded { .. } => "deadline_exceeded",
            EngineError::Cancelled { .. } => "cancelled",
            EngineError::WorkerPanicked { .. } => "worker_panicked",
            EngineError::DegradedUnavailable { .. } => "degraded_unavailable",
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownDataset(id) => write!(f, "unknown dataset id {id}"),
            EngineError::AdmissionDenied {
                estimated_s,
                limit_s,
                ..
            } => write!(
                f,
                "admission denied: modeled cost {estimated_s:.3}s exceeds limit {limit_s:.3}s"
            ),
            EngineError::DeadlineExceeded {
                elapsed,
                partial_candidates,
            } => write!(
                f,
                "deadline exceeded after {elapsed:?} ({partial_candidates} candidates delivered)"
            ),
            EngineError::Cancelled { partial_candidates } => write!(
                f,
                "request cancelled ({partial_candidates} candidates delivered)"
            ),
            EngineError::WorkerPanicked { worker, message } => {
                write!(f, "worker {worker} panicked: {message}")
            }
            EngineError::DegradedUnavailable { reason } => write!(
                f,
                "raster signatures unavailable ({reason}) and degraded mode is disabled"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Configuration of the engine's **persistent Step-0 artifact store**
/// (`msj-store`): a directory of page-aligned, per-section checksummed
/// segment files plus an optional dataset-residency byte budget.
///
/// * [`SpatialEngine::with_store`] arms write-through: every
///   [`SpatialEngine::register`] also persists the dataset's artifacts,
///   and every first preparation of a raster-enabled pair persists the
///   pair's raster signatures.
/// * [`SpatialEngine::open`] restarts from such a directory: registered
///   datasets come back in id order with their artifacts **loaded** (one
///   validating pass over each stored image — no hulls, MERs, trapezoids
///   or STR packing recomputed) instead of rebuilt.
/// * With a byte budget set, the engine keeps at most that many artifact
///   bytes resident: the stalest dataset's artifacts are evicted and
///   re-materialized from the store on next touch, so the registered
///   set may exceed RAM.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    root: PathBuf,
    byte_budget: Option<u64>,
}

impl StoreConfig {
    /// A store rooted at `root` (created if absent), with no residency
    /// budget — everything registered stays resident.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        StoreConfig {
            root: root.into(),
            byte_budget: None,
        }
    }

    /// Caps resident artifact bytes: beyond `bytes`, the
    /// least-recently-touched datasets' artifacts are evicted (and
    /// reloaded from the store on next touch).
    pub fn with_byte_budget(mut self, bytes: u64) -> Self {
        self.byte_budget = Some(bytes);
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    /// The residency byte budget, if one is set.
    pub fn byte_budget(&self) -> Option<u64> {
        self.byte_budget
    }
}

/// The armed store of a [`SpatialEngine`]: segment I/O plus the
/// dataset-residency accounting the byte budget evicts by.
struct StoreBackend {
    store: Store,
    byte_budget: Option<u64>,
    residency: Mutex<Residency>,
}

/// LRU accounting of resident dataset artifacts: recency stamps plus
/// the resident byte total the budget is enforced against.
struct Residency {
    clock: u64,
    /// Per resident dataset: (artifact bytes, recency stamp).
    resident: HashMap<DatasetId, (u64, u64)>,
}

impl Residency {
    fn total(&self) -> u64 {
        self.resident.values().map(|&(bytes, _)| bytes).sum()
    }

    /// Upserts `id` as most recently used.
    fn touch(&mut self, id: DatasetId, bytes: u64) {
        self.clock += 1;
        let clock = self.clock;
        self.resident.insert(id, (bytes, clock));
    }

    /// The stalest resident dataset, excluding `keep`.
    fn stalest(&self, keep: DatasetId) -> Option<DatasetId> {
        self.resident
            .iter()
            .filter(|(&id, _)| id != keep)
            .min_by_key(|(_, &(_, stamp))| stamp)
            .map(|(&id, _)| id)
    }
}

/// Fingerprint of the configuration fields that shape Step-0 artifacts
/// (tree layout, approximation kinds, exact representations, raster
/// grid). A persisted segment whose tag differs was built under an
/// incompatible configuration; the engine rebuilds from the relation
/// instead of loading it.
fn config_tag(config: &JoinConfig) -> u64 {
    let mut bytes = Vec::with_capacity(64);
    bytes.push(match config.backend {
        Backend::RStarTraversal => 1u8,
        Backend::PartitionedSweep { .. } => 2,
    });
    bytes.extend((config.page_size as u64).to_le_bytes());
    bytes.push(config.conservative.map_or(0xFF, |k| k.code()));
    bytes.push(config.progressive.map_or(0xFF, |k| k.code()));
    match config.exact {
        ExactAlgorithm::TrStar { max_entries } => {
            bytes.push(1);
            bytes.extend((max_entries as u64).to_le_bytes());
        }
        _ => bytes.push(0),
    }
    bytes.push(match config.loader {
        crate::config::TreeLoader::Str => 0,
        crate::config::TreeLoader::Incremental => 1,
    });
    bytes.push(config.raster.enabled as u8);
    bytes.extend(config.raster.grid_bits.to_le_bytes());
    msj_geom::fnv1a64(&bytes)
}

/// The deterministic byte index a fired `store_corrupt` fault flips:
/// one splitmix64 draw from the plan seed, reduced to the section
/// length. Engine-side so the corruption flows through the *store's*
/// verification path exactly like real media corruption would.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The one way a stored section becomes a resident artifact: its
/// verified bytes must decode (`from_bytes`) *and* describe exactly the
/// `objects` of the relation the artifact is about to be attached to — a
/// checksum-valid image of another length would index out of bounds at
/// query time. `None` means rebuild (or, for a pair's raster side, run
/// without); a section that was written but cannot be adopted is named in
/// `corrupt` for `msj_store_checksum_failures_total`, one that was never
/// written is not.
fn adopt<T, E>(
    stored: Option<&Segment>,
    section: Section,
    objects: usize,
    from_bytes: impl FnOnce(&[u8]) -> Result<T, E>,
    len: impl FnOnce(&T) -> usize,
    corrupt: &mut Vec<&'static str>,
) -> Option<T> {
    let adopted = stored?
        .section(section)?
        .ok()
        .and_then(|bytes| from_bytes(bytes).ok())
        .filter(|artifact| len(artifact) == objects);
    if adopted.is_none() {
        corrupt.push(section.name());
    }
    adopted
}

/// The resident spatial query engine (see the module docs).
///
/// All methods take `&self`; the engine is `Send + Sync` and intended to
/// be shared (`Arc<SpatialEngine>`) across serving threads.
pub struct SpatialEngine {
    config: JoinConfig,
    params: CostModelParams,
    /// The §5 admission limit in seconds, stored as `f64` bits so it can
    /// be tightened or lifted at runtime through `&self` (a serving
    /// front adjusts it under load). `+inf` means *no limit*.
    admission_limit_bits: AtomicU64,
    /// Fault-injection plan resolved once at construction: the config's
    /// plan when set, else whatever `MSJ_FAULT_SEED`/`MSJ_FAULT_PLAN`
    /// name, else disabled. Resolving here keeps the per-run path free
    /// of env lookups.
    fault: FaultConfig,
    /// Shared into every prepared join: set once the plan fires, so the
    /// injected fault happens at most once per engine.
    fault_spent: Arc<AtomicBool>,
    /// Registry + trace ring, `Arc`-shared into every prepared join.
    obs: Arc<EngineObs>,
    datasets: RwLock<Vec<Arc<DatasetState>>>,
    /// Prepared-join cache keyed by dataset-id pair, LRU-capped at
    /// [`JoinConfig::prepared_cache_cap`].
    prepared: Mutex<PreparedCache>,
    /// The persistent artifact store, when armed
    /// ([`SpatialEngine::with_store`] / [`SpatialEngine::open`]).
    store: Option<StoreBackend>,
    /// Fingerprint of the artifact-shaping configuration fields,
    /// stamped into every written segment and checked on every load.
    tag: u64,
}

/// The engine's prepared-join cache: id-pair keyed, bounded by an LRU
/// count cap. Entries carry a recency stamp refreshed on every hit; an
/// insert beyond the cap evicts the stalest pair (its Step-0 state is
/// rebuilt transparently on next use — results are unaffected, only the
/// pair-level build cost is paid again).
struct PreparedCache {
    cap: usize,
    clock: u64,
    map: HashMap<(DatasetId, DatasetId), (Arc<PreparedJoin>, u64)>,
}

impl PreparedCache {
    fn new(cap: usize) -> Self {
        PreparedCache {
            cap: cap.max(1),
            clock: 0,
            map: HashMap::new(),
        }
    }

    /// Cache lookup; a hit refreshes the entry's recency stamp.
    fn get(&mut self, key: (DatasetId, DatasetId)) -> Option<Arc<PreparedJoin>> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(&key).map(|(join, stamp)| {
            *stamp = clock;
            join.clone()
        })
    }

    /// Inserts `built` unless the key landed concurrently (the first
    /// insert wins — callers build outside the lock), then evicts
    /// least-recently-used entries beyond the cap. Returns the `Arc`
    /// actually cached and the number of evictions.
    fn insert(
        &mut self,
        key: (DatasetId, DatasetId),
        built: Arc<PreparedJoin>,
    ) -> (Arc<PreparedJoin>, u64) {
        self.clock += 1;
        let entry = self.map.entry(key).or_insert((built, 0));
        entry.1 = self.clock;
        let served = entry.0.clone();
        let mut evicted = 0;
        while self.map.len() > self.cap {
            let stalest = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(&k, _)| k);
            match stalest {
                Some(k) => {
                    self.map.remove(&k);
                    evicted += 1;
                }
                None => break,
            }
        }
        (served, evicted)
    }
}

impl SpatialEngine {
    /// An engine applying `config` to every dataset it registers and
    /// every query it serves.
    pub fn new(config: JoinConfig) -> Self {
        let fault = if config.fault.enabled() {
            config.fault
        } else {
            FaultConfig::from_env()
        };
        SpatialEngine {
            obs: Arc::new(EngineObs::new(config.obs, config.kernel_dispatch())),
            prepared: Mutex::new(PreparedCache::new(config.prepared_cache_cap)),
            tag: config_tag(&config),
            config,
            params: CostModelParams::default(),
            admission_limit_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            fault,
            fault_spent: Arc::new(AtomicBool::new(false)),
            datasets: RwLock::new(Vec::new()),
            store: None,
        }
    }

    /// Arms the persistent artifact store: every subsequent
    /// [`SpatialEngine::register`] writes the dataset's Step-0 artifacts
    /// through to a segment file under `store.root()`, pair raster
    /// signatures persist on first preparation, and the residency budget
    /// (if set) starts evicting cold datasets' artifacts.
    pub fn with_store(mut self, store: StoreConfig) -> io::Result<Self> {
        self.store = Some(StoreBackend {
            store: Store::open(&store.root)?,
            byte_budget: store.byte_budget,
            residency: Mutex::new(Residency {
                clock: 0,
                resident: HashMap::new(),
            }),
        });
        Ok(self)
    }

    /// Re-opens an engine from a persisted store: every dataset written
    /// by a previous engine's write-through comes back registered, in id
    /// order, with its Step-0 artifacts **loaded** from the segment
    /// files (checksums verified per section) instead of rebuilt — the
    /// store's cold-start path. Corrupt artifact sections degrade to a
    /// rebuild from the relation (counted under
    /// `msj_degraded_mode_total{reason="store_corrupt"}`); a corrupt
    /// manifest or relation section fails the open, since there is
    /// nothing to rebuild from.
    pub fn open(config: JoinConfig, store: StoreConfig) -> io::Result<Self> {
        let engine = SpatialEngine::new(config).with_store(store)?;
        let backend = engine.store.as_ref().expect("store just armed");
        let ids = backend.store.dataset_ids()?;
        for (slot, id) in ids.iter().enumerate() {
            if *id != slot as DatasetId {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("store is missing dataset {slot} (found id {id})"),
                ));
            }
        }
        for id in ids {
            engine.load_dataset(id)?;
        }
        Ok(engine)
    }

    /// Whether a persistent store is armed.
    pub fn store_armed(&self) -> bool {
        self.store.is_some()
    }

    /// The engine's metrics registry: always present (and always
    /// renderable via [`MetricsRegistry::snapshot_json`] /
    /// [`MetricsRegistry::render_prometheus`]); with
    /// [`ObsConfig::disabled`] it stays at the described schema and
    /// records nothing.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.obs.registry
    }

    /// The retained request traces, oldest first — empty unless the
    /// engine was configured with [`ObsConfig::with_traces`].
    pub fn recent_traces(&self) -> Vec<Trace> {
        self.obs.traces.recent()
    }

    /// Overrides the §5 cost constants used for admission estimates.
    pub fn with_cost_model(mut self, params: CostModelParams) -> Self {
        self.params = params;
        self
    }

    /// Enables admission control: join requests whose §5 modeled cost
    /// exceeds `limit_s` seconds are refused with
    /// [`EngineError::AdmissionDenied`] instead of executed.
    pub fn with_admission_limit(self, limit_s: f64) -> Self {
        self.set_admission_limit(Some(limit_s));
        self
    }

    /// Sets or lifts the admission limit at runtime (`None` = admit
    /// everything). Takes `&self`: a serving front tightens the limit
    /// under load without exclusive access to the engine.
    pub fn set_admission_limit(&self, limit_s: Option<f64>) {
        let value = limit_s.unwrap_or(f64::INFINITY);
        self.admission_limit_bits
            .store(value.to_bits(), Ordering::Release);
    }

    /// The currently configured admission limit, if any.
    pub fn admission_limit(&self) -> Option<f64> {
        let value = f64::from_bits(self.admission_limit_bits.load(Ordering::Acquire));
        (value != f64::INFINITY).then_some(value)
    }

    /// The §5 cost the engine would model for `request` right now,
    /// plus whether that estimate is history-informed (`true` when the
    /// pair is already prepared and carries observed run statistics).
    /// `None` when the request names an unregistered dataset.
    ///
    /// This is the read-only face of the admission estimate: a network
    /// front uses it to derive `retry_after` hints for requests it
    /// sheds *before* they reach the engine (full queue, connection
    /// cap), keeping those hints on the same model admission itself
    /// applies. Selections are modeled as one index descent of
    /// page-access cost (coarse, a-priori — selections keep no
    /// per-pair history).
    pub fn estimate_request(&self, request: &Request) -> Option<(f64, bool)> {
        let pair = match *request {
            Request::Join { a, b, .. } => Some((a, b)),
            Request::SelfJoin { dataset, .. } => Some((dataset, dataset)),
            Request::Point { dataset, .. } | Request::Window { dataset, .. } => {
                let handle = self.dataset(dataset)?;
                // One root-to-leaf descent plus a leaf page, in the
                // model's page-access currency.
                let depth = (handle.len().max(2) as f64).log2().ceil().max(1.0);
                return Some(((depth + 1.0) * self.params.page_access_ms / 1000.0, false));
            }
        };
        let (a, b) = pair.expect("join-shaped request");
        let (ha, hb) = (self.dataset(a)?, self.dataset(b)?);
        Some(match self.cached_join((ha.id(), hb.id())) {
            Some(prepared) => prepared.admission_estimate(&self.params),
            None => (
                a_priori_estimate(ha.len(), hb.len(), self.exact_cost_kind(), &self.params),
                false,
            ),
        })
    }

    /// The configuration every dataset and query runs under.
    pub fn config(&self) -> &JoinConfig {
        &self.config
    }

    /// The §5 cost constants admission estimates use.
    pub fn cost_model(&self) -> &CostModelParams {
        &self.params
    }

    /// Registers a relation: runs its share of Step 0 (index build,
    /// approximation stores, exact-step representations — whatever the
    /// engine configuration calls for) and takes ownership of the
    /// results. Accepts an owned [`Relation`] or an existing
    /// `Arc<Relation>` (no copy either way).
    pub fn register(&self, relation: impl Into<Arc<Relation>>) -> DatasetHandle {
        let relation = relation.into();
        let enabled = self.obs.registry.is_enabled();
        let t_step0 = enabled.then(Instant::now);
        let (artifacts, _) = self.step0(&relation, None);
        let step0_nanos = t_step0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        if enabled {
            let reg = &self.obs.registry;
            reg.counter("msj_datasets_registered_total", &[]).inc();
            reg.histogram("msj_registration_nanos", &[])
                .record(step0_nanos);
            reg.counter("msj_step_nanos_total", &[("step", Step::Step0.name())])
                .add(step0_nanos);
        }
        // Dataset/cache guards protect plain data (Vec pushes, HashMap
        // inserts) that a worker panic can't leave half-written — the
        // panic is contained at the run boundary before any guard here
        // unwinds — so recover from poisoning rather than cascading.
        let mut datasets = self
            .datasets
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let id = datasets.len() as DatasetId;
        // Write-through: the id is assigned under the datasets lock, so
        // the segment write happens here too — registration is cold
        // relative to serving, and concurrent registers must not race
        // for the same segment file.
        let bytes = self.persist_dataset(id, &relation, &artifacts).unwrap_or(0);
        let state = Arc::new(DatasetState {
            id,
            relation,
            step0_nanos,
            bytes,
            artifacts: RwLock::new(Some(Arc::new(artifacts))),
        });
        datasets.push(state.clone());
        drop(datasets);
        self.note_resident(&state);
        self.evict_over_budget(id);
        DatasetHandle { state }
    }

    /// Writes one dataset's artifacts through to the armed store;
    /// returns the segment size. `None` when no store is armed or the
    /// write failed — the engine keeps serving from memory either way.
    fn persist_dataset(
        &self,
        id: DatasetId,
        relation: &Relation,
        artifacts: &DatasetArtifacts,
    ) -> Option<u64> {
        let backend = self.store.as_ref()?;
        self.obs.time_artifact(Step0Artifact::Persist, || {
            let mut sections = vec![(Section::Relation, relation.to_bytes())];
            sections.extend(artifacts.tree.iter().map(|t| (Section::Tree, t.to_bytes())));
            // A `Mixed` conservative store has no image: its section is
            // left out and rebuilt on load.
            let conservative = artifacts.conservative.iter().filter_map(|c| c.to_bytes());
            sections.extend(conservative.map(|image| (Section::Conservative, image)));
            let progressive = artifacts.progressive.iter().map(|p| p.to_bytes());
            sections.extend(progressive.map(|image| (Section::Progressive, image)));
            sections.extend(
                artifacts
                    .trstar
                    .iter()
                    .map(|t| (Section::TrStar, t.to_bytes())),
            );
            backend.store.write_dataset(id, self.tag, &sections).ok()
        })
    }

    /// Runs `read` with the engine's `store_corrupt` fault plan armed as
    /// the store's tamper hook (a seed-deterministic single-byte flip in
    /// the named section, applied *before* checksum verification so the
    /// corruption flows through the store's real detection path), and
    /// counts the injection if it fired.
    fn with_store_fault<T>(&self, read: impl FnOnce(Option<msj_store::Tamper<'_>>) -> T) -> T {
        let session = if self.fault_spent.load(Ordering::Acquire) {
            FaultSession::inert()
        } else {
            FaultSession::new(self.fault)
        };
        let mut fired = false;
        let mut hook = |section: Section, bytes: &mut [u8]| {
            if let Some(seed) = session.corrupt_store(section.name()) {
                fired = true;
                if !bytes.is_empty() {
                    let idx = (splitmix64(seed) % bytes.len() as u64) as usize;
                    bytes[idx] ^= 1;
                }
            }
        };
        let out = read(Some(&mut hook));
        if fired {
            self.fault_spent.store(true, Ordering::Release);
            if self.obs.registry.is_enabled() {
                self.obs
                    .registry
                    .counter("msj_fault_injected_total", &[("site", "store_corrupt")])
                    .inc();
            }
        }
        out
    }

    /// One relation's share of Step 0 under the engine configuration:
    /// each artifact is adopted from its `stored` section — one validating
    /// pass over the image, no recomputation — or, when there is no
    /// segment or the section cannot be adopted, built from `relation`
    /// (answers are identical; only that section's load speedup is
    /// lost). Returns the artifacts and the names of the sections that
    /// were written but could not be used.
    fn step0(
        &self,
        relation: &Arc<Relation>,
        stored: Option<&Segment>,
    ) -> (DatasetArtifacts, Vec<&'static str>) {
        let (obs, objects) = (&self.obs, relation.len());
        let mut corrupt = Vec::new();
        let tree = matches!(self.config.backend, Backend::RStarTraversal).then(|| {
            adopt(
                stored,
                Section::Tree,
                objects,
                RStarTree::from_bytes,
                RStarTree::len,
                &mut corrupt,
            )
            .unwrap_or_else(|| {
                obs.time_artifact(Step0Artifact::Tree, || {
                    candidates::build_tree(&self.config, relation)
                })
            })
        });
        let conservative = self.config.conservative.map(|k| {
            adopt(
                stored,
                Section::Conservative,
                objects,
                ConservativeStore::from_bytes,
                ConservativeStore::len,
                &mut corrupt,
            )
            .unwrap_or_else(|| {
                obs.time_artifact(Step0Artifact::Conservative, || {
                    ConservativeStore::build(k, relation)
                })
            })
        });
        let progressive = self.config.progressive.map(|k| {
            adopt(
                stored,
                Section::Progressive,
                objects,
                ProgressiveStore::from_bytes,
                ProgressiveStore::len,
                &mut corrupt,
            )
            .unwrap_or_else(|| {
                obs.time_artifact(Step0Artifact::Progressive, || {
                    ProgressiveStore::build(k, relation)
                })
            })
        });
        let trstar = match self.config.exact {
            ExactAlgorithm::TrStar { max_entries } => Some(
                adopt(
                    stored,
                    Section::TrStar,
                    objects,
                    TrStarStore::from_bytes,
                    TrStarStore::len,
                    &mut corrupt,
                )
                .unwrap_or_else(|| {
                    obs.time_artifact(Step0Artifact::TrStar, || {
                        TrStarStore::build(relation, max_entries)
                    })
                }),
            ),
            _ => None,
        };
        let (tree, conservative, progressive) = (
            tree.map(Arc::new),
            conservative.map(Arc::new),
            progressive.map(Arc::new),
        );
        let selection = SelectionState::from_shared_with_step1(
            RelHandle::from(relation.clone()),
            &self.config,
            SharedStep1 { tree: tree.clone() },
            conservative.clone(),
            progressive.clone(),
        );
        let artifacts = DatasetArtifacts {
            tree,
            conservative,
            progressive,
            trstar: trstar.map(Arc::new),
            selection,
        };
        (artifacts, corrupt)
    }

    /// Publishes one finished store load: wall-clock plus any
    /// per-section failures and the degraded-fallback count.
    fn record_store_load(&self, nanos: u64, corrupt: &[&'static str]) {
        if !self.obs.registry.is_enabled() {
            return;
        }
        let reg = &self.obs.registry;
        reg.histogram("msj_store_load_nanos", &[]).record(nanos);
        for section in corrupt {
            reg.counter("msj_store_checksum_failures_total", &[("section", section)])
                .inc();
        }
        if !corrupt.is_empty() {
            reg.counter("msj_degraded_mode_total", &[("reason", "store_corrupt")])
                .inc();
        }
    }

    /// Registers one persisted dataset on an opening engine — the
    /// cold-start path of [`SpatialEngine::open`].
    fn load_dataset(&self, id: DatasetId) -> io::Result<()> {
        let backend = self.store.as_ref().expect("load_dataset requires a store");
        let enabled = self.obs.registry.is_enabled();
        let t_load = enabled.then(Instant::now);
        let segment = self.with_store_fault(|tamper| backend.store.read_dataset(id, tamper))?;
        let stored = segment
            .section(Section::Relation)
            .and_then(Result::ok)
            .and_then(|bytes| Relation::from_bytes(bytes).ok());
        let Some(relation) = stored.map(Arc::new) else {
            // The relation is the one section with no rebuild source;
            // without it the open fails.
            self.record_store_load(
                t_load.map_or(0, |t| t.elapsed().as_nanos() as u64),
                &[Section::Relation.name()],
            );
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("dataset {id}: relation section missing or corrupt"),
            ));
        };
        let current = segment.config_tag == self.tag;
        let (artifacts, corrupt) = self.step0(&relation, current.then_some(&segment));
        // A segment written under an artifact-shaping configuration this
        // engine does not run was rebuilt in full: refresh it in place.
        let refreshed = if current {
            None
        } else {
            self.persist_dataset(id, &relation, &artifacts)
        };
        let bytes = refreshed.unwrap_or(segment.bytes);
        let step0_nanos = t_load.map_or(0, |t| t.elapsed().as_nanos() as u64);
        self.record_store_load(step0_nanos, &corrupt);
        let mut datasets = self
            .datasets
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        debug_assert_eq!(datasets.len() as DatasetId, id, "open loads ids in order");
        let state = Arc::new(DatasetState {
            id,
            relation,
            step0_nanos,
            bytes,
            artifacts: RwLock::new(Some(Arc::new(artifacts))),
        });
        datasets.push(state.clone());
        drop(datasets);
        self.note_resident(&state);
        self.evict_over_budget(id);
        Ok(())
    }

    /// The dataset's artifacts, re-materializing them first if the
    /// residency budget evicted them: a store load when a usable segment
    /// exists, a Step-0 rebuild from the relation otherwise. Refreshes
    /// the dataset's LRU recency either way.
    fn artifacts(&self, state: &Arc<DatasetState>) -> Arc<DatasetArtifacts> {
        let resident = state
            .artifacts
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone();
        if let Some(artifacts) = resident {
            self.note_resident(state);
            return artifacts;
        }
        // Materialize outside every lock: a concurrent double
        // materialization is deterministic over the same inputs and the
        // first publish wins.
        let built = Arc::new(self.materialize(state));
        let artifacts = {
            let mut guard = state
                .artifacts
                .write()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if guard.is_none() {
                *guard = Some(built);
            }
            guard.clone().expect("just published")
        };
        self.note_resident(state);
        self.evict_over_budget(state.id);
        artifacts
    }

    /// Re-materializes evicted artifacts (see [`SpatialEngine::artifacts`]).
    fn materialize(&self, state: &DatasetState) -> DatasetArtifacts {
        let t_load = self.obs.registry.is_enabled().then(Instant::now);
        let segment = self.store.as_ref().and_then(|backend| {
            self.with_store_fault(|tamper| backend.store.read_dataset(state.id, tamper))
                .ok()
                .filter(|segment| segment.config_tag == self.tag)
        });
        // The relation is already resident; only the artifact sections
        // matter here.
        let (artifacts, corrupt) = self.step0(&state.relation, segment.as_ref());
        if segment.is_some() {
            self.record_store_load(
                t_load.map_or(0, |t| t.elapsed().as_nanos() as u64),
                &corrupt,
            );
        }
        artifacts
    }

    /// Marks `state` most-recently-used in the residency accounting and
    /// publishes its resident bytes. No-op without an armed store.
    fn note_resident(&self, state: &DatasetState) {
        let Some(backend) = &self.store else { return };
        backend
            .residency
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .touch(state.id, state.bytes);
        if self.obs.registry.is_enabled() {
            let label = state.id.to_string();
            self.obs
                .registry
                .gauge("msj_store_bytes", &[("dataset", label.as_str())])
                .set(state.bytes as f64);
        }
    }

    /// Evicts least-recently-touched datasets' artifacts until the
    /// resident total fits the byte budget. `keep` (the dataset that
    /// triggered the check) is evicted only when nothing else is left —
    /// a budget smaller than a single dataset still serves correctly,
    /// just re-materializing on every touch.
    fn evict_over_budget(&self, keep: DatasetId) {
        let Some(backend) = &self.store else { return };
        let Some(budget) = backend.byte_budget else {
            return;
        };
        loop {
            let victim = {
                let mut residency = backend
                    .residency
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                if residency.total() <= budget {
                    return;
                }
                let victim = residency
                    .stalest(keep)
                    .or_else(|| residency.resident.keys().next().copied());
                match victim {
                    Some(id) => {
                        residency.resident.remove(&id);
                        id
                    }
                    None => return,
                }
            };
            self.drop_artifacts(victim);
        }
    }

    /// Drops one dataset's resident artifacts and every prepared join
    /// holding them (prepared pair state over an evicted dataset would
    /// otherwise keep the artifacts alive). In-flight runs keep their
    /// `Arc`s and finish unaffected.
    fn drop_artifacts(&self, id: DatasetId) {
        let state = self
            .datasets
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(id as usize)
            .cloned();
        if let Some(state) = state {
            *state
                .artifacts
                .write()
                .unwrap_or_else(|poisoned| poisoned.into_inner()) = None;
        }
        self.prepared
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .map
            .retain(|&(a, b), _| a != id && b != id);
        if self.obs.registry.is_enabled() {
            let label = id.to_string();
            self.obs
                .registry
                .gauge("msj_store_bytes", &[("dataset", label.as_str())])
                .set(0.0);
            self.obs
                .registry
                .counter("msj_store_evictions_total", &[])
                .inc();
        }
    }

    /// The handle of a registered dataset (`None` for unknown ids).
    pub fn dataset(&self, id: DatasetId) -> Option<DatasetHandle> {
        self.datasets
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(id as usize)
            .map(|state| DatasetHandle {
                state: state.clone(),
            })
    }

    /// Number of registered datasets.
    pub fn num_datasets(&self) -> usize {
        self.datasets
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .len()
    }

    fn require(&self, id: DatasetId) -> Result<DatasetHandle, EngineError> {
        self.dataset(id).ok_or(EngineError::UnknownDataset(id))
    }

    fn exact_cost_kind(&self) -> ExactCostKind {
        match self.config.exact {
            ExactAlgorithm::TrStar { .. } => ExactCostKind::TrStar,
            _ => ExactCostKind::PlaneSweep,
        }
    }

    /// Panics unless `handle` was registered on *this* engine: foreign
    /// handles carry their own engine's ids, and admitting one would
    /// poison the id-keyed prepared-join cache with results computed
    /// over the wrong datasets.
    fn assert_registered(&self, handle: &DatasetHandle) {
        let owned = self
            .datasets
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(handle.id() as usize)
            .is_some_and(|state| Arc::ptr_eq(state, &handle.state));
        assert!(
            owned,
            "dataset handle {} was not registered on this engine",
            handle.id()
        );
    }

    /// The cached prepared join of a dataset-id pair, if one was built
    /// (refreshes the pair's LRU recency).
    fn cached_join(&self, key: (DatasetId, DatasetId)) -> Option<Arc<PreparedJoin>> {
        self.prepared
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(key)
    }

    /// The owned prepared join of two registered datasets, building it
    /// on first use and serving the cached `Arc` afterwards. A self-join
    /// is `prepare_join(&h, &h)`. Panics if either handle was registered
    /// on a different engine.
    ///
    /// Per-dataset Step-0 state (trees, approximation stores, TR*
    /// representations) is *shared* with the datasets — only the
    /// pair-level state (the raster signatures on the pair's shared
    /// grid, the Step-1 source wiring) is built here.
    pub fn prepare_join(&self, a: &DatasetHandle, b: &DatasetHandle) -> Arc<PreparedJoin> {
        match self.try_prepare_join(a, b) {
            Ok(prepared) => prepared,
            Err(err) => panic!("prepare_join failed: {err}"),
        }
    }

    /// [`Self::prepare_join`] surfacing preparation failures — today
    /// only [`EngineError::DegradedUnavailable`], when the pair's raster
    /// signatures fail verification and [`JoinConfig::allow_degraded`]
    /// is off — as structured errors.
    pub fn try_prepare_join(
        &self,
        a: &DatasetHandle,
        b: &DatasetHandle,
    ) -> Result<Arc<PreparedJoin>, EngineError> {
        self.assert_registered(a);
        self.assert_registered(b);
        let key = (a.id(), b.id());
        let enabled = self.obs.registry.is_enabled();
        if let Some(prepared) = self.cached_join(key) {
            if enabled {
                self.obs
                    .registry
                    .counter("msj_prepared_cache_hits_total", &[])
                    .inc();
            }
            return Ok(prepared);
        }
        if enabled {
            self.obs
                .registry
                .counter("msj_prepared_cache_misses_total", &[])
                .inc();
        }
        // Build outside the cache lock so a slow pair-level Step 0 never
        // blocks requests for other pairs; a concurrent double build is
        // harmless (both are deterministic over the same shared state)
        // and the first insert wins.
        let built = Arc::new(self.build_prepared(a, b)?);
        let (served, evicted) = self
            .prepared
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(key, built);
        if enabled && evicted > 0 {
            self.obs
                .registry
                .counter("msj_prepared_cache_evictions_total", &[])
                .add(evicted);
        }
        Ok(served)
    }

    fn build_prepared(
        &self,
        a: &DatasetHandle,
        b: &DatasetHandle,
    ) -> Result<PreparedJoin, EngineError> {
        let enabled = self.obs.registry.is_enabled();
        let t_pair = enabled.then(Instant::now);
        let (sa, sb) = (&a.state, &b.state);
        let arts_a = self.artifacts(sa);
        let arts_b = if Arc::ptr_eq(sa, sb) {
            arts_a.clone()
        } else {
            self.artifacts(sb)
        };
        let source = candidates::join_source_with(
            &self.config,
            RelHandle::from(sa.relation.clone()),
            RelHandle::from(sb.relation.clone()),
            SharedStep1 {
                tree: arts_a.tree.clone(),
            },
            SharedStep1 {
                tree: arts_b.tree.clone(),
            },
        );
        let mut filter = GeometricFilter::from_shared(
            arts_a.conservative.clone(),
            arts_b.conservative.clone(),
            arts_a.progressive.clone(),
            arts_b.progressive.clone(),
            self.config.false_area_test,
        );
        // Degraded mode: the raster stores carry build-time checksums;
        // a mismatch (or an injected `raster_corrupt` fault) means Step
        // 2a would filter with untrustworthy signatures — and a
        // persisted pair segment whose raster sections fail *their*
        // checksums means the same thing one media generation earlier.
        // The fallback strips the rasters for this pair — every Step-2
        // survivor goes to exact geometry, answers stay correct, only
        // the §4 filter speedup is lost.
        let mut degraded = None;
        if self.config.raster.enabled {
            // Store-backed pairs adopt their persisted signatures
            // (checksums verified, both sides on one grid and as long as
            // their relations) instead of re-rasterizing; misses and
            // stale tags rebuild and write through.
            let mut attached = false;
            let mut corrupt: Vec<&'static str> = Vec::new();
            if let Some(backend) = &self.store {
                let read =
                    self.with_store_fault(|tamper| backend.store.read_pair(sa.id, sb.id, tamper));
                if let Some(pair) = read.ok().flatten().filter(|p| p.config_tag == self.tag) {
                    let side = |section, relation: &Relation, corrupt: &mut Vec<_>| {
                        adopt(
                            Some(&pair),
                            section,
                            relation.len(),
                            RasterStore::from_bytes,
                            RasterStore::len,
                            corrupt,
                        )
                    };
                    let ra = side(Section::RasterA, &sa.relation, &mut corrupt);
                    let rb = side(Section::RasterB, &sb.relation, &mut corrupt);
                    match (ra, rb) {
                        (Some(ra), Some(rb)) if ra.grid() == rb.grid() => {
                            filter = filter.with_shared_raster(Arc::new(ra), Arc::new(rb));
                            attached = true;
                        }
                        // Signatures on two grids are not comparable:
                        // neither side can be trusted.
                        (Some(_), Some(_)) => {
                            corrupt.extend([Section::RasterA.name(), Section::RasterB.name()])
                        }
                        _ => {}
                    }
                    if !corrupt.is_empty() {
                        degraded = Some("store_corrupt");
                    }
                }
            }
            if enabled {
                for section in &corrupt {
                    self.obs
                        .registry
                        .counter("msj_store_checksum_failures_total", &[("section", section)])
                        .inc();
                }
            }
            if degraded.is_none() && !attached {
                // Pair-level Step 0: both relations rasterized on one
                // shared grid (signatures are only comparable on the
                // same grid, so they cannot be a per-dataset artifact).
                filter =
                    filter.with_raster(&sa.relation, &sb.relation, self.config.raster.grid_bits);
                if let Some(backend) = &self.store {
                    if let Some((ra, rb)) = filter.raster_stores() {
                        let _ = backend.store.write_pair(
                            sa.id,
                            sb.id,
                            self.tag,
                            &[
                                (Section::RasterA, ra.to_bytes()),
                                (Section::RasterB, rb.to_bytes()),
                            ],
                        );
                    }
                }
            }
            let session = if self.fault_spent.load(Ordering::Acquire) {
                FaultSession::inert()
            } else {
                FaultSession::new(self.fault)
            };
            if degraded.is_none() {
                if session.corrupt_raster() {
                    self.fault_spent.store(true, Ordering::Release);
                    degraded = Some("fault_injected");
                } else if !filter.verify_raster() {
                    degraded = Some("raster_checksum");
                }
            }
            if let Some(reason) = degraded {
                if !self.config.allow_degraded {
                    return Err(EngineError::DegradedUnavailable { reason });
                }
                filter.strip_raster();
                if self.obs.registry.is_enabled() {
                    self.obs
                        .registry
                        .counter("msj_degraded_mode_total", &[("reason", reason)])
                        .inc();
                    if let Some(site) = session.fired() {
                        self.obs
                            .registry
                            .counter("msj_fault_injected_total", &[("site", site)])
                            .inc();
                    }
                }
                if self.obs.traces.enabled() {
                    self.obs.traces.push(Trace {
                        seq: self.obs.traces.next_seq(),
                        kind: "degraded_mode",
                        datasets: (a.id(), b.id()),
                        admitted: true,
                        estimated_s: 0.0,
                        latency_nanos: 0,
                        candidates: 0,
                        results: 0,
                        dispatch: self.obs.dispatch,
                        steps: TraceSteps::default(),
                    });
                }
            }
        }
        let filter = filter.with_dispatch(self.config.kernel_dispatch());
        let exact = ExactProcessor::from_shared(
            self.config.exact,
            RelHandle::from(sa.relation.clone()),
            RelHandle::from(sb.relation.clone()),
            arts_a.trstar.clone(),
            arts_b.trstar.clone(),
        );
        // A self-join shares one dataset on both sides — count its
        // registration cost once.
        let datasets_step0 = if Arc::ptr_eq(sa, sb) {
            sa.step0_nanos
        } else {
            sa.step0_nanos + sb.step0_nanos
        };
        let step0_nanos = datasets_step0 + t_pair.map_or(0, |t| t.elapsed().as_nanos() as u64);
        Ok(PreparedJoin {
            exact_cost_kind: self.exact_cost_kind(),
            scoped: ScopedPreparedJoin::from_parts(
                self.config.execution,
                source,
                filter,
                exact,
                step0_nanos,
                self.config.obs,
            ),
            kind: if a.id() == b.id() {
                "self_join"
            } else {
                "join"
            },
            params: self.params,
            obs: self.obs.clone(),
            fault: self.fault,
            fault_spent: self.fault_spent.clone(),
            deadline: self.config.deadline,
            degraded,
            history: Mutex::new(VecDeque::with_capacity(RUN_HISTORY)),
            a: a.clone(),
            b: b.clone(),
        })
    }

    /// Point selection against a registered dataset (three steps: index
    /// probe, approximation filter, exact containment).
    pub fn point_query(&self, dataset: &DatasetHandle, point: Point) -> SelectionResponse {
        let artifacts = self.artifacts(&dataset.state);
        let mut exact_ops = OpCounts::new();
        if !self.obs.registry.is_enabled() {
            let (ids, stats) = artifacts.selection.point_query(point, &mut exact_ops);
            return self.selection_response(ids, stats, exact_ops);
        }
        let spans = StepSpans::new();
        let t_req = Span::start();
        let (ids, stats) =
            artifacts
                .selection
                .point_query_observed(point, &mut exact_ops, Some(&spans));
        self.record_selection(
            "point",
            dataset,
            &spans,
            t_req.elapsed_nanos(),
            &stats,
            &ids,
        );
        self.selection_response(ids, stats, exact_ops)
    }

    /// Window selection against a registered dataset.
    pub fn window_query(&self, dataset: &DatasetHandle, window: Rect) -> SelectionResponse {
        let artifacts = self.artifacts(&dataset.state);
        let mut exact_ops = OpCounts::new();
        if !self.obs.registry.is_enabled() {
            let (ids, stats) = artifacts.selection.window_query(window, &mut exact_ops);
            return self.selection_response(ids, stats, exact_ops);
        }
        let spans = StepSpans::new();
        let t_req = Span::start();
        let (ids, stats) =
            artifacts
                .selection
                .window_query_observed(window, &mut exact_ops, Some(&spans));
        self.record_selection(
            "window",
            dataset,
            &spans,
            t_req.elapsed_nanos(),
            &stats,
            &ids,
        );
        self.selection_response(ids, stats, exact_ops)
    }

    /// Serves a *batch* of point queries against one dataset through a
    /// single shared Step-1 descent and one filter pass (the
    /// cross-request batching path of a serving front). Each response is
    /// identical to what [`point_query`](SpatialEngine::point_query)
    /// returns for the same point — ids, filter counts and exact-op
    /// counts agree exactly; only the simulated-buffer physical-read
    /// attribution can differ, because the batch keeps the buffer warm.
    pub fn point_query_batch(
        &self,
        dataset: &DatasetHandle,
        points: &[Point],
    ) -> Vec<SelectionResponse> {
        let artifacts = self.artifacts(&dataset.state);
        let mut merged_ops = OpCounts::new();
        if !self.obs.registry.is_enabled() {
            return artifacts
                .selection
                .point_query_batch(points, &mut merged_ops, None)
                .into_iter()
                .map(|(ids, stats, ops)| self.selection_response(ids, stats, ops))
                .collect();
        }
        let spans = StepSpans::new();
        let t_req = Span::start();
        let raw = artifacts
            .selection
            .point_query_batch(points, &mut merged_ops, Some(&spans));
        self.record_selection_batch("point", dataset, &spans, t_req.elapsed_nanos(), &raw);
        raw.into_iter()
            .map(|(ids, stats, ops)| self.selection_response(ids, stats, ops))
            .collect()
    }

    /// Batched window queries — the window-shaped counterpart of
    /// [`point_query_batch`](SpatialEngine::point_query_batch), with the
    /// same identical-per-query contract.
    pub fn window_query_batch(
        &self,
        dataset: &DatasetHandle,
        windows: &[Rect],
    ) -> Vec<SelectionResponse> {
        let artifacts = self.artifacts(&dataset.state);
        let mut merged_ops = OpCounts::new();
        if !self.obs.registry.is_enabled() {
            return artifacts
                .selection
                .window_query_batch(windows, &mut merged_ops, None)
                .into_iter()
                .map(|(ids, stats, ops)| self.selection_response(ids, stats, ops))
                .collect();
        }
        let spans = StepSpans::new();
        let t_req = Span::start();
        let raw = artifacts
            .selection
            .window_query_batch(windows, &mut merged_ops, Some(&spans));
        self.record_selection_batch("window", dataset, &spans, t_req.elapsed_nanos(), &raw);
        raw.into_iter()
            .map(|(ids, stats, ops)| self.selection_response(ids, stats, ops))
            .collect()
    }

    /// Publishes one finished selection batch: per-query latency samples
    /// (the batch wall-clock amortized over its queries — the number a
    /// serving percentile should see), step counters added **once** for
    /// the whole batch, and one trace per query.
    fn record_selection_batch(
        &self,
        kind: &'static str,
        dataset: &DatasetHandle,
        spans: &StepSpans,
        batch_nanos: u64,
        raw: &[(Vec<ObjectId>, QueryStats, OpCounts)],
    ) {
        if raw.is_empty() {
            return;
        }
        let reg = &self.obs.registry;
        let amortized = batch_nanos / raw.len() as u64;
        let hist = reg.histogram("msj_request_latency_nanos", &[("kind", kind)]);
        for _ in raw {
            hist.record(amortized);
        }
        for step in [Step::Step1, Step::Step2, Step::Step3] {
            reg.counter("msj_step_nanos_total", &[("step", step.name())])
                .add(spans.get(step));
        }
        if self.obs.traces.enabled() {
            for (ids, stats, _) in raw {
                self.obs.traces.push(Trace {
                    seq: self.obs.traces.next_seq(),
                    kind,
                    datasets: (dataset.id(), dataset.id()),
                    admitted: true,
                    estimated_s: 0.0,
                    latency_nanos: amortized,
                    candidates: stats.candidates,
                    results: ids.len() as u64,
                    dispatch: self.obs.dispatch,
                    steps: TraceSteps::default(),
                });
            }
        }
    }

    /// Publishes one finished selection: latency histogram, per-step
    /// counters and (when tracing) the request trace.
    fn record_selection(
        &self,
        kind: &'static str,
        dataset: &DatasetHandle,
        spans: &StepSpans,
        latency_nanos: u64,
        stats: &QueryStats,
        ids: &[ObjectId],
    ) {
        let reg = &self.obs.registry;
        reg.histogram("msj_request_latency_nanos", &[("kind", kind)])
            .record(latency_nanos);
        for step in [Step::Step1, Step::Step2, Step::Step3] {
            reg.counter("msj_step_nanos_total", &[("step", step.name())])
                .add(spans.get(step));
        }
        if self.obs.traces.enabled() {
            self.obs.traces.push(Trace {
                seq: self.obs.traces.next_seq(),
                kind,
                datasets: (dataset.id(), dataset.id()),
                admitted: true,
                estimated_s: 0.0,
                latency_nanos,
                candidates: stats.candidates,
                results: ids.len() as u64,
                dispatch: self.obs.dispatch,
                steps: TraceSteps {
                    step0_nanos: 0,
                    step1_nanos: spans.get(Step::Step1),
                    step2_nanos: spans.get(Step::Step2),
                    step2a_nanos: 0,
                    step3_nanos: spans.get(Step::Step3),
                },
            });
        }
    }

    fn selection_response(
        &self,
        ids: Vec<ObjectId>,
        stats: QueryStats,
        exact_ops: OpCounts,
    ) -> SelectionResponse {
        // The §5 model applied to one selection: every index page read
        // plus one object access + exact test per unidentified candidate.
        let kind = self.exact_cost_kind();
        let access_factor = match kind {
            ExactCostKind::PlaneSweep => 1.0,
            ExactCostKind::TrStar => self.params.trstar_access_factor,
        };
        let identified = stats.filter_false_hits + stats.filter_hits;
        let cost = CostBreakdown {
            mbr_join_s: stats.physical_reads as f64 * self.params.page_access_ms / 1000.0,
            object_access_s: stats.exact_tests as f64 * self.params.page_access_ms * access_factor
                / 1000.0,
            exact_test_s: stats.exact_tests as f64
                * match kind {
                    ExactCostKind::PlaneSweep => self.params.sweep_exact_ms,
                    ExactCostKind::TrStar => self.params.trstar_exact_ms,
                }
                / 1000.0,
            filter_yield_estimated: self.params.expected_filter_yield,
            filter_yield_observed: if stats.candidates == 0 {
                0.0
            } else {
                identified as f64 / stats.candidates as f64
            },
            raster_decided_observed: 0.0,
        };
        SelectionResponse {
            ids,
            stats,
            exact_ops,
            admission: Admission {
                estimated_s: cost.total_s(),
                from_history: false,
                cost,
            },
        }
    }

    fn run_join_request(
        &self,
        a: DatasetId,
        b: DatasetId,
        execution: Option<Execution>,
        cancel: Option<&CancelToken>,
    ) -> Result<Response, EngineError> {
        // A token cancelled before any work begins short-circuits the
        // whole request — no admission, no preparation.
        if let Some(token) = cancel {
            if token.is_cancelled() {
                let err = match token.reason() {
                    Some(CancelReason::DeadlineExpired) => EngineError::DeadlineExceeded {
                        elapsed: token.elapsed(),
                        partial_candidates: 0,
                    },
                    _ => EngineError::Cancelled {
                        partial_candidates: 0,
                    },
                };
                if self.obs.registry.is_enabled() {
                    let name = match err {
                        EngineError::DeadlineExceeded { .. } => "msj_deadline_exceeded_total",
                        _ => "msj_request_cancelled_total",
                    };
                    self.obs.registry.counter(name, &[]).inc();
                }
                return Err(err);
            }
        }
        let (ha, hb) = (self.require(a)?, self.require(b)?);
        // Admission runs before any pair-level Step 0 is built: a
        // request the limit refuses must not pay the preparation the
        // limit exists to avoid. History is consulted when the pair was
        // already prepared; otherwise the a-priori size-based estimate
        // decides.
        let (estimated_s, from_history) = match self.cached_join((ha.id(), hb.id())) {
            Some(prepared) => prepared.admission_estimate(&self.params),
            None => (
                a_priori_estimate(ha.len(), hb.len(), self.exact_cost_kind(), &self.params),
                false,
            ),
        };
        let enabled = self.obs.registry.is_enabled();
        if let Some(limit_s) = self.admission_limit() {
            if estimated_s > limit_s {
                if enabled {
                    self.obs
                        .registry
                        .counter("msj_admission_shed_total", &[])
                        .inc();
                }
                if self.obs.traces.enabled() {
                    self.obs.traces.push(Trace {
                        seq: self.obs.traces.next_seq(),
                        kind: if a == b { "self_join" } else { "join" },
                        datasets: (a, b),
                        admitted: false,
                        estimated_s,
                        latency_nanos: 0,
                        candidates: 0,
                        results: 0,
                        dispatch: self.obs.dispatch,
                        steps: TraceSteps::default(),
                    });
                }
                return Err(EngineError::AdmissionDenied {
                    estimated_s,
                    limit_s,
                    from_history,
                });
            }
        }
        if enabled {
            self.obs
                .registry
                .counter("msj_admission_accept_total", &[])
                .inc();
        }
        let prepared = self.try_prepare_join(&ha, &hb)?;
        let result = prepared.try_run_with(execution.unwrap_or(self.config.execution), cancel)?;
        let cost = figure18_cost(&result.stats, self.exact_cost_kind(), &self.params);
        if enabled {
            // §5 feedback: how far the admission-time estimate missed
            // the cost the run actually modeled out to.
            let observed_s = cost.total_s();
            if observed_s > 0.0 {
                self.obs
                    .registry
                    .gauge("msj_admission_error_ratio", &[])
                    .set((estimated_s - observed_s).abs() / observed_s);
            }
        }
        Ok(Response::Join(JoinResponse {
            pairs: result.pairs,
            stats: result.stats,
            admission: Admission {
                estimated_s,
                from_history,
                cost,
            },
        }))
    }

    /// Serves one request.
    pub fn submit(&self, request: Request) -> Result<Response, EngineError> {
        self.submit_inner(request, None)
    }

    /// Serves one request under a caller-owned cancel token. Cancel the
    /// token from any thread (or arm it with a deadline via
    /// [`CancelToken::with_deadline`]) and the request stops
    /// cooperatively at the next batch boundary, returning
    /// [`EngineError::Cancelled`] / [`EngineError::DeadlineExceeded`].
    /// The engine stays fully serviceable afterwards.
    pub fn submit_with_cancel(
        &self,
        request: Request,
        cancel: &CancelToken,
    ) -> Result<Response, EngineError> {
        self.submit_inner(request, Some(cancel))
    }

    fn submit_inner(
        &self,
        request: Request,
        cancel: Option<&CancelToken>,
    ) -> Result<Response, EngineError> {
        let result = match request {
            Request::Join { a, b, execution } => self.run_join_request(a, b, execution, cancel),
            Request::SelfJoin { dataset, execution } => {
                self.run_join_request(dataset, dataset, execution, cancel)
            }
            Request::Point { dataset, point } => self
                .require(dataset)
                .map(|handle| Response::Selection(self.point_query(&handle, point))),
            Request::Window { dataset, window } => self
                .require(dataset)
                .map(|handle| Response::Selection(self.window_query(&handle, window))),
        };
        // One increment per failed request, whatever the failure path —
        // deeper layers own the cause-specific counters.
        if let Err(err) = &result {
            if self.obs.registry.is_enabled() {
                self.obs
                    .registry
                    .counter("msj_request_errors_total", &[("kind", err.kind())])
                    .inc();
            }
        }
        result
    }

    /// Serves a batch of requests in order, one result per request.
    /// Failures are per-request — a denied or malformed request never
    /// blocks the rest of the batch.
    pub fn submit_batch(
        &self,
        requests: impl IntoIterator<Item = Request>,
    ) -> Vec<Result<Response, EngineError>> {
        requests.into_iter().map(|r| self.submit(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::MultiStepJoin;

    const _: () = {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SpatialEngine>();
        assert_send_sync::<PreparedJoin>();
        assert_send_sync::<DatasetHandle>();
    };

    fn sorted(mut v: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        v.sort_unstable();
        v
    }

    #[test]
    fn engine_join_matches_one_shot_pipeline() {
        let a = msj_datagen::small_carto(40, 24.0, 1001);
        let b = msj_datagen::small_carto(40, 24.0, 1002);
        let expect = MultiStepJoin::new(JoinConfig::default()).execute(&a, &b);
        let engine = SpatialEngine::new(JoinConfig::default());
        let (ha, hb) = (engine.register(a), engine.register(b));
        assert_eq!((ha.id(), hb.id()), (0, 1));
        let prepared = engine.prepare_join(&ha, &hb);
        let got = prepared.run();
        assert_eq!(got.pairs, expect.pairs);
        assert_eq!(got.stats.exact_ops, expect.stats.exact_ops);
        assert_eq!(
            got.stats.mbr_join.candidates,
            expect.stats.mbr_join.candidates
        );
        // The cache serves the same prepared join again.
        assert!(Arc::ptr_eq(&prepared, &engine.prepare_join(&ha, &hb)));
    }

    #[test]
    fn prepared_cache_evicts_least_recently_used_beyond_cap() {
        let engine = SpatialEngine::new(JoinConfig::builder().prepared_cache_cap(2).build());
        let a = engine.register(msj_datagen::small_carto(12, 16.0, 2001));
        let b = engine.register(msj_datagen::small_carto(12, 16.0, 2002));
        let c = engine.register(msj_datagen::small_carto(12, 16.0, 2003));
        let ab = engine.prepare_join(&a, &b);
        let ac = engine.prepare_join(&a, &c);
        let expect_ac = ac.run().pairs;
        // Touch (a,b) so (a,c) is the stalest pair, then overflow the cap.
        assert!(Arc::ptr_eq(&ab, &engine.prepare_join(&a, &b)));
        let _bc = engine.prepare_join(&b, &c);
        assert_eq!(
            engine
                .metrics()
                .snapshot()
                .counter("msj_prepared_cache_evictions_total"),
            1
        );
        // The touched pair survived; the evicted pair is rebuilt on next
        // use (fresh Arc, identical results).
        assert!(Arc::ptr_eq(&ab, &engine.prepare_join(&a, &b)));
        let rebuilt = engine.prepare_join(&a, &c);
        assert!(!Arc::ptr_eq(&ac, &rebuilt));
        assert_eq!(rebuilt.run().pairs, expect_ac);
    }

    #[test]
    fn kernel_dispatch_gauge_marks_the_selected_path() {
        let engine = SpatialEngine::new(JoinConfig::default());
        let snap = engine.metrics().snapshot();
        let label = JoinConfig::default().kernel_dispatch().label();
        assert_eq!(
            snap.gauge(&format!("msj_kernel_dispatch{{path=\"{label}\"}}")),
            1.0
        );
        // Forcing scalar moves the marker.
        let scalar = SpatialEngine::new(JoinConfig::builder().force_scalar(true).build());
        let snap = scalar.metrics().snapshot();
        assert_eq!(snap.gauge("msj_kernel_dispatch{path=\"scalar\"}"), 1.0);
        // Traces carry the same label per request.
        let traced = SpatialEngine::new(
            JoinConfig::builder()
                .obs(msj_obs::ObsConfig::with_traces(8))
                .build(),
        );
        let h = traced.register(msj_datagen::small_carto(10, 16.0, 2004));
        let _ = traced.prepare_join(&h, &h).run();
        let traces = traced.recent_traces();
        assert!(!traces.is_empty());
        assert!(traces
            .iter()
            .all(|t| t.dispatch == traced.config().kernel_dispatch().label()));
    }

    #[test]
    fn submit_surface_covers_all_request_shapes() {
        let rel = msj_datagen::small_carto(40, 24.0, 1003);
        let world = rel.bounding_rect().unwrap();
        let engine = SpatialEngine::new(JoinConfig::default());
        let h = engine.register(rel.clone());
        let p = Point::new(
            world.xmin() + world.width() * 0.4,
            world.ymin() + world.height() * 0.6,
        );
        let w = Rect::from_bounds(
            p.x,
            p.y,
            p.x + world.width() * 0.1,
            p.y + world.height() * 0.1,
        );
        let responses = engine.submit_batch([
            Request::SelfJoin {
                dataset: h.id(),
                execution: Some(Execution::Fused { threads: 2 }),
            },
            Request::Point {
                dataset: h.id(),
                point: p,
            },
            Request::Window {
                dataset: h.id(),
                window: w,
            },
            Request::Point {
                dataset: 99,
                point: p,
            },
        ]);
        let Ok(Response::Join(join)) = &responses[0] else {
            panic!("self-join failed: {:?}", responses[0].as_ref().err());
        };
        // Self-join ground truth by exhaustive scan.
        let mut expect = Vec::new();
        let mut counts = OpCounts::new();
        for oa in rel.iter() {
            for ob in rel.iter() {
                if oa.mbr().intersects(&ob.mbr())
                    && msj_exact::quadratic_intersects(&oa.region, &ob.region, &mut counts)
                {
                    expect.push((oa.id, ob.id));
                }
            }
        }
        assert_eq!(sorted(join.pairs.clone()), sorted(expect));
        let Ok(Response::Selection(point)) = &responses[1] else {
            panic!("point query failed");
        };
        let expect_point: Vec<ObjectId> = rel
            .iter()
            .filter(|o| o.region.contains_point(p))
            .map(|o| o.id)
            .collect();
        let mut got = point.ids.clone();
        got.sort_unstable();
        assert_eq!(got, expect_point);
        assert!(matches!(responses[2], Ok(Response::Selection(_))));
        assert!(matches!(responses[3], Err(EngineError::UnknownDataset(99))));
    }

    #[test]
    #[should_panic(expected = "not registered on this engine")]
    fn foreign_handles_are_rejected() {
        let rel = msj_datagen::small_carto(10, 16.0, 1009);
        let this = SpatialEngine::new(JoinConfig::default());
        let other = SpatialEngine::new(JoinConfig::default());
        let mine = this.register(rel.clone());
        let foreign = other.register(rel);
        // A foreign handle must never reach the id-keyed cache.
        let _ = this.prepare_join(&mine, &foreign);
    }

    #[test]
    fn admission_refuses_before_preparing() {
        let a = msj_datagen::small_carto(30, 24.0, 1010);
        let b = msj_datagen::small_carto(30, 24.0, 1011);
        let engine = SpatialEngine::new(JoinConfig::default()).with_admission_limit(0.0);
        let (ha, hb) = (engine.register(a), engine.register(b));
        let denied = engine.submit(Request::Join {
            a: ha.id(),
            b: hb.id(),
            execution: None,
        });
        assert!(matches!(denied, Err(EngineError::AdmissionDenied { .. })));
        // The refused join never built (or cached) pair-level state.
        assert!(engine.cached_join((ha.id(), hb.id())).is_none());
    }

    #[test]
    fn responses_carry_cost_accounting() {
        let a = msj_datagen::small_carto(40, 24.0, 1004);
        let b = msj_datagen::small_carto(40, 24.0, 1005);
        let engine = SpatialEngine::new(JoinConfig::default());
        let (ha, hb) = (engine.register(a), engine.register(b));
        let first = engine
            .submit(Request::Join {
                a: ha.id(),
                b: hb.id(),
                execution: None,
            })
            .unwrap();
        // First submission: a-priori estimate.
        assert!(!first.admission().from_history);
        assert!(first.admission().estimated_s > 0.0);
        let Response::Join(first) = &first else {
            panic!()
        };
        assert!(first.admission.cost.filter_yield_observed > 0.0);
        assert!(first.admission.cost.raster_decided_observed > 0.0);
        // Second submission: the estimate comes from the observed run.
        let second = engine
            .submit(Request::Join {
                a: ha.id(),
                b: hb.id(),
                execution: None,
            })
            .unwrap();
        assert!(second.admission().from_history);
        let observed = figure18_cost(&first.stats, ExactCostKind::TrStar, engine.cost_model());
        assert!((second.admission().estimated_s - observed.total_s()).abs() < 1e-9);
    }

    #[test]
    fn admission_limit_refuses_expensive_joins() {
        let a = msj_datagen::small_carto(30, 24.0, 1006);
        let b = msj_datagen::small_carto(30, 24.0, 1007);
        let engine = SpatialEngine::new(JoinConfig::default()).with_admission_limit(0.0);
        let (ha, hb) = (engine.register(a), engine.register(b));
        let denied = engine.submit(Request::Join {
            a: ha.id(),
            b: hb.id(),
            execution: None,
        });
        assert!(
            matches!(denied, Err(EngineError::AdmissionDenied { .. })),
            "zero budget must refuse every join: {denied:?}"
        );
        // Selections are not admission-controlled (they are the cheap
        // traffic admission control protects).
        let world = ha.relation().bounding_rect().unwrap();
        let ok = engine.submit(Request::Point {
            dataset: ha.id(),
            point: Point::new(world.xmin(), world.ymin()),
        });
        assert!(ok.is_ok());
    }

    #[test]
    fn metrics_and_traces_populate_after_requests() {
        let a = msj_datagen::small_carto(40, 24.0, 1012);
        let b = msj_datagen::small_carto(40, 24.0, 1013);
        let world = a.bounding_rect().unwrap();
        let engine =
            SpatialEngine::new(JoinConfig::builder().obs(ObsConfig::with_traces(8)).build());
        let (ha, hb) = (engine.register(a), engine.register(b));
        let p = Point::new(
            world.xmin() + world.width() * 0.5,
            world.ymin() + world.height() * 0.5,
        );
        let w = Rect::from_bounds(
            p.x,
            p.y,
            p.x + world.width() * 0.1,
            p.y + world.height() * 0.1,
        );
        let responses = engine.submit_batch([
            Request::Join {
                a: ha.id(),
                b: hb.id(),
                execution: None,
            },
            Request::Point {
                dataset: ha.id(),
                point: p,
            },
            Request::Window {
                dataset: ha.id(),
                window: w,
            },
        ]);
        assert!(responses.iter().all(|r| r.is_ok()));
        let snap = engine.metrics().snapshot();
        assert_eq!(snap.counter("msj_datasets_registered_total"), 2);
        assert_eq!(snap.counter("msj_admission_accept_total"), 1);
        assert_eq!(snap.counter("msj_prepared_cache_misses_total"), 1);
        for kind in ["join", "point", "window"] {
            let key = format!("msj_request_latency_nanos{{kind=\"{kind}\"}}");
            let hist = snap
                .histogram(&key)
                .unwrap_or_else(|| panic!("{key} missing"));
            assert_eq!(hist.count, 1, "{key}");
            assert!(hist.sum > 0, "{key} recorded no time");
        }
        assert!(snap.counter("msj_step_nanos_total{step=\"step0\"}") > 0);
        assert!(snap.counter("msj_step_nanos_total{step=\"step1\"}") > 0);
        // Both exporters render the live values.
        let prom = engine.metrics().render_prometheus();
        for family in [
            "msj_request_latency_nanos",
            "msj_step_nanos_total",
            "msj_admission_shed_total",
        ] {
            assert!(prom.contains(family), "{family} missing from exposition");
        }
        assert!(engine
            .metrics()
            .snapshot_json()
            .contains(msj_obs::SNAPSHOT_SCHEMA));
        // The ring carries one trace per request, newest last.
        let traces = engine.recent_traces();
        assert_eq!(traces.len(), 3);
        assert!(traces.iter().all(|t| t.admitted));
        let join_trace = traces
            .iter()
            .find(|t| t.kind == "join")
            .expect("join trace");
        assert!(join_trace.candidates > 0);
        assert!(join_trace.estimated_s > 0.0);
        assert_eq!(join_trace.datasets, (ha.id(), hb.id()));
    }

    #[test]
    fn disabled_obs_is_silent_and_changes_nothing() {
        let a = msj_datagen::small_carto(40, 24.0, 1014);
        let b = msj_datagen::small_carto(40, 24.0, 1015);
        let on = SpatialEngine::new(JoinConfig::default());
        let off = SpatialEngine::new(JoinConfig::builder().obs(ObsConfig::disabled()).build());
        let (oa, ob) = (on.register(a.clone()), on.register(b.clone()));
        let (fa, fb) = (off.register(a), off.register(b));
        let want = on.prepare_join(&oa, &ob).run();
        let got = off.prepare_join(&fa, &fb).run();
        assert_eq!(got.pairs, want.pairs);
        assert_eq!(got.stats.exact_ops, want.stats.exact_ops);
        // Disabled means zero clock reads: every wall-clock stat is zero
        // and the registry stays empty.
        assert_eq!(got.stats.step0_nanos, 0);
        assert_eq!(
            got.stats.step1_nanos + got.stats.step2_nanos + got.stats.step3_nanos,
            0
        );
        assert!(got.worker_lanes.is_empty());
        let snap = off.metrics().snapshot();
        assert_eq!(snap.counter("msj_datasets_registered_total"), 0);
        assert_eq!(snap.counter("msj_request_latency_nanos{kind=\"join\"}"), 0);
        assert!(off.recent_traces().is_empty());
        // The enabled engine recorded the same traffic.
        assert!(
            on.metrics()
                .snapshot()
                .counter("msj_step_nanos_total{step=\"step1\"}")
                > 0
        );
    }

    #[test]
    fn run_history_is_a_bounded_ring() {
        let a = msj_datagen::small_carto(12, 16.0, 1016);
        let b = msj_datagen::small_carto(12, 16.0, 1017);
        let engine = SpatialEngine::new(JoinConfig::default());
        let (ha, hb) = (engine.register(a), engine.register(b));
        let prepared = engine.prepare_join(&ha, &hb);
        for _ in 0..RUN_HISTORY + 5 {
            prepared.run();
        }
        let history = prepared.run_history();
        assert_eq!(history.len(), RUN_HISTORY);
        assert_eq!(
            history.last().unwrap().result_pairs,
            prepared.last_stats().unwrap().result_pairs
        );
        assert!(history
            .iter()
            .all(|s| s.result_pairs == prepared.last_stats().unwrap().result_pairs));
    }

    #[test]
    fn shed_requests_are_counted_and_traced() {
        let a = msj_datagen::small_carto(30, 24.0, 1018);
        let b = msj_datagen::small_carto(30, 24.0, 1019);
        let engine =
            SpatialEngine::new(JoinConfig::builder().obs(ObsConfig::with_traces(4)).build())
                .with_admission_limit(0.0);
        let (ha, hb) = (engine.register(a), engine.register(b));
        let denied = engine.submit(Request::Join {
            a: ha.id(),
            b: hb.id(),
            execution: None,
        });
        assert!(matches!(denied, Err(EngineError::AdmissionDenied { .. })));
        let snap = engine.metrics().snapshot();
        assert_eq!(snap.counter("msj_admission_shed_total"), 1);
        assert_eq!(snap.counter("msj_admission_accept_total"), 0);
        let traces = engine.recent_traces();
        assert_eq!(traces.len(), 1);
        assert!(!traces[0].admitted);
        assert_eq!(traces[0].results, 0);
    }

    /// Satellite: the retry-after hint a network front derives from an
    /// `AdmissionDenied` must come from the history-informed §5 estimate
    /// when the pair has run before, and from the a-priori size-based
    /// estimate otherwise — `from_history` pins which path produced it.
    #[test]
    fn admission_denied_provenance_pins_history_and_a_priori_paths() {
        let engine = SpatialEngine::new(JoinConfig::default());
        let a = engine.register(msj_datagen::small_carto(30, 24.0, 1301));
        let b = engine.register(msj_datagen::small_carto(30, 24.0, 1302));
        let request = Request::Join {
            a: a.id(),
            b: b.id(),
            execution: None,
        };
        // Fresh pair, tight limit: the a-priori estimate decides.
        engine.set_admission_limit(Some(0.0));
        match engine.submit(request) {
            Err(EngineError::AdmissionDenied {
                from_history,
                estimated_s,
                ..
            }) => {
                assert!(!from_history, "no run history exists yet");
                assert!(estimated_s > 0.0);
            }
            other => panic!("expected AdmissionDenied, got {other:?}"),
        }
        // Lift the limit, run once (history forms), tighten again: the
        // observed-history estimate decides.
        engine.set_admission_limit(None);
        assert_eq!(engine.admission_limit(), None);
        engine.submit(request).expect("admitted without a limit");
        engine.set_admission_limit(Some(0.0));
        assert_eq!(engine.admission_limit(), Some(0.0));
        match engine.submit(request) {
            Err(EngineError::AdmissionDenied {
                from_history,
                estimated_s,
                ..
            }) => {
                assert!(from_history, "the pair ran; history must decide");
                assert!(estimated_s > 0.0);
            }
            other => panic!("expected AdmissionDenied, got {other:?}"),
        }
    }

    #[test]
    fn engine_batched_selections_match_serial_responses() {
        let rel = msj_datagen::small_carto(60, 24.0, 1401);
        let world = rel.bounding_rect().unwrap();
        let engine = SpatialEngine::new(JoinConfig::default());
        let h = engine.register(rel);
        let points: Vec<Point> = (0..20)
            .map(|i| {
                Point::new(
                    world.xmin() + world.width() * (i as f64 * 0.37).fract(),
                    world.ymin() + world.height() * (i as f64 * 0.61).fract(),
                )
            })
            .collect();
        let windows: Vec<Rect> = (0..12)
            .map(|i| {
                let cx = world.xmin() + world.width() * (i as f64 * 0.31).fract();
                let cy = world.ymin() + world.height() * (i as f64 * 0.47).fract();
                let side = world.width() * (0.01 + 0.08 * (i as f64 * 0.13).fract());
                Rect::from_bounds(cx, cy, cx + side, cy + side)
            })
            .collect();
        let batched = engine.point_query_batch(&h, &points);
        assert_eq!(batched.len(), points.len());
        for (i, &p) in points.iter().enumerate() {
            let serial = engine.point_query(&h, p);
            assert_eq!(batched[i].ids, serial.ids, "point {p:?}");
            assert_eq!(batched[i].exact_ops, serial.exact_ops);
            assert_eq!(batched[i].stats.candidates, serial.stats.candidates);
            assert_eq!(batched[i].stats.exact_tests, serial.stats.exact_tests);
        }
        let batched = engine.window_query_batch(&h, &windows);
        assert_eq!(batched.len(), windows.len());
        for (i, w) in windows.iter().enumerate() {
            let serial = engine.window_query(&h, *w);
            assert_eq!(batched[i].ids, serial.ids, "window {w:?}");
            assert_eq!(batched[i].exact_ops, serial.exact_ops);
            assert_eq!(batched[i].stats.candidates, serial.stats.candidates);
            assert_eq!(batched[i].stats.exact_tests, serial.stats.exact_tests);
        }
        // The batched path records one latency sample per query.
        let snap = engine.metrics().snapshot();
        let hist = snap
            .histogram("msj_request_latency_nanos{kind=\"point\"}")
            .expect("point latency family exists");
        assert_eq!(hist.count, 2 * points.len() as u64);
    }

    /// Satellite requirement: one test that matches on *every*
    /// `EngineError` variant, so adding a variant without Display/kind
    /// coverage fails here first.
    #[test]
    fn engine_error_matches_display_and_kind_on_every_variant() {
        let variants: Vec<EngineError> = vec![
            EngineError::UnknownDataset(7),
            EngineError::AdmissionDenied {
                estimated_s: 2.0,
                limit_s: 1.0,
                from_history: false,
            },
            EngineError::DeadlineExceeded {
                elapsed: Duration::from_millis(12),
                partial_candidates: 34,
            },
            EngineError::Cancelled {
                partial_candidates: 5,
            },
            EngineError::WorkerPanicked {
                worker: 2,
                message: "boom".into(),
            },
            EngineError::DegradedUnavailable {
                reason: "raster_checksum",
            },
        ];
        for err in variants {
            // The enum is #[non_exhaustive]; the wildcard arm is the
            // forward-compatibility seam every caller needs (redundant
            // only inside the defining crate, hence the allow).
            #[allow(unreachable_patterns)]
            let expected_kind = match &err {
                EngineError::UnknownDataset(id) => {
                    assert_eq!(*id, 7);
                    "unknown_dataset"
                }
                EngineError::AdmissionDenied {
                    estimated_s,
                    limit_s,
                    from_history,
                } => {
                    assert!(estimated_s > limit_s);
                    assert!(!from_history);
                    "admission_denied"
                }
                EngineError::DeadlineExceeded {
                    elapsed,
                    partial_candidates,
                } => {
                    assert_eq!(*elapsed, Duration::from_millis(12));
                    assert_eq!(*partial_candidates, 34);
                    "deadline_exceeded"
                }
                EngineError::Cancelled { partial_candidates } => {
                    assert_eq!(*partial_candidates, 5);
                    "cancelled"
                }
                EngineError::WorkerPanicked { worker, message } => {
                    assert_eq!(*worker, 2);
                    assert_eq!(message, "boom");
                    "worker_panicked"
                }
                EngineError::DegradedUnavailable { reason } => {
                    assert_eq!(*reason, "raster_checksum");
                    "degraded_unavailable"
                }
                _ => unreachable!("non_exhaustive wildcard"),
            };
            assert_eq!(err.kind(), expected_kind);
            assert!(ERROR_KINDS.contains(&err.kind()));
            let shown = err.to_string();
            assert!(!shown.is_empty());
            let dyn_err: &dyn std::error::Error = &err;
            assert_eq!(dyn_err.to_string(), shown);
        }
    }

    #[test]
    fn expired_deadline_returns_deadline_exceeded_and_engine_recovers() {
        let a = msj_datagen::small_carto(60, 24.0, 1101);
        let b = msj_datagen::small_carto(60, 24.0, 1102);
        let engine = SpatialEngine::new(JoinConfig::default());
        let (ha, hb) = (engine.register(a), engine.register(b));
        for execution in [Execution::Serial, Execution::Fused { threads: 4 }] {
            // Baseline under this exact policy (serial keeps Step-1
            // order; fused sorts canonically).
            let expect = match engine
                .submit(Request::Join {
                    a: ha.id(),
                    b: hb.id(),
                    execution: Some(execution),
                })
                .unwrap()
            {
                Response::Join(resp) => resp.pairs,
                other => panic!("expected a join response, got {other:?}"),
            };
            // A token whose deadline already passed stops the run at the
            // first batch boundary.
            let token = CancelToken::with_deadline(Duration::ZERO);
            let err = engine
                .submit_with_cancel(
                    Request::Join {
                        a: ha.id(),
                        b: hb.id(),
                        execution: Some(execution),
                    },
                    &token,
                )
                .unwrap_err();
            match err {
                EngineError::DeadlineExceeded { elapsed, .. } => {
                    assert!(elapsed >= Duration::ZERO)
                }
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
            // Same engine, same request, fresh token: byte-identical.
            let clean = engine
                .submit(Request::Join {
                    a: ha.id(),
                    b: hb.id(),
                    execution: Some(execution),
                })
                .unwrap();
            match clean {
                Response::Join(resp) => assert_eq!(resp.pairs, expect),
                other => panic!("expected a join response, got {other:?}"),
            }
        }
        let snap = engine.metrics().snapshot();
        assert!(snap.counter("msj_deadline_exceeded_total") >= 2);
        assert_eq!(
            snap.counter("msj_request_errors_total{kind=\"deadline_exceeded\"}"),
            2
        );
    }

    #[test]
    fn config_deadline_arms_a_token_per_request() {
        let a = msj_datagen::small_carto(60, 24.0, 1103);
        let b = msj_datagen::small_carto(60, 24.0, 1104);
        let engine = SpatialEngine::new(JoinConfig::builder().deadline(Duration::ZERO).build());
        let (ha, hb) = (engine.register(a), engine.register(b));
        let err = engine
            .submit(Request::Join {
                a: ha.id(),
                b: hb.id(),
                execution: None,
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::DeadlineExceeded { .. }));
    }

    #[test]
    fn explicit_cancellation_returns_cancelled() {
        let a = msj_datagen::small_carto(40, 24.0, 1105);
        let b = msj_datagen::small_carto(40, 24.0, 1106);
        let engine = SpatialEngine::new(JoinConfig::default());
        let (ha, hb) = (engine.register(a), engine.register(b));
        let token = CancelToken::new();
        token.cancel();
        let err = engine
            .submit_with_cancel(
                Request::Join {
                    a: ha.id(),
                    b: hb.id(),
                    execution: None,
                },
                &token,
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::Cancelled { .. }));
        assert_eq!(
            engine
                .metrics()
                .snapshot()
                .counter("msj_request_cancelled_total"),
            1
        );
    }

    #[test]
    fn injected_cancel_fault_stops_mid_run() {
        let a = msj_datagen::small_carto(80, 24.0, 1107);
        let b = msj_datagen::small_carto(80, 24.0, 1108);
        let engine = SpatialEngine::new(
            JoinConfig::builder()
                .batch_pairs(16)
                .fault(FaultConfig::seeded(
                    3,
                    msj_fault::FaultKind::CancelAtBatch { batch: 0 },
                ))
                .build(),
        );
        let (ha, hb) = (engine.register(a), engine.register(b));
        let token = CancelToken::new();
        let err = engine
            .submit_with_cancel(
                Request::Join {
                    a: ha.id(),
                    b: hb.id(),
                    execution: None,
                },
                &token,
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::Cancelled { .. }), "{err:?}");
        // The injected fault is one-shot per engine: the retry completes.
        let clean = engine.submit(Request::Join {
            a: ha.id(),
            b: hb.id(),
            execution: None,
        });
        assert!(clean.is_ok());
        let snap = engine.metrics().snapshot();
        assert_eq!(
            snap.counter("msj_fault_injected_total{site=\"cancel_at_batch\"}"),
            1
        );
    }

    #[test]
    fn injected_worker_panic_is_contained_and_engine_stays_clean() {
        let a = msj_datagen::small_carto(80, 24.0, 1109);
        let b = msj_datagen::small_carto(80, 24.0, 1110);
        for execution in [Execution::Serial, Execution::Fused { threads: 4 }] {
            // Fault-free reference under this exact policy.
            let baseline = {
                let engine = SpatialEngine::new(JoinConfig::builder().execution(execution).build());
                let (ha, hb) = (engine.register(a.clone()), engine.register(b.clone()));
                engine.prepare_join(&ha, &hb).run().pairs
            };
            for seed in [1u64, 42, 977] {
                // Small batches guarantee every run sees at least
                // BATCH_SPREAD batch boundaries, so the seeded fault
                // always lands.
                let engine = SpatialEngine::new(
                    JoinConfig::builder()
                        .execution(execution)
                        .batch_pairs(8)
                        .fault(FaultConfig::seeded(seed, msj_fault::FaultKind::WorkerPanic))
                        .build(),
                );
                let (ha, hb) = (engine.register(a.clone()), engine.register(b.clone()));
                let request = Request::Join {
                    a: ha.id(),
                    b: hb.id(),
                    execution: None,
                };
                let err = engine.submit(request).unwrap_err();
                match &err {
                    EngineError::WorkerPanicked { message, .. } => {
                        assert!(message.contains("injected fault"), "{message}")
                    }
                    other => panic!("expected WorkerPanicked, got {other:?}"),
                }
                // The panic never poisons engine state: the identical
                // request on the same instance completes byte-identically
                // to the fault-free engine.
                let clean = engine
                    .submit(Request::Join {
                        a: ha.id(),
                        b: hb.id(),
                        execution: None,
                    })
                    .unwrap();
                match clean {
                    Response::Join(resp) => assert_eq!(resp.pairs, baseline),
                    other => panic!("expected a join response, got {other:?}"),
                }
                let snap = engine.metrics().snapshot();
                assert_eq!(snap.counter("msj_worker_panics_total"), 1);
                assert_eq!(
                    snap.counter("msj_fault_injected_total{site=\"worker_panic\"}"),
                    1
                );
            }
        }
    }

    #[test]
    fn injected_raster_corruption_degrades_and_answers_stay_correct() {
        let a = msj_datagen::small_carto(60, 24.0, 1111);
        let b = msj_datagen::small_carto(60, 24.0, 1112);
        let baseline = {
            let engine = SpatialEngine::new(JoinConfig::default());
            let (ha, hb) = (engine.register(a.clone()), engine.register(b.clone()));
            engine.prepare_join(&ha, &hb).run().pairs
        };
        let engine = SpatialEngine::new(
            JoinConfig::builder()
                .obs(ObsConfig::with_traces(8))
                .fault(FaultConfig::seeded(5, msj_fault::FaultKind::RasterCorrupt))
                .build(),
        );
        let (ha, hb) = (engine.register(a.clone()), engine.register(b.clone()));
        let prepared = engine.prepare_join(&ha, &hb);
        assert_eq!(prepared.degraded_reason(), Some("fault_injected"));
        // Filter-only path: answers identical, Step 2a simply absent.
        let result = prepared.run();
        assert_eq!(result.pairs, baseline);
        assert_eq!(result.stats.raster_hits + result.stats.raster_drops, 0);
        let snap = engine.metrics().snapshot();
        assert_eq!(
            snap.counter("msj_degraded_mode_total{reason=\"fault_injected\"}"),
            1
        );
        assert_eq!(
            snap.counter("msj_fault_injected_total{site=\"raster_corrupt\"}"),
            1
        );
        assert!(engine
            .recent_traces()
            .iter()
            .any(|t| t.kind == "degraded_mode"));
        // With the fallback forbidden, the same corruption is an error.
        let strict = SpatialEngine::new(
            JoinConfig::builder()
                .allow_degraded(false)
                .fault(FaultConfig::seeded(5, msj_fault::FaultKind::RasterCorrupt))
                .build(),
        );
        let (sa, sb) = (strict.register(a), strict.register(b));
        let err = strict
            .try_prepare_join(&sa, &sb)
            .err()
            .expect("strict engine must refuse the corrupted pair");
        assert_eq!(
            err,
            EngineError::DegradedUnavailable {
                reason: "fault_injected"
            }
        );
    }

    #[test]
    fn failed_requests_are_traced_and_counted_per_kind() {
        let a = msj_datagen::small_carto(40, 24.0, 1113);
        let b = msj_datagen::small_carto(40, 24.0, 1114);
        let engine = SpatialEngine::new(
            JoinConfig::builder()
                .obs(ObsConfig::with_traces(8))
                .batch_pairs(8)
                .fault(FaultConfig::seeded(9, msj_fault::FaultKind::WorkerPanic))
                .build(),
        );
        let (ha, hb) = (engine.register(a), engine.register(b));
        let err = engine
            .submit(Request::Join {
                a: ha.id(),
                b: hb.id(),
                execution: None,
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::WorkerPanicked { .. }));
        let traces = engine.recent_traces();
        assert!(traces.iter().any(|t| t.kind == "join_panic"));
        let prom = engine.metrics().render_prometheus();
        assert!(prom.contains("msj_worker_panics_total 1"));
        assert!(prom.contains("msj_request_errors_total{kind=\"worker_panicked\"} 1"));
    }

    #[test]
    fn engine_selections_match_linear_scan() {
        let rel = msj_datagen::small_carto(60, 24.0, 1008);
        let world = rel.bounding_rect().unwrap();
        for config in [JoinConfig::default(), JoinConfig::version1()] {
            let engine = SpatialEngine::new(config);
            let h = engine.register(rel.clone());
            for i in 0..25 {
                let p = Point::new(
                    world.xmin() + world.width() * (i as f64 * 0.37).fract(),
                    world.ymin() + world.height() * (i as f64 * 0.61).fract(),
                );
                let mut got = engine.point_query(&h, p).ids;
                got.sort_unstable();
                let mut expect: Vec<ObjectId> = rel
                    .iter()
                    .filter(|o| o.region.contains_point(p))
                    .map(|o| o.id)
                    .collect();
                expect.sort_unstable();
                assert_eq!(got, expect, "point {p:?}");
                let side = world.width() * 0.07;
                let w = Rect::from_bounds(p.x, p.y, p.x + side, p.y + side);
                let mut got = engine.window_query(&h, w).ids;
                got.sort_unstable();
                let mut expect: Vec<ObjectId> = rel
                    .iter()
                    .filter(|o| msj_exact::window::region_intersects_rect_reference(&o.region, &w))
                    .map(|o| o.id)
                    .collect();
                expect.sort_unstable();
                assert_eq!(got, expect, "window {w:?}");
            }
        }
    }
}

//! The engine's observability schema: every instrument the engine
//! records into, resolved **once** at construction, plus the recorders
//! that publish a finished request.
//!
//! [`MetricsRegistry`] hands out instruments by `(name, labels)` and
//! expects callers to cache the handle; a by-name lookup builds a key
//! `String`, takes a lock and clones an `Arc`. So request-time code never
//! names a metric: it holds an [`EngineObs`] and bumps a field. The one
//! instrument that cannot be resolved here is `msj_store_bytes{dataset}`,
//! whose label set grows with the registered datasets — each dataset
//! resolves its own gauge once, at registration
//! ([`EngineObs::store_bytes_gauge`]).

use super::types::{DatasetId, EngineError};
use crate::pipeline::JoinResult;
use crate::SelectionResponse;
use msj_geom::DecodeHook;
use msj_obs::{
    Counter, Gauge, Histogram, LaneRole, MetricsRegistry, ObsConfig, Step, StepSpans, Trace,
    TraceRing, TraceSteps,
};
use msj_store::Section;
use std::sync::Arc;
use std::time::Instant;

/// `kind` labels of `msj_request_latency_nanos`.
const REQUEST_KINDS: [&str; 4] = ["join", "self_join", "point", "window"];

/// `site` labels of `msj_fault_injected_total` — the
/// [`msj_fault::FaultKind::site`] names, engine-internal sites and the
/// wire-level sites a network front injects at.
const FAULT_SITES: [&str; 8] = [
    "worker_panic",
    "slow_worker",
    "store_corrupt",
    "cancel_at_batch",
    "conn_reset",
    "partial_write",
    "slow_client",
    "drop_before_reply",
];

const LANE_ROLES: [LaneRole; 2] = [LaneRole::Backend, LaneRole::Consumer];

/// `artifact` labels of `msj_step0_artifact_nanos_total` — what a
/// registration or a load spends its time on: the two per-dataset Step-0
/// artifacts (under their [`Section`] names), an opened relation's
/// decode, and the write-through to the store.
const STEP0_ARTIFACTS: [&str; 4] = ["tree", "trstar", "relation", PERSIST];
pub(super) const PERSIST: &str = "persist";

/// The handle at `label`'s position in the label list the handles were
/// resolved from.
fn labelled<'a, T>(labels: &[&str], handles: &'a [Arc<T>], label: &str) -> &'a Arc<T> {
    let slot = labels.iter().position(|known| *known == label);
    &handles[slot.expect("label is part of the pre-registered schema")]
}

/// Shared observability state of one engine: the metrics registry, every
/// instrument of the schema as a resolved handle, and the trace ring —
/// `Arc`-co-owned by every [`crate::PreparedJoin`] so direct
/// `prepared.run()` calls record exactly like submitted requests.
///
/// On an engine that does not record ([`ObsConfig::disabled`]) the
/// schema is still described and registered — exporters render it at
/// zero — but the handles held here are detached twins no exporter sees:
/// bumping one is harmless, so only code that would read a clock needs
/// to ask [`EngineObs::enabled`] first.
pub(super) struct EngineObs {
    pub registry: MetricsRegistry,
    pub traces: TraceRing,
    /// Whether the engine records at all; callers consult it before
    /// paying for a clock read.
    pub enabled: bool,
    /// Kernel dispatch label (`"scalar"`/`"sse2"`/`"avx2"`) the engine's
    /// batched loops run on — stamped onto every trace.
    dispatch: &'static str,
    /// By [`REQUEST_KINDS`].
    latency: [Arc<Histogram>; 4],
    /// By [`Step`].
    step_nanos: [Arc<Counter>; 5],
    /// By [`LaneRole`].
    worker_pairs: [Arc<Counter>; 2],
    worker_batches: [Arc<Counter>; 2],
    /// By [`EngineError::ALL_KINDS`].
    errors: [Arc<Counter>; 5],
    /// By [`FAULT_SITES`].
    fault_injected: [Arc<Counter>; 8],
    /// By [`Section::ALL`].
    checksum_failures: [Arc<Counter>; 5],
    /// By [`STEP0_ARTIFACTS`].
    step0_artifacts: [Arc<Counter>; 4],
    store_load_nanos: Arc<Histogram>,
    registration_nanos: Arc<Histogram>,
    datasets_registered: Arc<Counter>,
    admission_error_ratio: Arc<Gauge>,
    pub store_evictions: Arc<Counter>,
    pub cancelled: Arc<Counter>,
    pub deadline_exceeded: Arc<Counter>,
    pub worker_panics: Arc<Counter>,
    pub admission_accept: Arc<Counter>,
    pub admission_shed: Arc<Counter>,
    pub cache_hits: Arc<Counter>,
    pub cache_misses: Arc<Counter>,
    pub cache_evictions: Arc<Counter>,
}

/// The schema's families, one `name help-text` per line (what the
/// exposition renders as `# HELP`).
const FAMILIES: &str = "\
msj_request_latency_nanos End-to-end request latency in nanoseconds, by request kind
msj_step_nanos_total Cumulative pipeline wall-clock nanoseconds, by step
msj_admission_accept_total Join requests admitted under the section-5 cost model
msj_admission_shed_total Join requests refused by the admission limit
msj_admission_error_ratio Relative error of the latest admission estimate vs the observed cost
msj_prepared_cache_hits_total prepare_join calls served from the prepared-join cache
msj_prepared_cache_misses_total prepare_join calls that built pair-level Step-0 state
msj_prepared_cache_evictions_total Prepared joins evicted by the LRU count cap
msj_kernel_dispatch Selected kernel dispatch path (1 = active), by path
msj_datasets_registered_total Datasets registered on the engine (Step-0 runs)
msj_registration_nanos Step-0 registration wall-clock nanoseconds per dataset
msj_step0_artifact_nanos_total Cumulative Step-0 wall-clock nanoseconds, by artifact built or persisted
msj_worker_pairs_total Candidate pairs handled by execution workers, by lane role
msj_worker_batches_total Batches flushed by execution workers, by lane role
msj_request_cancelled_total Join requests stopped by explicit cooperative cancellation
msj_deadline_exceeded_total Join requests stopped because their deadline expired
msj_worker_panics_total Worker panics contained at the run boundary
msj_request_errors_total Requests that returned an error, by error kind
msj_fault_injected_total Deterministic fault injections that fired, by site
msj_store_bytes Resident artifact-store bytes, by dataset (0 when evicted)
msj_store_load_nanos Wall-clock nanoseconds per artifact load from the persistent store
msj_store_evictions_total Dataset artifact sets evicted by the residency byte budget
msj_store_checksum_failures_total Store sections that failed checksum or shape validation at load, by section";

impl EngineObs {
    /// Describes and pre-registers the whole metric schema up front —
    /// exporters render every family from the first scrape on, at zero,
    /// instead of families popping into existence per request — and
    /// keeps a handle to each instrument.
    pub fn new(config: ObsConfig, dispatch: msj_geom::KernelDispatch) -> Self {
        let registry = MetricsRegistry::with_enabled(config.enabled);
        for line in FAMILIES.lines() {
            let (family, help) = line.split_once(' ').expect("`name help-text`");
            registry.describe(family, help);
        }
        // The handle to hold for a registered instrument: itself, or on
        // a dark engine a detached twin.
        fn held<T: Default>(live: bool, registered: Arc<T>) -> Arc<T> {
            if live {
                registered
            } else {
                Arc::default()
            }
        }
        let live = config.enabled;
        let counter = |name: &str| held(live, registry.counter(name, &[]));
        let counters = |name: &str, label: &str, value: &str| {
            held(live, registry.counter(name, &[(label, value)]))
        };
        // The dispatch gauge family carries every path the engine could
        // run on; the selected one sits at 1.
        for path in ["scalar", "sse2", "avx2"] {
            let gauge = held(
                live,
                registry.gauge("msj_kernel_dispatch", &[("path", path)]),
            );
            if path == dispatch.label() {
                gauge.set(1.0);
            }
        }
        EngineObs {
            traces: TraceRing::new(config.trace_capacity),
            enabled: live,
            dispatch: dispatch.label(),
            latency: REQUEST_KINDS.map(|kind| {
                let registered = registry.histogram("msj_request_latency_nanos", &[("kind", kind)]);
                held(live, registered)
            }),
            step_nanos: Step::ALL.map(|s| counters("msj_step_nanos_total", "step", s.name())),
            worker_pairs: LANE_ROLES
                .map(|role| counters("msj_worker_pairs_total", "role", role.as_str())),
            worker_batches: LANE_ROLES
                .map(|role| counters("msj_worker_batches_total", "role", role.as_str())),
            errors: EngineError::ALL_KINDS
                .map(|kind| counters("msj_request_errors_total", "kind", kind)),
            fault_injected: FAULT_SITES
                .map(|site| counters("msj_fault_injected_total", "site", site)),
            checksum_failures: Section::ALL
                .map(|s| counters("msj_store_checksum_failures_total", "section", s.name())),
            step0_artifacts: STEP0_ARTIFACTS
                .map(|artifact| counters("msj_step0_artifact_nanos_total", "artifact", artifact)),
            store_load_nanos: held(live, registry.histogram("msj_store_load_nanos", &[])),
            registration_nanos: held(live, registry.histogram("msj_registration_nanos", &[])),
            datasets_registered: counter("msj_datasets_registered_total"),
            admission_error_ratio: held(live, registry.gauge("msj_admission_error_ratio", &[])),
            store_evictions: counter("msj_store_evictions_total"),
            cancelled: counter("msj_request_cancelled_total"),
            deadline_exceeded: counter("msj_deadline_exceeded_total"),
            worker_panics: counter("msj_worker_panics_total"),
            admission_accept: counter("msj_admission_accept_total"),
            admission_shed: counter("msj_admission_shed_total"),
            cache_hits: counter("msj_prepared_cache_hits_total"),
            cache_misses: counter("msj_prepared_cache_misses_total"),
            cache_evictions: counter("msj_prepared_cache_evictions_total"),
            registry,
        }
    }

    /// The `msj_store_bytes` gauge of one dataset of a store-backed,
    /// recording engine — resolved once per dataset, held by its state.
    pub fn store_bytes_gauge(&self, id: DatasetId) -> Arc<Gauge> {
        self.registry
            .gauge("msj_store_bytes", &[("dataset", id.to_string().as_str())])
    }

    /// Runs `work`, charging its wall-clock time to `artifact` (one of
    /// [`STEP0_ARTIFACTS`]).
    pub fn time_artifact<T>(&self, artifact: &str, work: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return work();
        }
        let start = Instant::now();
        let out = work();
        let nanos = start.elapsed().as_nanos() as u64;
        labelled(&STEP0_ARTIFACTS, &self.step0_artifacts, artifact).add(nanos);
        out
    }

    /// What a lazily decoded relation charges its decode to.
    pub fn relation_decode(&self) -> Option<DecodeHook> {
        let timer = labelled(&STEP0_ARTIFACTS, &self.step0_artifacts, "relation").clone();
        let hook: DecodeHook = Box::new(move |nanos| timer.add(nanos));
        self.enabled.then_some(hook)
    }

    /// Pushes one trace — the request identity plus whatever `fill` sets
    /// beyond an admitted, all-zero request — when tracing is on.
    pub fn trace(
        &self,
        kind: &'static str,
        datasets: (DatasetId, DatasetId),
        fill: impl FnOnce(&mut Trace),
    ) {
        if !self.traces.enabled() {
            return;
        }
        let mut trace = Trace {
            seq: self.traces.next_seq(),
            kind,
            datasets,
            admitted: true,
            estimated_s: 0.0,
            latency_nanos: 0,
            candidates: 0,
            results: 0,
            dispatch: self.dispatch,
            steps: TraceSteps::default(),
        };
        fill(&mut trace);
        self.traces.push(trace);
    }

    /// Publishes one finished registration.
    pub fn registered(&self, step0_nanos: u64) {
        self.datasets_registered.inc();
        self.registration_nanos.record(step0_nanos);
        self.step_nanos[Step::Step0 as usize].add(step0_nanos);
    }

    /// Publishes one finished store load: wall-clock plus any
    /// per-section failures.
    pub fn store_load(&self, nanos: u64, corrupt: &[Section]) {
        self.store_load_nanos.record(nanos);
        self.checksum_failed(corrupt);
    }

    /// Counts sections that were written but could not be adopted.
    pub fn checksum_failed(&self, corrupt: &[Section]) {
        for section in corrupt {
            let slot = Section::ALL.iter().position(|known| known == section);
            self.checksum_failures[slot.expect("every section is in ALL")].inc();
        }
    }

    pub fn fault_fired(&self, site: &str) {
        labelled(&FAULT_SITES, &self.fault_injected, site).inc();
    }

    /// One increment per failed request, whatever the failure path —
    /// deeper layers own the cause-specific counters.
    pub fn request_failed(&self, err: &EngineError) {
        labelled(&EngineError::ALL_KINDS, &self.errors, err.kind()).inc();
    }

    /// §5 feedback: how far the admission-time estimate missed the cost
    /// the run actually modeled out to.
    pub fn admission_error(&self, estimated_s: f64, observed_s: f64) {
        if observed_s > 0.0 {
            self.admission_error_ratio
                .set((estimated_s - observed_s).abs() / observed_s);
        }
    }

    /// Publishes one finished join run: latency histogram, per-step
    /// counters, worker-lane aggregates and (when tracing) the request
    /// trace.
    pub fn join_finished(
        &self,
        kind: &'static str,
        datasets: (DatasetId, DatasetId),
        result: &JoinResult,
        latency_nanos: u64,
        estimated_s: f64,
    ) {
        let s = &result.stats;
        labelled(&REQUEST_KINDS, &self.latency, kind).record(latency_nanos);
        let steps = TraceSteps {
            step0_nanos: s.step0_nanos,
            step1_nanos: s.step1_nanos,
            step2_nanos: s.step2_nanos,
            step2a_nanos: s.step2a_nanos,
            step3_nanos: s.step3_nanos,
        };
        self.step_nanos[Step::Step1 as usize].add(s.step1_nanos);
        self.step_nanos[Step::Step2 as usize].add(s.step2_nanos);
        self.step_nanos[Step::Step2a as usize].add(s.step2a_nanos);
        self.step_nanos[Step::Step3 as usize].add(s.step3_nanos);
        for lane in &result.worker_lanes {
            let role = lane.role as usize;
            self.worker_pairs[role].add(lane.pairs);
            self.worker_batches[role].add(lane.batches);
        }
        self.trace(kind, datasets, |t| {
            t.estimated_s = estimated_s;
            t.latency_nanos = latency_nanos;
            t.candidates = s.mbr_join.candidates;
            t.results = s.result_pairs;
            t.steps = steps;
        });
    }

    /// Publishes one failed join run: the per-cause counter and (when
    /// tracing) a trace whose kind names the failure. The per-kind
    /// `msj_request_errors_total` counter is incremented once at the
    /// request surface, not here, so a submitted request is never
    /// double-counted.
    pub fn join_failed(
        &self,
        datasets: (DatasetId, DatasetId),
        err: &EngineError,
        latency_nanos: u64,
        estimated_s: f64,
    ) {
        let (trace_kind, partial) = match err {
            EngineError::DeadlineExceeded {
                partial_candidates, ..
            } => {
                self.deadline_exceeded.inc();
                ("join_deadline", *partial_candidates)
            }
            EngineError::Cancelled { partial_candidates } => {
                self.cancelled.inc();
                ("join_cancelled", *partial_candidates)
            }
            EngineError::WorkerPanicked { .. } => {
                self.worker_panics.inc();
                ("join_panic", 0)
            }
            _ => ("join_error", 0),
        };
        self.trace(trace_kind, datasets, |t| {
            t.estimated_s = estimated_s;
            t.latency_nanos = latency_nanos;
            t.candidates = partial;
        });
    }

    /// Publishes one finished selection batch: per-query latency samples
    /// (the batch wall-clock amortized over its queries — the number a
    /// serving percentile should see), step counters added **once** for
    /// the whole batch, and one trace per query. A batch's step times
    /// belong to a single query only when it is the whole batch, so only
    /// then does the trace carry them.
    pub fn selections_finished(
        &self,
        kind: &'static str,
        dataset: DatasetId,
        spans: &StepSpans,
        batch_nanos: u64,
        responses: &[SelectionResponse],
    ) {
        if responses.is_empty() {
            return;
        }
        let amortized = batch_nanos / responses.len() as u64;
        let latency = labelled(&REQUEST_KINDS, &self.latency, kind);
        for _ in responses {
            latency.record(amortized);
        }
        for step in [Step::Step1, Step::Step2, Step::Step3] {
            self.step_nanos[step as usize].add(spans.get(step));
        }
        let steps = match responses.len() {
            1 => TraceSteps {
                step1_nanos: spans.get(Step::Step1),
                step2_nanos: spans.get(Step::Step2),
                step3_nanos: spans.get(Step::Step3),
                ..TraceSteps::default()
            },
            _ => TraceSteps::default(),
        };
        for response in responses {
            self.trace(kind, (dataset, dataset), |t| {
                t.latency_nanos = amortized;
                t.candidates = response.stats.candidates;
                t.results = response.ids.len() as u64;
                t.steps = steps;
            });
        }
    }
}

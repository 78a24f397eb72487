//! # msj-core — the multi-step spatial join processor
//!
//! The primary contribution of *"Multi-Step Processing of Spatial Joins"*
//! (Brinkhoff, Kriegel, Schneider, Seeger; SIGMOD 1994): an intersection
//! join over two relations of complex polygonal objects executed in three
//! steps (Figure 1):
//!
//! 1. **MBR-join** — a pluggable [`candidates::CandidateSource`] produces
//!    candidate pairs whose minimum bounding rectangles intersect: the
//!    R*-tree join of [BKS 93a] ([`msj_sam::tree_join`], the default) or
//!    the partitioned parallel sweep of `msj-partition`
//!    ([`config::Backend::PartitionedSweep`]);
//! 2. **Geometric filter** — the Step-2a raster pre-filter decides most
//!    candidates by intersecting A/F Hilbert-run signatures
//!    ([`JoinConfig::raster`], on by default), without touching the exact
//!    geometry ([`filter::GeometricFilter`]). A one-shot
//!    [`MultiStepJoin`] under the paper's versions 2 and 3 adds their
//!    conservative and progressive approximations and the false-area
//!    test; the resident engine runs the raster stage alone;
//! 3. **Exact geometry processor** — the remaining candidates are decided
//!    on the exact polygons ([`msj_exact::ExactProcessor`]; the paper's
//!    recommendation is the TR*-tree).
//!
//! Candidates are streamed between steps — no intermediate candidate sets
//! are materialized (§2.4) — in batches ([`JoinConfig::batch_pairs`]):
//! Step 1 delivers candidate runs through
//! [`msj_geom::PairSink::consume_batch`], Step 2 classifies each run
//! ([`GeometricFilter::classify_batch`]) over `msj-approx`'s columnar
//! stores, and [`MultiStepStats`] carries the per-step
//! cardinalities and wall-clock that feed every evaluation table.
//! [`cost`] implements the §5 total-cost model of Figure 18.
//!
//! ## One path per request shape
//!
//! * **Joins** run on one owned type, [`PreparedJoin`]: Step 0 done, both
//!   relations and their artifacts co-owned behind `Arc`, one fallible
//!   run function ([`PreparedJoin::try_run_with`]) over the one driver in
//!   [`execution`]. A [`SpatialEngine`] builds it from the Step-0 state
//!   of two registered datasets, caches it and re-runs it indefinitely;
//!   [`MultiStepJoin::execute`] — the paper's one-shot join — builds the
//!   same thing from scratch, runs it once and drops it.
//! * **Selections** (point / window queries, §2) run through one
//!   batch-shaped loop, [`queries`], generic over the probe shape; a
//!   single query is a batch of one. Their Step 1 is the dataset's
//!   R*-tree on either backend, Step 3 the TR*-trees or the region, and
//!   nothing in between.
//! * **Step 1 of a join** is one trait, [`CandidateSource`], implemented
//!   by the R*-tree traversal and the partitioned sweep.
//!
//! The [`Execution`] policy on [`JoinConfig`] decides how a join's steps
//! are scheduled: [`Execution::Serial`] runs all three on the calling
//! thread in Step-1 delivery order; [`Execution::Fused`] runs filter +
//! exact on a pool of sink threads that Step 1 feeds as it produces (the
//! paper's §6 CPU-parallelism outlook), merging results
//! deterministically so it is byte-identical to `Serial` once sorted.
//! Step 1 itself is a serial producer on either backend; [`execution`]
//! is the one place that spawns threads for Steps 2–3.
//!
//! ## The resident engine
//!
//! [`engine`] keeps Step 0 resident: [`SpatialEngine::register`] builds
//! and **owns** each relation's artifacts, and join / point / window
//! traffic is served through one [`Request`] / [`Response`] surface with
//! §5 cost-model admission control (see the module docs for an example).
//! It runs under an [`EngineConfig`]: the [`JoinConfig`] plan it applies
//! to every dataset, plus the settings of the running instance —
//! observability, the fault plan and the kernel pin. A `JoinConfig` alone
//! converts into one with those at their defaults.
//! Its modules follow its concerns: `datasets` (registry, Step 0 per
//! relation, the persistent store and its residency budget), `join`
//! (prepared joins, their cache, join requests), `select` (selections),
//! `obs` (the metric schema, every instrument resolved once) and `types`
//! (requests, responses, errors).

pub mod candidates;
pub mod config;
pub mod cost;
pub mod engine;
pub mod execution;
pub mod filter;
pub mod pipeline;
pub mod queries;
pub mod stats;

pub use candidates::{CandidateSource, PartitionSummary, Step1Stats};
pub use config::{Backend, EngineConfig, JoinConfig, JoinConfigBuilder, DEFAULT_BATCH_PAIRS};
pub use cost::{estimate_cost, figure18_cost, CostBreakdown, CostModelParams, ExactCostKind};
pub use engine::{
    Admission, DatasetHandle, DatasetId, EngineError, JoinResponse, PreparedJoin, Request,
    Response, SelectionResponse, SpatialEngine, StoreConfig,
};
pub use execution::{fused_buffer_bound, Execution, FUSED_QUEUE_DEPTH};
pub use filter::{FilterOutcome, GeometricFilter};
pub use pipeline::{ground_truth_join, JoinResult, MultiStepJoin};
pub use queries::QueryStats;
pub use stats::MultiStepStats;
// Re-exported observability surface (vendored `msj-obs`): configure via
// [`EngineConfig::obs`], inspect via [`SpatialEngine::metrics`] /
// [`SpatialEngine::recent_traces`].
pub use msj_obs::{
    EngineSnapshot, Histogram, HistogramSnapshot, LaneRole, MetricsRegistry, ObsConfig, Step,
    Trace, TraceSteps, WorkerLaneSnapshot, SNAPSHOT_SCHEMA,
};
// Robustness surface: deadlines / cooperative cancellation
// ([`CancelToken`] on [`SpatialEngine::submit_with_cancel`]) and the
// deterministic fault-injection plan ([`EngineConfig::fault`]).
pub use msj_fault::{FaultConfig, FaultKind};
pub use msj_geom::{CancelReason, CancelToken};

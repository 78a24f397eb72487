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
//!    ([`config::RasterConfig`], on by default); conservative
//!    approximations identify false hits, progressive approximations and
//!    the false-area test identify hits among the remainder, all without
//!    touching the exact geometry ([`filter::GeometricFilter`]);
//! 3. **Exact geometry processor** — the remaining candidates are decided
//!    on the exact polygons ([`msj_exact::ExactProcessor`]; the paper's
//!    recommendation is the TR*-tree).
//!
//! Candidates are streamed between steps — no intermediate candidate sets
//! are materialized (§2.4). [`pipeline::MultiStepJoin::execute`] runs the
//! whole pipeline and returns the response set plus the per-step
//! statistics ([`stats::MultiStepStats`]) that feed every evaluation
//! table, and [`cost`] implements the §5 total-cost model of Figures 11
//! and 18.
//!
//! ## The execution engine
//!
//! One engine ([`execution`]) drives every join, parameterized by the
//! [`Execution`] policy on [`JoinConfig`]:
//!
//! * [`Execution::Serial`] — all three steps on the calling thread, in
//!   Step-1 delivery order;
//! * [`Execution::Fused`] — filter + exact run *inside* the Step-1
//!   workers, the paper's §6 CPU-parallelism outlook realized along
//!   Tsitsigkos & Mamoulis (SIGSPATIAL 2019). Candidates never
//!   materialize: backends feed per-worker sinks through the
//!   [`msj_geom::PairConsumer`] protocol (the partitioned sweep hands
//!   each tile worker its own sink; the R*-traversal distributes bounded
//!   chunks over channels), and each sink classifies candidates the
//!   moment they are produced. Results and operation counts are merged
//!   deterministically and sorted canonically, so `Fused` is
//!   byte-identical to `Serial`.
//!
//! ## The resident engine
//!
//! One-shot joins rebuild Step 0 every call. The [`engine`] module keeps
//! it resident instead: [`SpatialEngine::register`] builds and **owns**
//! each relation's Step-0 state behind `Arc`, prepared joins are owned
//! values ([`PreparedJoin`], no borrowed lifetime) that are cached,
//! shared across threads and re-run indefinitely, and join/point/window
//! traffic is served through one [`Request`]/[`Response`] surface with
//! batched submission and §5 cost-model admission control:
//!
//! ```
//! use msj_core::{Execution, JoinConfig, RasterConfig, Request, SpatialEngine};
//!
//! let engine = SpatialEngine::new(
//!     JoinConfig::builder()
//!         .execution(Execution::Fused { threads: 4 })
//!         .raster(RasterConfig::auto())
//!         .build(),
//! );
//! let a = engine.register(msj_datagen::small_carto(16, 16.0, 1));
//! let b = engine.register(msj_datagen::small_carto(16, 16.0, 2));
//! let responses = engine.submit_batch([
//!     Request::Join { a: a.id(), b: b.id(), execution: None },
//! ]);
//! assert!(responses[0].is_ok());
//! ```
//!
//! ## The batched hot path
//!
//! Candidates move between the steps in batches, and every per-candidate
//! decision that is actually per-*join* is hoisted out of the loop:
//!
//! * Step 0 builds the R*-trees with STR bulk loading by default
//!   ([`config::TreeLoader`]) — fully packed pages from one sort, with
//!   incremental insertion kept for dynamic workloads;
//! * Step 1 delivers candidate runs through
//!   [`msj_geom::PairSink::consume_batch`] (sized by
//!   [`JoinConfig::batch_pairs`]), flushed at tile/chunk boundaries;
//! * Step 2 classifies each run via a [`filter::FilterPlan`] compiled
//!   once per join over `msj-approx`'s columnar stores
//!   ([`GeometricFilter::classify_batch`]);
//! * [`MultiStepStats`] carries per-step wall-clock
//!   (`step0/1/2/3_nanos`) so speedups are attributable.

pub mod candidates;
pub mod config;
pub mod cost;
pub mod engine;
pub mod execution;
pub mod filter;
pub mod pipeline;
pub mod queries;
pub mod stats;

pub use candidates::{
    fused_buffer_bound, join_source, selection_source, CandidateSource, PartitionSummary,
    SelectionStats, Step1Stats, FUSED_CHUNK, FUSED_QUEUE_DEPTH,
};
pub use config::{
    Backend, JoinConfig, JoinConfigBuilder, RasterConfig, TreeLoader, DEFAULT_BATCH_PAIRS,
};
pub use cost::{
    estimate_cost, figure11_loss_gain, figure18_cost, CostBreakdown, CostModelParams,
    ExactCostKind, LossGain,
};
pub use engine::{
    Admission, DatasetHandle, DatasetId, EngineError, JoinResponse, PreparedJoin, Request,
    Response, SelectionResponse, SpatialEngine, StoreConfig, RUN_HISTORY,
};
pub use execution::{Execution, ScopedPreparedJoin};
pub use filter::{FilterOutcome, FilterPlan, FilterScratch, GeometricFilter};
pub use pipeline::{ground_truth_join, JoinResult, MultiStepJoin};
pub use queries::QueryStats;
pub use stats::MultiStepStats;
// Re-exported observability surface (vendored `msj-obs`): configure via
// [`JoinConfig::obs`], inspect via [`SpatialEngine::metrics`] /
// [`SpatialEngine::recent_traces`].
pub use msj_obs::{
    EngineSnapshot, Histogram, HistogramSnapshot, LaneRole, MetricsRegistry, ObsConfig, Step,
    Trace, TraceSteps, WorkerLaneSnapshot, SNAPSHOT_SCHEMA,
};
// Robustness surface: deadlines / cooperative cancellation
// ([`CancelToken`] on [`SpatialEngine::submit_with_cancel`]) and the
// deterministic fault-injection plan ([`JoinConfig::fault`]).
pub use msj_fault::{FaultConfig, FaultKind};
pub use msj_geom::{CancelReason, CancelToken};

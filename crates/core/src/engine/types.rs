//! The serving surface's vocabulary: requests, responses, the §5
//! accounting attached to each, and the error type.

use crate::cost::CostBreakdown;
use crate::execution::Execution;
use crate::queries::QueryStats;
use crate::stats::MultiStepStats;
use msj_exact::OpCounts;
use msj_geom::{CancelReason, CancelToken, ObjectId, Point, Rect};
use std::time::Duration;

/// Identifier of a dataset registered on one engine (assigned in
/// registration order).
pub type DatasetId = u32;

/// One query against the serving surface ([`crate::SpatialEngine::submit`]).
///
/// Datasets are named by [`DatasetId`] (from [`crate::DatasetHandle::id`]) so a
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
}

impl EngineError {
    /// Every [`kind`](EngineError::kind) label, one per variant, in
    /// declaration order. Frontends that map engine errors onto another
    /// surface (e.g. `msj-serve`'s wire statuses) iterate this list in a
    /// completeness test so a new variant cannot ship unmapped.
    pub const ALL_KINDS: [&'static str; 5] = [
        "unknown_dataset",
        "admission_denied",
        "deadline_exceeded",
        "cancelled",
        "worker_panicked",
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
        }
    }

    /// The error a token that stopped a request stands for: its deadline
    /// expired, or someone cancelled it.
    pub(super) fn from_cancel(token: &CancelToken, partial_candidates: u64) -> Self {
        match token.reason() {
            Some(CancelReason::DeadlineExpired) => EngineError::DeadlineExceeded {
                elapsed: token.elapsed(),
                partial_candidates,
            },
            _ => EngineError::Cancelled { partial_candidates },
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
        }
    }
}

impl std::error::Error for EngineError {}

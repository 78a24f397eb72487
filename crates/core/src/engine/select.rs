//! Selections: point and window queries against one registered dataset,
//! served by the one batch-shaped loop in [`crate::queries`].

use super::datasets::DatasetHandle;
use super::join::exact_cost_kind;
use super::types::{Admission, SelectionResponse};
use super::SpatialEngine;
use crate::cost::{CostBreakdown, ExactCostKind};
use crate::queries::{Probe, QueryStats};
use msj_exact::OpCounts;
use msj_geom::{ObjectId, Point, Rect};
use msj_obs::{Span, StepSpans};

impl SpatialEngine {
    /// Serves a batch of point selections against one dataset — every
    /// object whose region contains the point, closed semantics — through
    /// a single shared Step-1 descent and one filter pass (three steps:
    /// index probe, approximation filter, exact containment). This is the
    /// cross-request batching path of a serving front;
    /// [`submit`](SpatialEngine::submit) sends a single
    /// [`crate::Request::Point`] through it as a batch of one. A query's
    /// ids, filter counts and exact-op counts do not depend on what it is
    /// batched with; only the simulated-buffer physical-read attribution
    /// can differ, because a batch keeps the buffer warm.
    pub fn point_query_batch(
        &self,
        dataset: &DatasetHandle,
        points: &[Point],
    ) -> Vec<SelectionResponse> {
        self.select(dataset, points)
    }

    /// Batched window selections (every object whose region intersects
    /// the window) — the window-shaped counterpart of
    /// [`point_query_batch`](SpatialEngine::point_query_batch), with the
    /// same contract.
    pub fn window_query_batch(
        &self,
        dataset: &DatasetHandle,
        windows: &[Rect],
    ) -> Vec<SelectionResponse> {
        self.select(dataset, windows)
    }

    pub(super) fn select<P: Probe>(
        &self,
        dataset: &DatasetHandle,
        probes: &[P],
    ) -> Vec<SelectionResponse> {
        let artifacts = self.artifacts(&dataset.state);
        let timing = self.obs.enabled.then(|| (StepSpans::new(), Span::start()));
        let mut responses = Vec::with_capacity(probes.len());
        let spans = timing.as_ref().map(|(spans, _)| spans);
        artifacts
            .selection
            .select(probes, spans, |ids, stats, ops| {
                responses.push(self.selection_response(ids, stats, ops))
            });
        if let Some((spans, t_req)) = &timing {
            let batch_nanos = t_req.elapsed_nanos();
            self.obs
                .selections_finished(P::KIND, dataset.id(), spans, batch_nanos, &responses);
        }
        responses
    }

    fn selection_response(
        &self,
        ids: Vec<ObjectId>,
        stats: QueryStats,
        exact_ops: OpCounts,
    ) -> SelectionResponse {
        // The §5 model applied to one selection: every index page read
        // plus one object access + exact test per unidentified candidate.
        let p = &self.params;
        let (access_factor, exact_ms) = match exact_cost_kind(&self.config) {
            ExactCostKind::PlaneSweep => (1.0, p.sweep_exact_ms),
            ExactCostKind::TrStar => (p.trstar_access_factor, p.trstar_exact_ms),
        };
        let (tests, identified) = (
            stats.exact_tests as f64,
            (stats.filter_false_hits + stats.filter_hits) as f64,
        );
        let cost = CostBreakdown {
            mbr_join_s: stats.physical_reads as f64 * p.page_access_ms / 1000.0,
            object_access_s: tests * p.page_access_ms * access_factor / 1000.0,
            exact_test_s: tests * exact_ms / 1000.0,
            filter_yield_estimated: p.expected_filter_yield,
            filter_yield_observed: if stats.candidates == 0 {
                0.0
            } else {
                identified / stats.candidates as f64
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
}

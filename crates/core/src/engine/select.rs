//! Selections: point and window queries against one registered dataset,
//! served by the one batch-shaped loop in [`crate::queries`].

use super::datasets::DatasetHandle;
use super::join::exact_cost_kind;
use super::types::{Admission, SelectionResponse};
use super::SpatialEngine;
use crate::cost::{section5_cost, CostBreakdown};
use crate::queries::{Probe, QueryStats};
use msj_exact::OpCounts;
use msj_geom::{ObjectId, Point, Rect};
use msj_obs::{Span, StepSpans};

impl SpatialEngine {
    /// Serves a batch of point selections against one dataset — every
    /// object whose region contains the point, closed semantics — through
    /// one Step-1 pass and one exact pass (the R*-tree probe, whose MBR
    /// proofs are the whole filter, then exact containment). This is the
    /// cross-request batching path of a serving front;
    /// [`submit`](SpatialEngine::submit) sends a single
    /// [`crate::Request::Point`] through it as a batch of one. Nothing in
    /// a query's response depends on what it is batched with.
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
        // The §5 model applied to one selection: every index node visit
        // as a page access, plus one object access + exact test per
        // unidentified candidate.
        let kind = exact_cost_kind(&self.config.join);
        let identified = stats.filter_hits as f64;
        let cost = CostBreakdown {
            filter_yield_observed: if stats.candidates == 0 {
                0.0
            } else {
                identified / stats.candidates as f64
            },
            ..section5_cost(
                stats.node_visits,
                stats.exact_tests as f64,
                kind,
                &self.params,
            )
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

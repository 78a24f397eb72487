//! Multi-step point and window queries (§2, [BHKS 93] / [KBS 93]).
//!
//! The join is the paper's subject, but the same multi-step architecture
//! serves the selective queries it builds on — and Figure 10 measures
//! point and window queries on the same storage organizations. The
//! processor here mirrors the join pipeline:
//!
//! 1. R*-tree point/window query on the MBR keys → candidates, a window
//!    proving those whose MBR extent it covers (on the leaf in hand);
//! 2. geometric filter, where approximations are stored (the default
//!    stores none), cheapest proof first: the MER, then the conservative
//!    test on the rest, then a non-MER progressive (MEC), one candidate
//!    at a time;
//! 3. exact test for the remainder, as one pass per batch: a descent of
//!    the object's TR*-tree (§4.2, [`msj_exact::SelectionRefiner`]) where it
//!    proves the answer, the region's edges elsewhere — the same answers.

use crate::candidates::{self, CandidateSource, SelectionStats};
use crate::config::JoinConfig;
use msj_approx::{ConsView, ConservativeStore, Progressive, ProgressiveStore};
use msj_exact::{OpCounts, SelectProbe, SelectionRefiner, TrStarStore};
use msj_geom::kernels::KernelDispatch;
use msj_geom::{ObjectId, Point, Rect, RelHandle};
use msj_obs::{Span, Step, StepSpans};
use msj_sam::RStarTree;
use std::sync::Arc;

/// Per-query statistics of a multi-step query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Candidates produced by the index (MBR hits).
    pub candidates: u64,
    /// Candidates eliminated by the conservative approximation.
    pub filter_false_hits: u64,
    /// Candidates proved hits by Step 1's MBR or the progressive test.
    pub filter_hits: u64,
    /// Candidates that required the exact geometry.
    pub exact_tests: u64,
    /// Index nodes the probe visited (0 on the grid backend).
    pub node_visits: u64,
}

/// What a selection shape — a point or a window — asks of each step of
/// the pipeline. [`SelectionState::select`] is the one loop over it.
pub(crate) trait Probe: Copy + SelectProbe {
    /// Request-kind label of this shape (`"point"` / `"window"`).
    const KIND: &'static str;

    /// Step 1 for a batch of probes of this shape, with its MBR proofs.
    fn candidates(
        source: &dyn CandidateSource,
        probes: &[Self],
        out: &mut Vec<ObjectId>,
        proved: &mut Vec<bool>,
        stats: &mut Vec<SelectionStats>,
    );

    /// `false` proves a false hit: the probe misses the conservative
    /// approximation.
    fn meets_conservative(&self, cons: &ConsView<'_>) -> bool;

    /// `true` proves a hit: the probe meets the enclosed shape. A MER's
    /// NaN sentinel meets nothing, like [`Progressive::Empty`].
    fn meets_progressive(&self, prog: &Progressive) -> bool;
}

impl Probe for Point {
    const KIND: &'static str = "point";

    fn candidates(
        source: &dyn CandidateSource,
        probes: &[Self],
        out: &mut Vec<ObjectId>,
        proved: &mut Vec<bool>,
        stats: &mut Vec<SelectionStats>,
    ) {
        source.point_candidates(probes, out, stats);
        proved.resize(out.len(), false); // a point proves nothing from an MBR
    }

    fn meets_conservative(&self, cons: &ConsView<'_>) -> bool {
        cons.contains_point(*self)
    }

    fn meets_progressive(&self, prog: &Progressive) -> bool {
        match prog {
            Progressive::Mec(c) => c.contains_point(*self),
            Progressive::Mer(r) => r.contains_point(*self),
            Progressive::Empty => false,
        }
    }
}

impl Probe for Rect {
    const KIND: &'static str = "window";

    fn candidates(
        source: &dyn CandidateSource,
        probes: &[Self],
        out: &mut Vec<ObjectId>,
        proved: &mut Vec<bool>,
        stats: &mut Vec<SelectionStats>,
    ) {
        source.window_candidates(probes, out, proved, stats)
    }

    fn meets_conservative(&self, cons: &ConsView<'_>) -> bool {
        cons.intersects(&ConsView::Rect(self))
    }

    fn meets_progressive(&self, prog: &Progressive) -> bool {
        prog.intersects(&Progressive::Mer(*self))
    }
}

/// The resident multi-step selection state over one relation: candidate
/// source plus `Arc`-shared approximation stores. This is what a
/// [`crate::SpatialEngine`] dataset keeps registered.
pub(crate) struct SelectionState {
    source: Box<dyn CandidateSource>,
    conservative: Option<Arc<ConservativeStore>>,
    progressive: Option<Arc<ProgressiveStore>>,
    refiner: SelectionRefiner,
}

impl SelectionState {
    /// Assembles the state around a Step-1 index and stores built once at
    /// dataset registration; its source runs no join, so no SIMD kernel.
    pub fn new(
        relation: RelHandle<'static>,
        config: &JoinConfig,
        tree: Option<Arc<RStarTree>>,
        conservative: Option<Arc<ConservativeStore>>,
        progressive: Option<Arc<ProgressiveStore>>,
        trstar: Option<Arc<TrStarStore>>,
    ) -> Self {
        let dispatch = KernelDispatch::Scalar;
        let source = candidates::source_with(config, dispatch, relation.clone(), None, tree, None);
        SelectionState {
            refiner: SelectionRefiner::new(relation, trstar),
            source,
            conservative,
            progressive,
        }
    }

    /// Answers a batch of same-shape selections — every object whose
    /// region contains the point / intersects the window, closed
    /// semantics — handing each query's ids, statistics and exact-step
    /// operation counts to `emit` in probe order. A single query is a
    /// batch of one: the batch shares one set of scratch buffers, and
    /// nothing emitted depends on how probes are grouped.
    ///
    /// With `spans`, the index probes land in `Step1`, the filter chain
    /// in `Step2` and the exact tests in `Step3`; `None` skips every
    /// clock read. Results are identical either way.
    pub fn select<P: Probe>(
        &self,
        probes: &[P],
        spans: Option<&StepSpans>,
        mut emit: impl FnMut(Vec<ObjectId>, QueryStats, OpCounts),
    ) {
        let t_probe = spans.map(|_| Span::start());
        let (mut all, mut hit) = (Vec::new(), Vec::new());
        let mut probe_stats = Vec::with_capacity(probes.len());
        P::candidates(&*self.source, probes, &mut all, &mut hit, &mut probe_stats);
        if let (Some(spans), Some(t)) = (spans, t_probe) {
            spans.finish(Step::Step1, t);
        }
        let t_rest = spans.map(|_| Span::start());
        // `hit` starts as Step 1's proofs. MER ⊆ object ⊆ conservative, so
        // a stored MER tested first and a configured conservative
        // approximation on the rest give every outcome and count of the
        // paper-order chain; where rounding breaks that claim (the debug
        // assertion), the MER's proof stands.
        let mers = self.progressive.as_deref().and_then(|p| p.mer_column());
        let mec = self.progressive.as_deref().filter(|_| mers.is_none());
        let conservative = self.conservative.as_deref();
        let mut undecided = Vec::new();
        let mut answers = Vec::with_capacity(probes.len());
        let mut offset = 0usize;
        for (probe, step1) in probes.iter().zip(&probe_stats) {
            let candidates = &all[offset..offset + step1.candidates as usize];
            let mut q = QueryStats {
                candidates: step1.candidates,
                node_visits: step1.node_visits,
                ..QueryStats::default()
            };
            let mer = |id| {
                mers.is_some_and(|m| probe.meets_progressive(&Progressive::Mer(m[id as usize])))
            };
            let cons = |id| conservative.is_none_or(|c| probe.meets_conservative(&c.view(id)));
            for (slot, &id) in (offset..).zip(candidates) {
                if hit[slot] || mer(id) {
                    hit[slot] = true;
                    debug_assert!(cons(id), "conservative test drops {id}, a proved hit");
                    q.filter_hits += 1;
                } else if !cons(id) {
                    q.filter_false_hits += 1;
                } else if mec.is_some_and(|p| probe.meets_progressive(&p.get(id))) {
                    hit[slot] = true;
                    q.filter_hits += 1;
                } else {
                    q.exact_tests += 1;
                    undecided.push((slot, answers.len()));
                }
            }
            offset += candidates.len();
            answers.push((q, OpCounts::new()));
        }
        // Step 3 as its own pass over the undecided slots, in probe order.
        let t_exact = (spans.is_some() && !undecided.is_empty()).then(Span::start);
        for (slot, k) in undecided {
            hit[slot] = (self.refiner).meets(all[slot], &probes[k], &mut answers[k].1);
        }
        let exact_nanos = t_exact.map_or(0, |t| t.elapsed_nanos());
        let mut offset = 0usize;
        for (q, ops) in answers {
            let slots = offset..offset + q.candidates as usize;
            offset = slots.end;
            emit(slots.filter(|&s| hit[s]).map(|s| all[s]).collect(), q, ops);
        }
        if let (Some(spans), Some(t)) = (spans, t_rest) {
            // Step 2 is the candidate loop minus its exact share.
            spans.add(Step::Step3, exact_nanos);
            spans.add(Step::Step2, t.elapsed_nanos().saturating_sub(exact_nanos));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msj_approx::{ConservativeKind, ProgressiveKind};
    use msj_geom::Relation;

    /// Everything built from the relation alone — what the engine does at
    /// registration, without the engine.
    fn state(rel: &Relation, config: &JoinConfig) -> SelectionState {
        let relation = Arc::new(rel.clone());
        let conservative = config
            .conservative
            .map(|k| Arc::new(ConservativeStore::build(k, &relation)));
        let progressive = config
            .progressive
            .map(|k| Arc::new(ProgressiveStore::build(k, &relation)));
        let trstar = match config.exact {
            msj_exact::ExactAlgorithm::TrStar { max_entries } => {
                Some(Arc::new(TrStarStore::build(&relation, max_entries)))
            }
            _ => None,
        };
        let relation = RelHandle::from(relation);
        SelectionState::new(relation, config, None, conservative, progressive, trstar)
    }

    fn select_all<P: Probe>(
        state: &SelectionState,
        probes: &[P],
    ) -> Vec<(Vec<ObjectId>, QueryStats, OpCounts)> {
        let mut out = Vec::new();
        state.select(probes, None, |ids, stats, ops| out.push((ids, stats, ops)));
        out
    }

    fn select_one<P: Probe>(state: &SelectionState, probe: P) -> (Vec<ObjectId>, QueryStats) {
        let (ids, stats, _) = select_all(state, &[probe]).pop().expect("one answer");
        (ids, stats)
    }

    fn processor_configs() -> Vec<JoinConfig> {
        use crate::config::Backend;
        vec![
            JoinConfig::version1(),
            JoinConfig::default(),
            JoinConfig::version3(),
            JoinConfig {
                conservative: Some(ConservativeKind::ConvexHull),
                progressive: Some(ProgressiveKind::Mec),
                ..JoinConfig::default()
            },
            JoinConfig {
                conservative: Some(ConservativeKind::Mbe),
                progressive: None,
                ..JoinConfig::default()
            },
            JoinConfig {
                backend: Backend::PartitionedSweep {
                    tiles_per_axis: 6,
                    threads: 1,
                },
                ..JoinConfig::default()
            },
        ]
    }

    #[test]
    fn point_query_matches_linear_scan_for_all_configs() {
        let rel = msj_datagen::small_carto(60, 24.0, 17);
        let world = rel.bounding_rect().unwrap();
        for config in processor_configs() {
            let proc = state(&rel, &config);
            for i in 0..40 {
                let p = Point::new(
                    world.xmin() + world.width() * (i as f64 * 0.37).fract(),
                    world.ymin() + world.height() * (i as f64 * 0.61).fract(),
                );
                let (mut got, stats) = select_one(&proc, p);
                got.sort_unstable();
                let mut expect: Vec<ObjectId> = rel
                    .iter()
                    .filter(|o| o.region.contains_point(p))
                    .map(|o| o.id)
                    .collect();
                expect.sort_unstable();
                assert_eq!(got, expect, "point {p:?} config {config:?}");
                assert_eq!(
                    stats.candidates,
                    stats.filter_false_hits + stats.filter_hits + stats.exact_tests
                );
            }
        }
    }

    #[test]
    fn window_query_matches_linear_scan_for_all_configs() {
        let rel = msj_datagen::small_carto(60, 24.0, 18);
        let world = rel.bounding_rect().unwrap();
        for config in processor_configs() {
            let proc = state(&rel, &config);
            for i in 0..25 {
                let cx = world.xmin() + world.width() * (i as f64 * 0.31).fract();
                let cy = world.ymin() + world.height() * (i as f64 * 0.47).fract();
                let side = world.width() * (0.01 + 0.08 * (i as f64 * 0.13).fract());
                let w = Rect::from_bounds(cx, cy, cx + side, cy + side);
                let (mut got, _) = select_one(&proc, w);
                got.sort_unstable();
                let mut expect: Vec<ObjectId> = rel
                    .iter()
                    .filter(|o| msj_exact::window::region_intersects_rect_reference(&o.region, &w))
                    .map(|o| o.id)
                    .collect();
                expect.sort_unstable();
                assert_eq!(got, expect, "window {w:?} config {config:?}");
            }
        }
    }

    /// How probes are grouped into batches never shows in an answer: the
    /// batch's shared candidate arena is sliced per query exactly as a
    /// batch of one would fill it.
    #[test]
    fn batched_queries_match_serial_per_query_for_all_configs() {
        let rel = msj_datagen::small_carto(60, 24.0, 21);
        let world = rel.bounding_rect().unwrap();
        let points: Vec<Point> = (0..24)
            .map(|i| {
                Point::new(
                    world.xmin() + world.width() * (i as f64 * 0.37).fract(),
                    world.ymin() + world.height() * (i as f64 * 0.61).fract(),
                )
            })
            .collect();
        let windows: Vec<Rect> = (0..16)
            .map(|i| {
                let cx = world.xmin() + world.width() * (i as f64 * 0.31).fract();
                let cy = world.ymin() + world.height() * (i as f64 * 0.47).fract();
                let side = world.width() * (0.01 + 0.08 * (i as f64 * 0.13).fract());
                Rect::from_bounds(cx, cy, cx + side, cy + side)
            })
            .collect();
        for config in processor_configs() {
            let state = state(&rel, &config);
            let batched = select_all(&state, &points);
            assert_eq!(batched.len(), points.len());
            for (i, &p) in points.iter().enumerate() {
                let single = select_all(&state, &[p]).pop().unwrap();
                assert_eq!(batched[i], single, "point {p:?} config {config:?}");
            }
            let batched = select_all(&state, &windows);
            assert_eq!(batched.len(), windows.len());
            for (i, w) in windows.iter().enumerate() {
                let single = select_all(&state, &[*w]).pop().unwrap();
                assert_eq!(batched[i], single, "window {w:?} config {config:?}");
            }
        }
    }

    #[test]
    fn filter_reduces_exact_tests_for_point_queries() {
        let rel = msj_datagen::small_carto(80, 30.0, 19);
        let world = rel.bounding_rect().unwrap();
        let with_filter = state(&rel, &JoinConfig::version3());
        let without = state(&rel, &JoinConfig::version1());
        let mut exact_with = 0;
        let mut exact_without = 0;
        for i in 0..60 {
            let p = Point::new(
                world.xmin() + world.width() * (i as f64 * 0.17).fract(),
                world.ymin() + world.height() * (i as f64 * 0.29).fract(),
            );
            exact_with += select_one(&with_filter, p).1.exact_tests;
            exact_without += select_one(&without, p).1.exact_tests;
        }
        assert!(
            exact_with < exact_without,
            "filter should cut exact point tests: {exact_with} vs {exact_without}"
        );
    }
}

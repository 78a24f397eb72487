//! Multi-step point and window queries (§2, [BHKS 93] / [KBS 93]).
//!
//! The join is the paper's subject, but the same multi-step architecture
//! serves the selective queries it builds on — and Figure 10 measures
//! point and window queries on the same storage organizations. The
//! processor here mirrors the join pipeline, with one route per step on
//! either join backend:
//!
//! 1. the dataset's R*-tree, point/window query on the MBR keys →
//!    candidates, a window proving those whose MBR extent it covers (on
//!    the leaf in hand);
//! 2. no approximation test: the engine stores none beyond the MBR, so
//!    Step 1's proofs are the whole filter;
//! 3. exact test for the remainder, as one pass per batch: a descent of
//!    the object's TR*-tree (§4.2, [`msj_exact::SelectionRefiner`]) where it
//!    proves the answer, the region's edges elsewhere — the same answers.

use msj_exact::{OpCounts, SelectProbe, SelectionRefiner, TrStarStore};
use msj_geom::{ObjectId, Point, Rect, RelHandle};
use msj_obs::{Span, Step, StepSpans};
use msj_sam::RStarTree;
use std::sync::Arc;

/// Per-query statistics of a multi-step query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Candidates produced by the index (MBR hits).
    pub candidates: u64,
    /// Candidates proved hits by Step 1's MBR.
    pub filter_hits: u64,
    /// Candidates that required the exact geometry.
    pub exact_tests: u64,
    /// R*-tree nodes the probe visited.
    pub node_visits: u64,
}

/// What a selection shape — a point or a window — asks of Step 1.
/// [`SelectionState::select`] is the one loop over it.
pub(crate) trait Probe: Copy + SelectProbe {
    /// Request-kind label of this shape (`"point"` / `"window"`).
    const KIND: &'static str;

    /// Step 1 for one probe: appends the ids whose MBR meets it to `out`
    /// and, per id, whether the MBR alone proves a hit to `proved`;
    /// returns the node visits.
    fn descend(self, tree: &RStarTree, out: &mut Vec<ObjectId>, proved: &mut Vec<bool>) -> u64;
}

impl Probe for Point {
    const KIND: &'static str = "point";

    fn descend(self, tree: &RStarTree, out: &mut Vec<ObjectId>, proved: &mut Vec<bool>) -> u64 {
        let visits = tree.point_query(self, &mut (), out);
        proved.resize(out.len(), false); // a point proves nothing from an MBR
        visits
    }
}

impl Probe for Rect {
    const KIND: &'static str = "window";

    fn descend(self, tree: &RStarTree, out: &mut Vec<ObjectId>, proved: &mut Vec<bool>) -> u64 {
        tree.window_query_proving(self, &mut (), out, proved)
    }
}

/// The resident multi-step selection state over one relation: its
/// R*-tree and its Step-3 refiner. This is what a
/// [`crate::SpatialEngine`] dataset keeps registered.
pub(crate) struct SelectionState {
    tree: Arc<RStarTree>,
    refiner: SelectionRefiner,
}

impl SelectionState {
    /// Assembles the state around a tree and TR*-trees built (or adopted)
    /// once at dataset registration.
    pub fn new(
        relation: RelHandle<'static>,
        tree: Arc<RStarTree>,
        trstar: Option<Arc<TrStarStore>>,
    ) -> Self {
        SelectionState {
            tree,
            refiner: SelectionRefiner::new(relation, trstar),
        }
    }

    /// Answers a batch of same-shape selections — every object whose
    /// region contains the point / intersects the window, closed
    /// semantics — handing each query's ids, statistics and exact-step
    /// operation counts to `emit` in probe order. A single query is a
    /// batch of one: the batch shares one set of scratch buffers, and
    /// nothing emitted depends on how probes are grouped.
    ///
    /// With `spans`, the index probes land in `Step1`, the candidate loop
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
        let mut answers = Vec::with_capacity(probes.len());
        for &probe in probes {
            let before = all.len();
            let node_visits = probe.descend(&self.tree, &mut all, &mut hit);
            let q = QueryStats {
                candidates: (all.len() - before) as u64,
                node_visits,
                ..QueryStats::default()
            };
            answers.push((q, OpCounts::new()));
        }
        if let (Some(spans), Some(t)) = (spans, t_probe) {
            spans.finish(Step::Step1, t);
        }
        let t_rest = spans.map(|_| Span::start());
        // `hit` holds Step 1's proofs; every other candidate goes to
        // Step 3.
        let mut undecided = Vec::new();
        let mut offset = 0usize;
        for (k, (q, _)) in answers.iter_mut().enumerate() {
            let slots = offset..offset + q.candidates as usize;
            offset = slots.end;
            for slot in slots {
                if hit[slot] {
                    q.filter_hits += 1;
                } else {
                    q.exact_tests += 1;
                    undecided.push((slot, k));
                }
            }
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
    use crate::config::JoinConfig;
    use msj_geom::Relation;

    /// Everything built from the relation alone — what the engine does at
    /// registration, without the engine.
    fn state(rel: &Relation, config: &JoinConfig) -> SelectionState {
        let relation = Arc::new(rel.clone());
        let tree = Arc::new(crate::candidates::build_tree(config, rel));
        let trstar = match config.exact {
            msj_exact::ExactAlgorithm::TrStar { max_entries } => {
                Some(Arc::new(TrStarStore::build(&relation, max_entries)))
            }
            _ => None,
        };
        SelectionState::new(RelHandle::from(relation), tree, trstar)
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

    /// Step 3 with and without TR*-trees, at the measured and the
    /// paper's node capacity.
    fn processor_configs() -> Vec<JoinConfig> {
        let paper_capacity = msj_exact::ExactAlgorithm::TrStar { max_entries: 3 };
        vec![
            JoinConfig::version1(),
            JoinConfig::default(),
            JoinConfig::builder().exact(paper_capacity).build(),
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
                assert_eq!(stats.candidates, stats.filter_hits + stats.exact_tests);
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
}

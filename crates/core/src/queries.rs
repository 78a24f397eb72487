//! Multi-step point and window queries (§2, [BHKS 93] / [KBS 93]).
//!
//! The join is the paper's subject, but the same multi-step architecture
//! serves the selective queries it builds on — and Figure 10 measures
//! point and window queries on the same storage organizations. The
//! processor here mirrors the join pipeline:
//!
//! 1. R*-tree point/window query on the MBR keys → candidates;
//! 2. geometric filter: conservative approximation test (false-hit
//!    elimination), progressive approximation test (hit identification);
//! 3. exact geometry test for the remainder.

use crate::candidates::{self, CandidateSource};
use crate::config::JoinConfig;
use msj_approx::{ConsView, ConservativeStore, Progressive, ProgressiveStore};
use msj_exact::{region_contains_point, region_intersects_rect, OpCounts};
use msj_geom::kernels::{self, KernelDispatch};
use msj_geom::{ObjectId, Point, Rect, RelHandle};
use msj_obs::{Span, Step, StepSpans};
use std::sync::Arc;

/// Per-query statistics of a multi-step query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Candidates produced by the index (MBR hits).
    pub candidates: u64,
    /// Candidates eliminated by the conservative approximation.
    pub filter_false_hits: u64,
    /// Candidates confirmed by the progressive approximation.
    pub filter_hits: u64,
    /// Candidates that required the exact geometry.
    pub exact_tests: u64,
    /// Physical page accesses of the index probe.
    pub physical_reads: u64,
}

/// The resident multi-step selection state over one relation: candidate
/// source plus `Arc`-shared approximation stores. This is what a
/// [`crate::SpatialEngine`] dataset keeps registered.
pub(crate) struct SelectionState<'a> {
    pub relation: RelHandle<'a>,
    pub source: Box<dyn CandidateSource + 'a>,
    pub conservative: Option<Arc<ConservativeStore>>,
    pub progressive: Option<Arc<ProgressiveStore>>,
    /// Kernel path of the wide MER probe masks; the per-candidate
    /// fallback chain stays scalar. Outcomes are identical on every
    /// path.
    pub dispatch: KernelDispatch,
}

impl<'a> SelectionState<'a> {
    /// Builds everything from the relation alone — what the engine does
    /// at registration, without the engine.
    #[cfg(test)]
    fn build(relation: RelHandle<'a>, config: &JoinConfig) -> Self {
        let conservative = config
            .conservative
            .map(|k| Arc::new(ConservativeStore::build(k, &relation)));
        let progressive = config
            .progressive
            .map(|k| Arc::new(ProgressiveStore::build(k, &relation)));
        Self::from_shared_with_step1(
            relation,
            config,
            candidates::SharedStep1::default(),
            conservative,
            progressive,
        )
    }

    /// Assembles the state around a Step-1 index and stores built once at
    /// dataset registration.
    pub fn from_shared_with_step1(
        relation: RelHandle<'a>,
        config: &JoinConfig,
        shared: candidates::SharedStep1,
        conservative: Option<Arc<ConservativeStore>>,
        progressive: Option<Arc<ProgressiveStore>>,
    ) -> Self {
        let source = candidates::selection_source_with(config, relation.clone(), shared);
        SelectionState {
            relation,
            source,
            conservative,
            progressive,
            dispatch: config.kernel_dispatch(),
        }
    }

    /// All objects whose region contains `p` (closed semantics).
    pub fn point_query(&self, p: Point, counts: &mut OpCounts) -> (Vec<ObjectId>, QueryStats) {
        self.point_query_observed(p, counts, None)
    }

    /// [`point_query`](SelectionState::point_query) with step timing:
    /// the index probe lands in `Step1`, the filter chain in `Step2` and
    /// the exact tests in `Step3` of `spans`; `None` skips every clock
    /// read. Results are identical either way.
    pub fn point_query_observed(
        &self,
        p: Point,
        counts: &mut OpCounts,
        spans: Option<&StepSpans>,
    ) -> (Vec<ObjectId>, QueryStats) {
        let t_probe = spans.map(|_| Span::start());
        let mut candidates = Vec::new();
        let step1 = self.source.point_candidates(p, &mut candidates);
        if let (Some(spans), Some(t)) = (spans, t_probe) {
            spans.finish(Step::Step1, t);
        }
        let mut stats = QueryStats {
            candidates: step1.candidates,
            physical_reads: step1.physical_reads,
            ..QueryStats::default()
        };
        let t_rest = spans.map(|_| Span::start());
        // MER progressive columns admit a wide probe: one id-gathered
        // point-in-rect mask over the whole candidate list (NaN-sentinel
        // slots land `false`, exactly like `Progressive::Empty`). The
        // per-candidate chain below consumes it by index.
        let mer_mask = self.progressive.as_deref().and_then(|prog| {
            prog.mer_column().map(|mers| {
                let mut mask = Vec::new();
                kernels::rects_contain_point(self.dispatch, mers, &candidates, p, &mut mask);
                mask
            })
        });
        let mut exact_nanos = 0u64;
        let mut result = Vec::new();
        for (slot, id) in candidates.into_iter().enumerate() {
            // Conservative: point outside the approximation → false hit.
            if let Some(cons) = &self.conservative {
                if !cons.view(id).contains_point(p) {
                    stats.filter_false_hits += 1;
                    continue;
                }
            }
            // Progressive: point inside the enclosed shape → hit.
            if let Some(prog) = &self.progressive {
                let hit = match &mer_mask {
                    Some(mask) => mask[slot],
                    None => progressive_contains(&prog.get(id), p),
                };
                if hit {
                    stats.filter_hits += 1;
                    result.push(id);
                    continue;
                }
            }
            stats.exact_tests += 1;
            let t_exact = spans.map(|_| Span::start());
            let hit = region_contains_point(&self.relation.object(id).region, p, counts);
            if let Some(t) = t_exact {
                exact_nanos += t.elapsed_nanos();
            }
            if hit {
                result.push(id);
            }
        }
        if let (Some(spans), Some(t)) = (spans, t_rest) {
            // Step 2 is the candidate loop minus its exact share.
            spans.add(Step::Step3, exact_nanos);
            spans.add(Step::Step2, t.elapsed_nanos().saturating_sub(exact_nanos));
        }
        (result, stats)
    }

    /// A *batch* of point queries sharing one Step-1 descent (single
    /// simulated-buffer lock, warm root path — see
    /// [`crate::candidates::CandidateSource::point_candidates_batch`])
    /// and one filter pass with shared scratch buffers. Per query, the
    /// candidate order, the result ids and every deterministic stats
    /// field are identical to [`point_query`](SelectionState::point_query)
    /// — only the physical-read attribution can differ, because the
    /// batch keeps the buffer warm between its queries.
    pub fn point_query_batch(
        &self,
        points: &[Point],
        counts: &mut OpCounts,
        spans: Option<&StepSpans>,
    ) -> Vec<(Vec<ObjectId>, QueryStats, OpCounts)> {
        let t_probe = spans.map(|_| Span::start());
        let mut all = Vec::new();
        let mut probe_stats = Vec::with_capacity(points.len());
        self.source
            .point_candidates_batch(points, &mut all, &mut probe_stats);
        if let (Some(spans), Some(t)) = (spans, t_probe) {
            spans.finish(Step::Step1, t);
        }
        let t_rest = spans.map(|_| Span::start());
        let mer = self.progressive.as_deref().and_then(|p| p.mer_column());
        let mut mask = Vec::new();
        let mut exact_nanos = 0u64;
        let mut out = Vec::with_capacity(points.len());
        let mut offset = 0usize;
        for (qi, &p) in points.iter().enumerate() {
            let n = probe_stats[qi].candidates as usize;
            let candidates = &all[offset..offset + n];
            offset += n;
            let mut stats = QueryStats {
                candidates: probe_stats[qi].candidates,
                physical_reads: probe_stats[qi].physical_reads,
                ..QueryStats::default()
            };
            let has_mask = match mer {
                Some(mers) => {
                    mask.clear();
                    kernels::rects_contain_point(self.dispatch, mers, candidates, p, &mut mask);
                    true
                }
                None => false,
            };
            let mut result = Vec::new();
            let mut q_counts = OpCounts::new();
            for (slot, &id) in candidates.iter().enumerate() {
                if let Some(cons) = &self.conservative {
                    if !cons.view(id).contains_point(p) {
                        stats.filter_false_hits += 1;
                        continue;
                    }
                }
                if let Some(prog) = &self.progressive {
                    let hit = if has_mask {
                        mask[slot]
                    } else {
                        progressive_contains(&prog.get(id), p)
                    };
                    if hit {
                        stats.filter_hits += 1;
                        result.push(id);
                        continue;
                    }
                }
                stats.exact_tests += 1;
                let t_exact = spans.map(|_| Span::start());
                let hit = region_contains_point(&self.relation.object(id).region, p, &mut q_counts);
                if let Some(t) = t_exact {
                    exact_nanos += t.elapsed_nanos();
                }
                if hit {
                    result.push(id);
                }
            }
            counts.merge(&q_counts);
            out.push((result, stats, q_counts));
        }
        if let (Some(spans), Some(t)) = (spans, t_rest) {
            spans.add(Step::Step3, exact_nanos);
            spans.add(Step::Step2, t.elapsed_nanos().saturating_sub(exact_nanos));
        }
        out
    }

    /// Batched window queries — the window-shaped counterpart of
    /// [`point_query_batch`](SelectionState::point_query_batch), with
    /// the same identical-per-query contract.
    pub fn window_query_batch(
        &self,
        windows: &[Rect],
        counts: &mut OpCounts,
        spans: Option<&StepSpans>,
    ) -> Vec<(Vec<ObjectId>, QueryStats, OpCounts)> {
        let t_probe = spans.map(|_| Span::start());
        let mut all = Vec::new();
        let mut probe_stats = Vec::with_capacity(windows.len());
        self.source
            .window_candidates_batch(windows, &mut all, &mut probe_stats);
        if let (Some(spans), Some(t)) = (spans, t_probe) {
            spans.finish(Step::Step1, t);
        }
        let t_rest = spans.map(|_| Span::start());
        let mer = self.progressive.as_deref().and_then(|p| p.mer_column());
        let mut mask = Vec::new();
        let mut window_ring = Vec::new();
        let mut exact_nanos = 0u64;
        let mut out = Vec::with_capacity(windows.len());
        let mut offset = 0usize;
        for (qi, window) in windows.iter().enumerate() {
            let n = probe_stats[qi].candidates as usize;
            let candidates = &all[offset..offset + n];
            offset += n;
            let mut stats = QueryStats {
                candidates: probe_stats[qi].candidates,
                physical_reads: probe_stats[qi].physical_reads,
                ..QueryStats::default()
            };
            window_ring.clear();
            window_ring.extend_from_slice(&window.corners());
            let has_mask = match mer {
                Some(mers) => {
                    mask.clear();
                    kernels::rects_intersect_query(
                        self.dispatch,
                        mers,
                        candidates,
                        window,
                        &mut mask,
                    );
                    true
                }
                None => false,
            };
            let mut result = Vec::new();
            let mut q_counts = OpCounts::new();
            for (slot, &id) in candidates.iter().enumerate() {
                if let Some(cons) = &self.conservative {
                    if !conservative_intersects_window(&cons.view(id), window, &window_ring) {
                        stats.filter_false_hits += 1;
                        continue;
                    }
                }
                if let Some(prog) = &self.progressive {
                    let hit = if has_mask {
                        mask[slot]
                    } else {
                        progressive_intersects_window(&prog.get(id), window)
                    };
                    if hit {
                        stats.filter_hits += 1;
                        result.push(id);
                        continue;
                    }
                }
                stats.exact_tests += 1;
                let t_exact = spans.map(|_| Span::start());
                let hit =
                    region_intersects_rect(&self.relation.object(id).region, window, &mut q_counts);
                if let Some(t) = t_exact {
                    exact_nanos += t.elapsed_nanos();
                }
                if hit {
                    result.push(id);
                }
            }
            counts.merge(&q_counts);
            out.push((result, stats, q_counts));
        }
        if let (Some(spans), Some(t)) = (spans, t_rest) {
            spans.add(Step::Step3, exact_nanos);
            spans.add(Step::Step2, t.elapsed_nanos().saturating_sub(exact_nanos));
        }
        out
    }

    /// All objects whose region intersects `window` (closed semantics).
    pub fn window_query(&self, window: Rect, counts: &mut OpCounts) -> (Vec<ObjectId>, QueryStats) {
        self.window_query_observed(window, counts, None)
    }

    /// [`window_query`](SelectionState::window_query) with step timing —
    /// same attribution as
    /// [`point_query_observed`](SelectionState::point_query_observed).
    pub fn window_query_observed(
        &self,
        window: Rect,
        counts: &mut OpCounts,
        spans: Option<&StepSpans>,
    ) -> (Vec<ObjectId>, QueryStats) {
        let t_probe = spans.map(|_| Span::start());
        let mut candidates = Vec::new();
        let step1 = self.source.window_candidates(window, &mut candidates);
        if let (Some(spans), Some(t)) = (spans, t_probe) {
            spans.finish(Step::Step1, t);
        }
        let mut stats = QueryStats {
            candidates: step1.candidates,
            physical_reads: step1.physical_reads,
            ..QueryStats::default()
        };
        let window_ring = window.corners().to_vec();
        let t_rest = spans.map(|_| Span::start());
        // Same wide MER probe as the point path, with the window-vs-rect
        // kernel.
        let mer_mask = self.progressive.as_deref().and_then(|prog| {
            prog.mer_column().map(|mers| {
                let mut mask = Vec::new();
                kernels::rects_intersect_query(
                    self.dispatch,
                    mers,
                    &candidates,
                    &window,
                    &mut mask,
                );
                mask
            })
        });
        let mut exact_nanos = 0u64;
        let mut result = Vec::new();
        for (slot, id) in candidates.into_iter().enumerate() {
            if let Some(cons) = &self.conservative {
                if !conservative_intersects_window(&cons.view(id), &window, &window_ring) {
                    stats.filter_false_hits += 1;
                    continue;
                }
            }
            if let Some(prog) = &self.progressive {
                let hit = match &mer_mask {
                    Some(mask) => mask[slot],
                    None => progressive_intersects_window(&prog.get(id), &window),
                };
                if hit {
                    stats.filter_hits += 1;
                    result.push(id);
                    continue;
                }
            }
            stats.exact_tests += 1;
            let t_exact = spans.map(|_| Span::start());
            let hit = region_intersects_rect(&self.relation.object(id).region, &window, counts);
            if let Some(t) = t_exact {
                exact_nanos += t.elapsed_nanos();
            }
            if hit {
                result.push(id);
            }
        }
        if let (Some(spans), Some(t)) = (spans, t_rest) {
            spans.add(Step::Step3, exact_nanos);
            spans.add(Step::Step2, t.elapsed_nanos().saturating_sub(exact_nanos));
        }
        (result, stats)
    }
}

fn progressive_contains(prog: &Progressive, p: Point) -> bool {
    match prog {
        Progressive::Mec(c) => c.contains_point(p),
        Progressive::Mer(r) => r.contains_point(p),
        Progressive::Empty => false,
    }
}

fn progressive_intersects_window(prog: &Progressive, window: &Rect) -> bool {
    match prog {
        Progressive::Mec(c) => c.intersects_rect(window),
        Progressive::Mer(r) => r.intersects(window),
        Progressive::Empty => false,
    }
}

fn conservative_intersects_window(
    cons: &ConsView<'_>,
    window: &Rect,
    window_ring: &[Point],
) -> bool {
    match cons {
        ConsView::Rect(r) => r.intersects(window),
        ConsView::Circle(c) => c.intersects_rect(window),
        ConsView::Ellipse(e) => e.intersects_convex(window_ring),
        ConsView::Convex(ring) => msj_geom::convex_intersect(ring, window_ring),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msj_approx::{ConservativeKind, ProgressiveKind};

    fn processor_configs() -> Vec<JoinConfig> {
        use crate::config::Backend;
        vec![
            JoinConfig::version1(),
            JoinConfig::default(),
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
            let proc = SelectionState::build((&rel).into(), &config);
            let mut counts = OpCounts::new();
            for i in 0..40 {
                let p = Point::new(
                    world.xmin() + world.width() * (i as f64 * 0.37).fract(),
                    world.ymin() + world.height() * (i as f64 * 0.61).fract(),
                );
                let (mut got, stats) = proc.point_query(p, &mut counts);
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
            let proc = SelectionState::build((&rel).into(), &config);
            let mut counts = OpCounts::new();
            for i in 0..25 {
                let cx = world.xmin() + world.width() * (i as f64 * 0.31).fract();
                let cy = world.ymin() + world.height() * (i as f64 * 0.47).fract();
                let side = world.width() * (0.01 + 0.08 * (i as f64 * 0.13).fract());
                let w = Rect::from_bounds(cx, cy, cx + side, cy + side);
                let (mut got, _) = proc.window_query(w, &mut counts);
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
            let state = SelectionState::build((&rel).into(), &config);
            let mut counts = OpCounts::new();
            let batched = state.point_query_batch(&points, &mut counts, None);
            assert_eq!(batched.len(), points.len());
            for (i, &p) in points.iter().enumerate() {
                let mut serial_ops = OpCounts::new();
                let (ids, stats) = state.point_query(p, &mut serial_ops);
                assert_eq!(batched[i].0, ids, "point {p:?} config {config:?}");
                // Everything but the buffer-warmth-dependent physical
                // reads must agree exactly.
                assert_eq!(batched[i].1.candidates, stats.candidates);
                assert_eq!(batched[i].1.filter_false_hits, stats.filter_false_hits);
                assert_eq!(batched[i].1.filter_hits, stats.filter_hits);
                assert_eq!(batched[i].1.exact_tests, stats.exact_tests);
                assert_eq!(batched[i].2, serial_ops);
            }
            let batched = state.window_query_batch(&windows, &mut counts, None);
            assert_eq!(batched.len(), windows.len());
            for (i, w) in windows.iter().enumerate() {
                let mut serial_ops = OpCounts::new();
                let (ids, stats) = state.window_query(*w, &mut serial_ops);
                assert_eq!(batched[i].0, ids, "window {w:?} config {config:?}");
                assert_eq!(batched[i].1.candidates, stats.candidates);
                assert_eq!(batched[i].1.filter_false_hits, stats.filter_false_hits);
                assert_eq!(batched[i].1.filter_hits, stats.filter_hits);
                assert_eq!(batched[i].1.exact_tests, stats.exact_tests);
                assert_eq!(batched[i].2, serial_ops);
            }
        }
    }

    #[test]
    fn filter_reduces_exact_tests_for_point_queries() {
        let rel = msj_datagen::small_carto(80, 30.0, 19);
        let world = rel.bounding_rect().unwrap();
        let with_filter = SelectionState::build((&rel).into(), &JoinConfig::default());
        let without = SelectionState::build((&rel).into(), &JoinConfig::version1());
        let mut c1 = OpCounts::new();
        let mut c2 = OpCounts::new();
        let mut exact_with = 0;
        let mut exact_without = 0;
        for i in 0..60 {
            let p = Point::new(
                world.xmin() + world.width() * (i as f64 * 0.17).fract(),
                world.ymin() + world.height() * (i as f64 * 0.29).fract(),
            );
            exact_with += with_filter.point_query(p, &mut c1).1.exact_tests;
            exact_without += without.point_query(p, &mut c2).1.exact_tests;
        }
        assert!(
            exact_with < exact_without,
            "filter should cut exact point tests: {exact_with} vs {exact_without}"
        );
    }
}

//! Step two: the geometric filter (§3).
//!
//! Candidates from the MBR-join are classified using the stored
//! approximations into *hits* (certainly intersecting), *false hits*
//! (certainly disjoint) and remaining *candidates* for the exact step.
//!
//! ## Step 2a: the raster pre-filter
//!
//! When [`crate::JoinConfig::raster`] is on (the default), every
//! candidate batch first runs through the **raster-interval signature
//! stage** ([`msj_approx::raster`]): up to three binary-search intersections
//! of the pair's A (all cells) and F (FULL cells) Hilbert-run lists that
//! prove disjointness (`A × A` empty), prove intersection (`A × F` or
//! `F × A` non-empty), or fall through. The stage touches only the flat
//! run arenas — the approximation columns are never loaded for candidates it
//! decides — and both relations are rasterized on one shared grid built
//! in Step 0.
//!
//! ## The chain
//!
//! The test chain — raster → conservative → progressive → (optional)
//! false-area — is fixed per *join* by the configured approximation
//! kinds. The resident [`crate::SpatialEngine`] runs the raster stage
//! alone; 5-C and MER run only in a one-shot [`crate::MultiStepJoin`]
//! (and the paper tables) whose plan configures them (versions 2 and 3),
//! built by [`GeometricFilter::from_config`]. Per-pair
//! [`GeometricFilter::classify`] is the reference;
//! [`GeometricFilter::classify_batch`] runs it over the raster stage's
//! undecided remainder and is outcome-identical by construction (and by
//! test).

use msj_approx::{
    auto_grid_bits, raster_decide, ConservativeStore, ProgressiveStore, RasterDecision, RasterGrid,
    RasterStore,
};
use msj_geom::{ObjectId, Relation};
use msj_obs::{Span, Step, StepSpans};
use std::sync::Arc;

/// Classification of one candidate pair by the geometric filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterOutcome {
    /// Step 2a: the raster signatures share a FULL cell → objects
    /// intersect.
    HitRaster,
    /// Step 2a: the raster signatures share no cell → objects are
    /// disjoint.
    DropRaster,
    /// Conservative approximations are disjoint → objects are disjoint.
    FalseHit,
    /// Progressive approximations intersect → objects intersect.
    HitProgressive,
    /// The false-area test proved an intersection.
    HitFalseArea,
    /// Inconclusive: the exact geometry must decide.
    Candidate,
}

/// The geometric filter: per-relation columnar approximation stores and
/// the configured tests.
///
/// Every store sits behind [`Arc`]: a self-join's relation has one store
/// on both sides, and the raster stores, pair-level (both relations must
/// be rasterized on one shared grid), are shared across repeated runs of
/// the same prepared join.
pub struct GeometricFilter {
    /// Step-2a raster signatures, both relations on one shared grid.
    raster_a: Option<Arc<RasterStore>>,
    raster_b: Option<Arc<RasterStore>>,
    conservative_a: Option<Arc<ConservativeStore>>,
    conservative_b: Option<Arc<ConservativeStore>>,
    progressive_a: Option<Arc<ProgressiveStore>>,
    progressive_b: Option<Arc<ProgressiveStore>>,
    use_false_area: bool,
}

impl GeometricFilter {
    /// Attaches the Step-2a raster stage: both relations rasterized on one
    /// grid sized by [`auto_grid_bits`], a self-join's relation once; a
    /// no-op when the workspace has no finite, non-empty extent to grid.
    pub fn with_raster(self, rel_a: &Relation, rel_b: &Relation) -> Self {
        let bits = auto_grid_bits(rel_a, rel_b);
        let Some(grid) = RasterGrid::covering(rel_a, rel_b, bits) else {
            return self;
        };
        let (store_a, store_b) = per_side(rel_a, rel_b, |rel| RasterStore::build(&grid, rel));
        self.with_shared_raster(store_a, store_b)
    }

    /// Attaches pre-built Step-2a raster stores — the engine's
    /// store-backed cold-start path, where both stores were decoded from
    /// a persisted pair segment instead of rasterized from the
    /// relations. The caller is responsible for the stores sharing one
    /// grid.
    pub fn with_shared_raster(mut self, a: Arc<RasterStore>, b: Arc<RasterStore>) -> Self {
        self.raster_a = Some(a);
        self.raster_b = Some(b);
        self
    }

    /// The filter a [`crate::JoinConfig`] asks for: the configured
    /// conservative and progressive stores built for both relations (a
    /// self-join's once), the false-area test when enabled, and the
    /// raster stage in front when on. This is §5's versions 2 and 3 for
    /// the one-shot join and the paper tables; the resident engine runs
    /// the raster stage alone.
    pub fn from_config(config: &crate::JoinConfig, rel_a: &Relation, rel_b: &Relation) -> Self {
        let (conservative_a, conservative_b) = (config.conservative)
            .map(|kind| per_side(rel_a, rel_b, |rel| ConservativeStore::build(kind, rel)))
            .unzip();
        let (progressive_a, progressive_b) = (config.progressive)
            .map(|kind| per_side(rel_a, rel_b, |rel| ProgressiveStore::build(kind, rel)))
            .unzip();
        let filter = GeometricFilter {
            conservative_a,
            conservative_b,
            progressive_a,
            progressive_b,
            use_false_area: config.false_area_test,
            ..GeometricFilter::disabled()
        };
        match config.raster {
            true => filter.with_raster(rel_a, rel_b),
            false => filter,
        }
    }

    /// A filter that does nothing (version 1: every candidate goes to the
    /// exact step).
    pub fn disabled() -> Self {
        GeometricFilter {
            raster_a: None,
            raster_b: None,
            conservative_a: None,
            conservative_b: None,
            progressive_a: None,
            progressive_b: None,
            use_false_area: false,
        }
    }

    /// Whether the Step-2a raster stage runs (signatures built for both
    /// relations).
    pub fn raster_active(&self) -> bool {
        self.raster_a.is_some() && self.raster_b.is_some()
    }

    /// The raster stores, when the stage is active (Step-0 reporting).
    pub fn raster_stores(&self) -> Option<(&RasterStore, &RasterStore)> {
        self.raster_a.as_deref().zip(self.raster_b.as_deref())
    }

    /// Classifies one candidate pair.
    ///
    /// Test order follows the paper, extended by Step 2a: the raster
    /// signature test first (a few list searches, decides both directions),
    /// then the conservative test when one is configured (§3.2), then the
    /// progressive hit test (§3.3), then optionally
    /// the false-area test (§3.3 notes it adds almost nothing once
    /// progressive approximations are stored).
    ///
    /// This is the reference chain;
    /// [`classify_batch`](GeometricFilter::classify_batch) produces
    /// identical outcomes.
    pub fn classify(&self, id_a: ObjectId, id_b: ObjectId) -> FilterOutcome {
        if let (Some(ra), Some(rb)) = (&self.raster_a, &self.raster_b) {
            match raster_decide(ra.signature(id_a), rb.signature(id_b)) {
                RasterDecision::Hit => return FilterOutcome::HitRaster,
                RasterDecision::Drop => return FilterOutcome::DropRaster,
                RasterDecision::Inconclusive => {}
            }
        }
        self.classify_chain(id_a, id_b)
    }

    /// The approximation chain of Step 2b (conservative → progressive →
    /// false-area), without the raster prepass.
    fn classify_chain(&self, id_a: ObjectId, id_b: ObjectId) -> FilterOutcome {
        if let (Some(ca), Some(cb)) = (&self.conservative_a, &self.conservative_b) {
            if !ca.view(id_a).intersects(&cb.view(id_b)) {
                return FilterOutcome::FalseHit;
            }
        }
        if let (Some(pa), Some(pb)) = (&self.progressive_a, &self.progressive_b) {
            if pa.get(id_a).intersects(&pb.get(id_b)) {
                return FilterOutcome::HitProgressive;
            }
        }
        if self.use_false_area {
            if let (Some(ca), Some(cb)) = (&self.conservative_a, &self.conservative_b) {
                if ca.false_area_test_with(id_a, cb, id_b) {
                    return FilterOutcome::HitFalseArea;
                }
            }
        }
        FilterOutcome::Candidate
    }

    /// Classifies a batch of candidate pairs into `out` (cleared first;
    /// `out[i]` is the outcome of `pairs[i]`). Returns the nanoseconds
    /// the Step-2a raster stage spent on the batch (0 when inactive) —
    /// the engine accumulates it into
    /// [`crate::MultiStepStats::step2a_nanos`].
    ///
    /// When the raster stage is active it runs first as its own loop
    /// over the whole batch — [`raster_decide`] on two run-list views per
    /// pair, the approximation columns untouched — and only the undecided
    /// remainder reaches the approximation chain, when one is configured —
    /// outcome-identical to calling
    /// [`classify`](GeometricFilter::classify) per pair.
    pub fn classify_batch(
        &self,
        pairs: &[(ObjectId, ObjectId)],
        out: &mut Vec<FilterOutcome>,
    ) -> u64 {
        let spans = StepSpans::new();
        self.classify_batch_observed(pairs, out, Some(&spans));
        spans.get(Step::Step2a)
    }

    /// [`classify_batch`](GeometricFilter::classify_batch) with explicit
    /// span accounting: the Step-2a raster time lands in `spans` when
    /// given, and `None` skips the clock reads entirely (the
    /// [`msj_obs::ObsConfig::disabled`] path). Outcomes are identical
    /// either way, and a call into a warm `out` allocates nothing.
    pub fn classify_batch_observed(
        &self,
        pairs: &[(ObjectId, ObjectId)],
        out: &mut Vec<FilterOutcome>,
        spans: Option<&StepSpans>,
    ) {
        out.clear();
        out.reserve(pairs.len());
        match (&self.raster_a, &self.raster_b) {
            (Some(ra), Some(rb)) => {
                // Step 2a: the raster loop decides in place; undecided
                // slots stay `Candidate` (a raster-decided slot is never
                // `Candidate`, so the fill below is unambiguous).
                let t_raster = spans.map(|_| Span::start());
                out.extend(pairs.iter().map(|&(id_a, id_b)| {
                    match raster_decide(ra.signature(id_a), rb.signature(id_b)) {
                        RasterDecision::Hit => FilterOutcome::HitRaster,
                        RasterDecision::Drop => FilterOutcome::DropRaster,
                        RasterDecision::Inconclusive => FilterOutcome::Candidate,
                    }
                }));
                if let (Some(spans), Some(t)) = (spans, t_raster) {
                    spans.finish(Step::Step2a, t);
                }
            }
            _ => {
                out.extend(std::iter::repeat_n(FilterOutcome::Candidate, pairs.len()));
            }
        };
        // Step 2b: the chain on every slot still `Candidate`, when a store
        // or the false-area test is configured.
        let chain = self.conservative_a.is_some()
            || self.conservative_b.is_some()
            || self.progressive_a.is_some()
            || self.progressive_b.is_some()
            || self.use_false_area;
        if chain {
            for (slot, &(id_a, id_b)) in out.iter_mut().zip(pairs) {
                if *slot == FilterOutcome::Candidate {
                    *slot = self.classify_chain(id_a, id_b);
                }
            }
        }
    }
}

/// One store per side, built once when both sides are one relation.
fn per_side<T>(
    rel_a: &Relation,
    rel_b: &Relation,
    build: impl Fn(&Relation) -> T,
) -> (Arc<T>, Arc<T>) {
    let a = Arc::new(build(rel_a));
    let b = match std::ptr::eq(rel_a, rel_b) {
        true => a.clone(),
        false => Arc::new(build(rel_b)),
    };
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msj_approx::{ConservativeKind, ProgressiveKind};
    use msj_geom::{Point, Polygon, SpatialObject};

    /// The filter of a plan with these approximations and no raster stage.
    fn chain(
        rel_a: &Relation,
        rel_b: &Relation,
        conservative: Option<ConservativeKind>,
        progressive: Option<ProgressiveKind>,
        false_area: bool,
    ) -> GeometricFilter {
        let config = crate::JoinConfig::builder()
            .conservative(conservative)
            .progressive(progressive)
            .false_area_test(false_area)
            .raster(false)
            .build();
        GeometricFilter::from_config(&config, rel_a, rel_b)
    }

    fn rel(regions: Vec<Vec<(f64, f64)>>) -> Relation {
        Relation::new(
            regions
                .into_iter()
                .enumerate()
                .map(|(i, coords)| {
                    SpatialObject::new(
                        i as u32,
                        Polygon::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect())
                            .unwrap()
                            .into(),
                    )
                })
                .collect(),
        )
    }

    /// An L-shaped bracket and a small far-corner square: their MBRs
    /// overlap but their convex hulls do not — a classic false hit.
    fn bracket_relations() -> (Relation, Relation) {
        let a = rel(vec![vec![
            (0.0, 0.0),
            (10.0, 0.0),
            (10.0, 1.0),
            (1.0, 1.0),
            (1.0, 10.0),
            (0.0, 10.0),
        ]]);
        // The bracket's hull stays below the line x + y = 11; this square
        // sits entirely above it.
        let b = rel(vec![vec![
            (9.0, 9.0),
            (10.0, 9.0),
            (10.0, 10.0),
            (9.0, 10.0),
        ]]);
        (a, b)
    }

    #[test]
    fn disabled_filter_passes_everything_through() {
        let (a, b) = bracket_relations();
        let f = GeometricFilter::disabled();
        assert_eq!(f.classify(0, 0), FilterOutcome::Candidate);
        let mut out = Vec::new();
        f.classify_batch(&[(0, 0)], &mut out);
        assert_eq!(out, vec![FilterOutcome::Candidate]);
        let _ = (a, b);
    }

    #[test]
    fn conservative_filter_identifies_bracket_false_hit() {
        let (a, b) = bracket_relations();
        // The brackets hug opposite corners: their hulls are disjoint.
        let f = chain(&a, &b, Some(ConservativeKind::ConvexHull), None, false);
        // MBRs do overlap (precondition of a candidate):
        assert!(a.object(0).mbr().intersects(&b.object(0).mbr()));
        assert_eq!(f.classify(0, 0), FilterOutcome::FalseHit);
    }

    #[test]
    fn progressive_filter_identifies_deep_overlap() {
        // Two fat squares overlapping deeply: their MERs intersect.
        let a = rel(vec![vec![
            (0.0, 0.0),
            (10.0, 0.0),
            (10.0, 10.0),
            (0.0, 10.0),
        ]]);
        let b = rel(vec![vec![
            (2.0, 2.0),
            (12.0, 2.0),
            (12.0, 12.0),
            (2.0, 12.0),
        ]]);
        let f = chain(
            &a,
            &b,
            Some(ConservativeKind::FiveCorner),
            Some(ProgressiveKind::Mer),
            false,
        );
        assert_eq!(f.classify(0, 0), FilterOutcome::HitProgressive);
    }

    #[test]
    fn false_area_test_fires_when_progressive_disabled() {
        let a = rel(vec![vec![
            (0.0, 0.0),
            (10.0, 0.0),
            (10.0, 10.0),
            (0.0, 10.0),
        ]]);
        let b = rel(vec![vec![
            (1.0, 1.0),
            (11.0, 1.0),
            (11.0, 11.0),
            (1.0, 11.0),
        ]]);
        // Squares equal their hulls: false area 0, intersection large.
        let f = chain(&a, &b, Some(ConservativeKind::ConvexHull), None, true);
        assert_eq!(f.classify(0, 0), FilterOutcome::HitFalseArea);
    }

    #[test]
    fn inconclusive_pairs_remain_candidates() {
        // Thin diagonal strips crossing in the middle: conservative tests
        // cannot separate them, progressive approximations are thin and
        // miss each other.
        let a = rel(vec![vec![(0.0, 0.0), (0.4, 0.0), (10.0, 9.6), (9.6, 10.0)]]);
        let b = rel(vec![vec![(10.0, 0.4), (9.6, 0.0), (0.0, 9.6), (0.4, 10.0)]]);
        let f = chain(
            &a,
            &b,
            Some(ConservativeKind::FiveCorner),
            Some(ProgressiveKind::Mer),
            false,
        );
        assert_eq!(f.classify(0, 0), FilterOutcome::Candidate);
    }

    #[test]
    fn progressive_runs_before_false_area() {
        // Deep overlap: both tests would fire; progressive wins by order.
        let a = rel(vec![vec![
            (0.0, 0.0),
            (10.0, 0.0),
            (10.0, 10.0),
            (0.0, 10.0),
        ]]);
        let f = chain(
            &a,
            &a.clone(),
            Some(ConservativeKind::ConvexHull),
            Some(ProgressiveKind::Mer),
            true,
        );
        assert_eq!(f.classify(0, 0), FilterOutcome::HitProgressive);
    }

    /// Every chain must classify batches exactly as the per-pair reference
    /// — across kinds, none at all included, with and without the raster
    /// stage in front, and for the default and the paper's version 3 as
    /// the engine configures them.
    #[test]
    fn batch_classification_agrees_with_per_pair() {
        let a = msj_datagen::small_carto(40, 24.0, 7101);
        let b = msj_datagen::small_carto(40, 24.0, 7102);
        // All candidate-shaped pairs: every (i, j) with intersecting MBRs.
        let mut pairs = Vec::new();
        for oa in a.iter() {
            for ob in b.iter() {
                if oa.mbr().intersects(&ob.mbr()) {
                    pairs.push((oa.id, ob.id));
                }
            }
        }
        assert!(pairs.len() > 50, "need a meaningful batch");
        let configs: [(Option<ConservativeKind>, Option<ProgressiveKind>, bool); 7] = [
            (
                Some(ConservativeKind::FiveCorner),
                Some(ProgressiveKind::Mer),
                false,
            ), // 5-C + MER (version 3's chain)
            (Some(ConservativeKind::ConvexHull), None, false),
            (
                Some(ConservativeKind::Mbr),
                Some(ProgressiveKind::Mer),
                false,
            ),
            (
                Some(ConservativeKind::Mbc),
                Some(ProgressiveKind::Mec),
                false,
            ),
            (
                Some(ConservativeKind::FiveCorner),
                Some(ProgressiveKind::Mer),
                true,
            ), // with the false-area test
            (None, Some(ProgressiveKind::Mer), false), // MER alone
            (None, None, false),                       // no chain
        ];
        let mut filters = Vec::new();
        for (cons, prog, fa) in configs {
            filters.push(chain(&a, &b, cons, prog, fa));
            filters.push(chain(&a, &b, cons, prog, fa).with_raster(&a, &b));
        }
        for config in [crate::JoinConfig::default(), crate::JoinConfig::version3()] {
            let f = GeometricFilter::from_config(&config, &a, &b);
            assert!(f.raster_active());
            filters.push(f);
        }
        for (i, f) in filters.iter().enumerate() {
            let mut batched = Vec::new();
            f.classify_batch(&pairs, &mut batched);
            let per_pair: Vec<FilterOutcome> =
                pairs.iter().map(|&(x, y)| f.classify(x, y)).collect();
            assert_eq!(batched, per_pair, "filter {i} diverged");
            // Batch boundaries must not matter.
            let mut chunked = Vec::new();
            let mut scratch = Vec::new();
            for chunk in pairs.chunks(17) {
                f.classify_batch(chunk, &mut scratch);
                chunked.extend_from_slice(&scratch);
            }
            assert_eq!(chunked, per_pair, "filter {i} chunked");
        }
    }

    /// The Step-2a stage must (a) agree with the per-pair reference
    /// chain, (b) only make decisions the exact geometry confirms, and
    /// (c) change nothing for pairs it cannot decide.
    #[test]
    fn raster_stage_is_sound_and_batch_agrees() {
        let a = msj_datagen::small_carto(48, 24.0, 7201);
        let b = msj_datagen::small_carto(48, 24.0, 7202);
        let mut pairs = Vec::new();
        for oa in a.iter() {
            for ob in b.iter() {
                if oa.mbr().intersects(&ob.mbr()) {
                    pairs.push((oa.id, ob.id));
                }
            }
        }
        assert!(pairs.len() > 50, "need a meaningful batch");
        let plain = chain(
            &a,
            &b,
            Some(ConservativeKind::FiveCorner),
            Some(ProgressiveKind::Mer),
            false,
        );
        let rastered = chain(
            &a,
            &b,
            Some(ConservativeKind::FiveCorner),
            Some(ProgressiveKind::Mer),
            false,
        )
        .with_raster(&a, &b);
        assert!(rastered.raster_active() && !plain.raster_active());

        let mut with = Vec::new();
        let mut without = Vec::new();
        rastered.classify_batch(&pairs, &mut with);
        assert_eq!(plain.classify_batch(&pairs, &mut without), 0);
        let per_pair: Vec<FilterOutcome> = pairs
            .iter()
            .map(|&(x, y)| rastered.classify(x, y))
            .collect();
        assert_eq!(with, per_pair, "batch diverged from reference chain");

        let mut decided = 0u64;
        let mut counts = msj_exact::OpCounts::new();
        for ((&(x, y), &w), &wo) in pairs.iter().zip(&with).zip(&without) {
            match w {
                FilterOutcome::HitRaster => {
                    decided += 1;
                    assert!(
                        msj_exact::quadratic_intersects(
                            &a.object(x).region,
                            &b.object(y).region,
                            &mut counts
                        ),
                        "raster Hit on disjoint pair ({x},{y})"
                    );
                }
                FilterOutcome::DropRaster => {
                    decided += 1;
                    assert!(
                        !msj_exact::quadratic_intersects(
                            &a.object(x).region,
                            &b.object(y).region,
                            &mut counts
                        ),
                        "raster Drop on intersecting pair ({x},{y})"
                    );
                }
                other => assert_eq!(other, wo, "undecided pair ({x},{y}) changed outcome"),
            }
        }
        assert!(decided > 0, "stage decided nothing on a carto workload");

        // Batch boundaries must not matter with the stage active either.
        let mut chunked = Vec::new();
        let mut scratch = Vec::new();
        for chunk in pairs.chunks(17) {
            rastered.classify_batch(chunk, &mut scratch);
            chunked.extend_from_slice(&scratch);
        }
        assert_eq!(chunked, per_pair);
    }

    #[test]
    fn raster_from_config_follows_the_switch() {
        let a = msj_datagen::small_carto(12, 20.0, 7203);
        let config = crate::JoinConfig::default();
        assert!(GeometricFilter::from_config(&config, &a, &a.clone()).raster_active());
        let off = crate::JoinConfig {
            raster: false,
            ..config
        };
        assert!(!GeometricFilter::from_config(&off, &a, &a.clone()).raster_active());
        // Version 1 keeps its contract: no filtering whatsoever.
        let v1 = GeometricFilter::from_config(&crate::JoinConfig::version1(), &a, &a.clone());
        assert!(!v1.raster_active());
        assert_eq!(v1.classify(0, 0), FilterOutcome::Candidate);
        // Raster composes with no approximation chain.
        let raster_only = crate::JoinConfig {
            conservative: None,
            progressive: None,
            ..crate::JoinConfig::default()
        };
        let f = GeometricFilter::from_config(&raster_only, &a, &a.clone());
        assert!(f.raster_active());
        let (ra, rb) = f.raster_stores().expect("stores built");
        assert_eq!(ra.grid(), rb.grid(), "one shared grid");
        assert_eq!(ra.len(), a.len());
    }
}

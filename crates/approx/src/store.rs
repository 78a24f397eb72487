//! Per-relation approximation storage — **columnar** (struct-of-arrays).
//!
//! The paper stores approximations *in addition to the MBR* inside the
//! data pages of the spatial access method (§3.4, approach 2). This module
//! precomputes approximations for whole relations and provides the
//! byte-size model used for page-capacity calculations.
//!
//! ## Layout
//!
//! A store holds one approximation *kind* for every object of one
//! relation, and the geometric filter classifies millions of candidate
//! pairs against it. The former array-of-structs layout
//! (`Vec<FalseAreaEntry>` → `Conservative` enum → per-object `Vec<Point>`
//! heap ring) paid an enum dispatch plus a pointer chase per candidate.
//! The columnar layout separates:
//!
//! * the **payload columns** — one homogeneous, contiguous column per
//!   kind (a flat vertex arena with an offset table for the convex
//!   kinds; plain `Vec<Rect>` / `Vec<Circle>` / `Vec<Ellipse>` for the
//!   closed-form kinds), read through the borrow-only
//!   [`ConsView`];
//! * the **false-area column** — a bare `Vec<f64>` touched only by the
//!   (optional) false-area test, so the common "conservative test says
//!   disjoint, die early" path never loads it.
//!
//! Progressive stores use the same idea with a NaN sentinel for
//! degenerate (`Progressive::Empty`) approximations: every closed
//! intersection comparison against NaN is `false`, so an empty
//! approximation never identifies a hit — without a per-pair branch.

use crate::circle::Circle;
use crate::ellipse::Ellipse;
use crate::false_area::view_intersection_area;
use crate::kinds::{ConsView, Conservative, ConservativeKind, Progressive, ProgressiveKind};
use crate::mer::{MerScratch, MerSearchStats};
use msj_geom::{ObjectId, Point, Rect, Relation};

/// Byte size of a stored conservative approximation, following §3.4/§5:
/// MBR 16 B, RMBR 20 B, 5-C 40 B; the others scale by parameter count at
/// 4 bytes per parameter.
pub fn conservative_bytes(kind: ConservativeKind, approx: Option<&Conservative>) -> usize {
    match kind {
        ConservativeKind::Mbr => 16,
        ConservativeKind::Mbc => 12,
        ConservativeKind::Mbe => 20,
        ConservativeKind::Rmbr => 20,
        ConservativeKind::FourCorner => 32,
        ConservativeKind::FiveCorner => 40,
        // Hull storage varies per object.
        ConservativeKind::ConvexHull => approx.map_or(0, |a| 4 * a.param_count()),
    }
}

/// Byte size of a stored progressive approximation (MEC 12 B, MER 16 B,
/// matching the paper's 16 B for the MER).
pub fn progressive_bytes(kind: ProgressiveKind) -> usize {
    match kind {
        ProgressiveKind::Mec => 12,
        ProgressiveKind::Mer => 16,
    }
}

/// The homogeneous payload columns of a [`ConservativeStore`].
#[derive(Debug, Clone)]
enum ConsColumns {
    /// `Mbr`: the keys themselves.
    Rects(Vec<Rect>),
    /// `Mbc`, when no entry degenerated.
    Circles(Vec<Circle>),
    /// `Mbe`, when no entry degenerated.
    Ellipses(Vec<Ellipse>),
    /// The convex kinds (RMBR / 4-C / 5-C / hull): ring `i` is
    /// `points[offsets[i] as usize..offsets[i + 1] as usize]` in one flat
    /// arena. MBR fallbacks are boxed into their 4-corner rings, so the
    /// column stays homogeneous.
    Convex {
        offsets: Vec<u32>,
        points: Vec<Point>,
    },
    /// Rare escape hatch: a curved kind (MBC/MBE) whose computation
    /// degenerated to an MBR fallback for at least one object.
    Mixed(Vec<Conservative>),
}

/// Precomputed approximations of one kind for every object of a relation,
/// in columnar layout (see the module docs).
#[derive(Debug, Clone)]
pub struct ConservativeStore {
    pub kind: ConservativeKind,
    cols: ConsColumns,
    /// `area(approx) − area(object)` per object — only the false-area
    /// test reads this column.
    false_area: Vec<f64>,
}

impl ConservativeStore {
    /// Computes the approximation of `kind` (plus its false area, enabling
    /// the false-area test) for every object.
    pub fn build(kind: ConservativeKind, relation: &Relation) -> Self {
        let approxes: Vec<Conservative> = relation
            .iter()
            .map(|o| Conservative::compute(kind, o))
            .collect();
        let false_area: Vec<f64> = approxes
            .iter()
            .zip(relation.iter())
            .map(|(a, o)| (a.area() - o.area()).max(0.0))
            .collect();
        let cols = match kind {
            ConservativeKind::Mbr => ConsColumns::Rects(
                approxes
                    .iter()
                    .map(|a| match a {
                        Conservative::Mbr(r) => *r,
                        _ => unreachable!("Mbr kind computes Mbr"),
                    })
                    .collect(),
            ),
            ConservativeKind::Rmbr
            | ConservativeKind::FourCorner
            | ConservativeKind::FiveCorner
            | ConservativeKind::ConvexHull => {
                let mut offsets = Vec::with_capacity(approxes.len() + 1);
                let mut points = Vec::new();
                offsets.push(0u32);
                for a in &approxes {
                    match a {
                        Conservative::Convex(_, ring) => points.extend_from_slice(ring),
                        // Degenerate geometry fell back to the MBR: box it
                        // into its corner ring to keep the column
                        // homogeneous (same closed semantics — the ring
                        // *is* the rectangle).
                        Conservative::Mbr(r) => points.extend_from_slice(&r.corners()),
                        _ => unreachable!("convex kinds compute rings or MBR fallbacks"),
                    }
                    offsets.push(points.len() as u32);
                }
                ConsColumns::Convex { offsets, points }
            }
            ConservativeKind::Mbc => {
                if approxes.iter().all(|a| matches!(a, Conservative::Mbc(_))) {
                    ConsColumns::Circles(
                        approxes
                            .iter()
                            .map(|a| match a {
                                Conservative::Mbc(c) => *c,
                                _ => unreachable!(),
                            })
                            .collect(),
                    )
                } else {
                    ConsColumns::Mixed(approxes)
                }
            }
            ConservativeKind::Mbe => {
                if approxes.iter().all(|a| matches!(a, Conservative::Mbe(_))) {
                    ConsColumns::Ellipses(
                        approxes
                            .iter()
                            .map(|a| match a {
                                Conservative::Mbe(e) => *e,
                                _ => unreachable!(),
                            })
                            .collect(),
                    )
                } else {
                    ConsColumns::Mixed(approxes)
                }
            }
        };
        ConservativeStore {
            kind,
            cols,
            false_area,
        }
    }

    /// The stored approximation of object `id`, as a borrow-only view.
    #[inline]
    pub fn view(&self, id: ObjectId) -> ConsView<'_> {
        let i = id as usize;
        match &self.cols {
            ConsColumns::Rects(rects) => ConsView::Rect(&rects[i]),
            ConsColumns::Circles(circles) => ConsView::Circle(&circles[i]),
            ConsColumns::Ellipses(ellipses) => ConsView::Ellipse(&ellipses[i]),
            ConsColumns::Convex { offsets, points } => {
                ConsView::Convex(&points[offsets[i] as usize..offsets[i + 1] as usize])
            }
            ConsColumns::Mixed(approxes) => approxes[i].as_view(),
        }
    }

    /// The false-area column entry of object `id`.
    #[inline]
    pub fn false_area(&self, id: ObjectId) -> f64 {
        self.false_area[id as usize]
    }

    /// The false-area test (§3.3) between `id` here and `other_id` in
    /// `other`: `true` means the objects certainly intersect.
    pub fn false_area_test_with(&self, id: ObjectId, other: &Self, other_id: ObjectId) -> bool {
        let inter = view_intersection_area(&self.view(id), &other.view(other_id));
        inter > self.false_area(id) + other.false_area(other_id)
    }

    pub fn len(&self) -> usize {
        self.false_area.len()
    }

    pub fn is_empty(&self) -> bool {
        self.false_area.is_empty()
    }
}

/// The homogeneous payload column of a [`ProgressiveStore`].
///
/// `Progressive::Empty` entries are stored as all-NaN slots: every closed
/// intersection comparison against NaN is `false`, so an empty
/// approximation never claims a hit — no per-pair emptiness branch.
#[derive(Debug, Clone)]
enum ProgColumns {
    Mers(Vec<Rect>),
    Mecs(Vec<Circle>),
}

fn nan_rect() -> Rect {
    Rect::from_bounds(f64::NAN, f64::NAN, f64::NAN, f64::NAN)
}

fn nan_circle() -> Circle {
    Circle::new(Point::new(f64::NAN, f64::NAN), f64::NAN)
}

/// Precomputed progressive approximations for every object of a relation,
/// in columnar layout.
#[derive(Debug, Clone)]
pub struct ProgressiveStore {
    pub kind: ProgressiveKind,
    cols: ProgColumns,
}

impl ProgressiveStore {
    pub fn build(kind: ProgressiveKind, relation: &Relation) -> Self {
        let cols = match kind {
            ProgressiveKind::Mer => {
                let mut search = MerScratch::default();
                let stats = &mut MerSearchStats::default();
                ProgColumns::Mers(
                    relation
                        .iter()
                        .map(|o| {
                            search
                                .max_enclosed_rect(&o.region, stats)
                                .unwrap_or_else(nan_rect)
                        })
                        .collect(),
                )
            }
            ProgressiveKind::Mec => ProgColumns::Mecs(
                relation
                    .iter()
                    .map(|o| match Progressive::compute(kind, o) {
                        Progressive::Mec(c) => c,
                        Progressive::Empty => nan_circle(),
                        Progressive::Mer(_) => unreachable!("Mec kind computes Mec"),
                    })
                    .collect(),
            ),
        };
        ProgressiveStore { kind, cols }
    }

    /// The stored approximation of object `id` (`Progressive` is `Copy`;
    /// NaN slots decode back to [`Progressive::Empty`]).
    #[inline]
    pub fn get(&self, id: ObjectId) -> Progressive {
        match &self.cols {
            ProgColumns::Mers(rects) => {
                let r = rects[id as usize];
                if r.xmin().is_nan() {
                    Progressive::Empty
                } else {
                    Progressive::Mer(r)
                }
            }
            ProgColumns::Mecs(circles) => {
                let c = circles[id as usize];
                if c.radius.is_nan() {
                    Progressive::Empty
                } else {
                    Progressive::Mec(c)
                }
            }
        }
    }

    /// The raw MER column (NaN slots = empty), when this store holds MERs.
    #[inline]
    pub fn mer_column(&self) -> Option<&[Rect]> {
        match &self.cols {
            ProgColumns::Mers(rects) => Some(rects),
            ProgColumns::Mecs(_) => None,
        }
    }

    pub fn len(&self) -> usize {
        match &self.cols {
            ProgColumns::Mers(rects) => rects.len(),
            ProgColumns::Mecs(circles) => circles.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msj_geom::{Point, Polygon, Relation, SpatialObject};

    fn small_relation() -> Relation {
        let mk = |coords: &[(f64, f64)]| {
            Polygon::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect())
                .unwrap()
                .into()
        };
        Relation::new(vec![
            SpatialObject::new(0, mk(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)])),
            SpatialObject::new(1, mk(&[(1.0, 1.0), (4.0, 1.5), (3.0, 4.0)])),
            SpatialObject::new(
                2,
                mk(&[
                    (5.0, 5.0),
                    (8.0, 5.0),
                    (8.0, 6.0),
                    (6.0, 6.0),
                    (6.0, 8.0),
                    (5.0, 8.0),
                ]),
            ),
        ])
    }

    #[test]
    fn conservative_store_builds_all_entries() {
        let rel = small_relation();
        for kind in ConservativeKind::ALL {
            let store = ConservativeStore::build(kind, &rel);
            assert_eq!(store.len(), 3);
            for id in 0..3u32 {
                assert!(store.false_area(id) >= 0.0);
                assert!(store.view(id).area() >= rel.object(id).area() * (1.0 - 1e-9));
            }
        }
    }

    #[test]
    fn columnar_views_agree_with_per_object_computation() {
        let rel = small_relation();
        for kind in ConservativeKind::ALL {
            let store = ConservativeStore::build(kind, &rel);
            for id in 0..3u32 {
                let direct = Conservative::compute(kind, rel.object(id));
                let view = store.view(id);
                assert!(
                    (view.area() - direct.area()).abs() <= 1e-12 * direct.area().max(1.0),
                    "{} object {id}: area diverged",
                    kind.name()
                );
                for other in 0..3u32 {
                    let direct_other = Conservative::compute(kind, rel.object(other));
                    assert_eq!(
                        view.intersects(&store.view(other)),
                        direct.intersects(&direct_other),
                        "{} {id} vs {other}",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn convex_kinds_pack_one_flat_arena() {
        let rel = small_relation();
        for kind in [
            ConservativeKind::Rmbr,
            ConservativeKind::FourCorner,
            ConservativeKind::FiveCorner,
            ConservativeKind::ConvexHull,
        ] {
            let store = ConservativeStore::build(kind, &rel);
            assert!(matches!(store.cols, ConsColumns::Convex { .. }));
            for id in 0..3u32 {
                match store.view(id) {
                    ConsView::Convex(ring) => assert!(ring.len() >= 3, "{} ring {id}", kind.name()),
                    other => panic!("{}: non-convex view {other:?}", kind.name()),
                }
            }
        }
        // Closed-form kinds pack no convex column.
        let mbr = ConservativeStore::build(ConservativeKind::Mbr, &rel);
        assert!(!matches!(mbr.cols, ConsColumns::Convex { .. }));
    }

    #[test]
    fn progressive_store_builds_all_entries() {
        let rel = small_relation();
        for kind in ProgressiveKind::ALL {
            let store = ProgressiveStore::build(kind, &rel);
            assert_eq!(store.len(), 3);
            for id in 0..3u32 {
                assert!(store.get(id).area() > 0.0, "{} degenerate", kind.name());
            }
        }
    }

    #[test]
    fn nan_sentinel_never_intersects() {
        let empty_rect = nan_rect();
        let real = Rect::from_bounds(-1e12, -1e12, 1e12, 1e12);
        assert!(!empty_rect.intersects(&real));
        assert!(!real.intersects(&empty_rect));
        assert!(!empty_rect.intersects(&empty_rect));
        let empty_circle = nan_circle();
        let unit = Circle::new(Point::new(0.0, 0.0), 1.0);
        assert!(!empty_circle.intersects_circle(&unit));
        assert!(!unit.intersects_circle(&empty_circle));
        assert!(!empty_circle.intersects_circle(&empty_circle));
    }

    #[test]
    fn byte_model_matches_paper_constants() {
        assert_eq!(conservative_bytes(ConservativeKind::Mbr, None), 16);
        assert_eq!(conservative_bytes(ConservativeKind::Rmbr, None), 20);
        assert_eq!(conservative_bytes(ConservativeKind::FiveCorner, None), 40);
        assert_eq!(conservative_bytes(ConservativeKind::FourCorner, None), 32);
        assert_eq!(progressive_bytes(ProgressiveKind::Mer), 16);
        assert_eq!(progressive_bytes(ProgressiveKind::Mec), 12);
    }

    /// The §3.4 bytes of each object's `kind` approximation.
    fn stored_bytes(kind: ConservativeKind, rel: &Relation) -> Vec<usize> {
        rel.iter()
            .map(|o| conservative_bytes(kind, Some(&Conservative::compute(kind, o))))
            .collect()
    }

    #[test]
    fn hull_bytes_vary_per_object() {
        let rel = small_relation();
        let kind = ConservativeKind::ConvexHull;
        // Square, triangle and the L's five-vertex hull: two 4-byte
        // parameters per vertex.
        let bytes = stored_bytes(kind, &rel);
        assert_eq!(bytes, [32, 24, 40]);
        let store = ConservativeStore::build(kind, &rel);
        for (id, want) in (0..).zip(bytes) {
            match store.view(id) {
                ConsView::Convex(ring) => assert_eq!(8 * ring.len(), want, "hull {id}"),
                other => panic!("hull view {other:?}"),
            }
        }
    }

    #[test]
    fn fixed_kind_bytes_are_constant_per_object() {
        let rel = small_relation();
        let bytes = stored_bytes(ConservativeKind::FiveCorner, &rel);
        assert_eq!(bytes.iter().sum::<usize>(), 3 * 40);
    }
}

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
use msj_geom::bytes::{Col, Dec, DecResult, Enc};
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
    /// Total stored bytes across all objects under the §3.4 byte model,
    /// computed at build time from the per-object approximations (before
    /// MBR fallbacks are boxed into rings, so fallbacks keep their 16-B
    /// MBR price).
    total_bytes: usize,
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
        let total_bytes = match kind {
            // Hull storage varies per object (16 B for MBR fallbacks).
            ConservativeKind::ConvexHull => approxes
                .iter()
                .map(|a| conservative_bytes(kind, Some(a)))
                .sum(),
            kind => approxes.len() * conservative_bytes(kind, None),
        };
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
            total_bytes,
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

/// A fixed-width scalar column cut into `STRIDE`-scalar records; `Err`
/// when the column is not a whole number of records.
fn records<'a, const STRIDE: usize>(
    scalars: Col<'a, f64>,
) -> DecResult<impl ExactSizeIterator<Item = [f64; STRIDE]> + 'a> {
    if !scalars.len().is_multiple_of(STRIDE) {
        return Err("approximation column shape mismatch");
    }
    Ok((0..scalars.len() / STRIDE)
        .map(move |i| std::array::from_fn(|k| scalars.get(STRIDE * i + k))))
}

fn ordered_rect(bounds: [f64; 4]) -> DecResult<Rect> {
    Rect::from_ordered_bounds(bounds).ok_or("rectangle bounds not ordered")
}

impl ConservativeStore {
    /// The store as its persistent image: the kind code (`u32`), the §3.4
    /// byte-model total (`u64`, kept so images stay byte-identical to the
    /// ones already on disk), then three counted columns —
    /// convex ring offsets (`len + 1` entries, in points; empty for the
    /// fixed-width kinds), the payload flattened to scalars (MBR 4 per
    /// object, MBC 3, MBE 5, the convex kinds 2 per arena point) and the
    /// per-object false area. Returns `None` for the rare `Mixed` escape
    /// hatch (a curved kind that degenerated to MBR fallbacks on some
    /// objects) — those stores are rebuilt from the relation on load
    /// instead of persisted.
    pub fn to_bytes(&self) -> Option<Vec<u8>> {
        let (offsets, scalars): (&[u32], usize) = match &self.cols {
            ConsColumns::Rects(rects) => (&[], 4 * rects.len()),
            ConsColumns::Circles(circles) => (&[], 3 * circles.len()),
            ConsColumns::Ellipses(ellipses) => (&[], 5 * ellipses.len()),
            ConsColumns::Convex { offsets, points } => (offsets, 2 * points.len()),
            ConsColumns::Mixed(_) => return None,
        };
        let mut e =
            Enc::with_capacity(36 + 4 * offsets.len() + 8 * (scalars + self.false_area.len()));
        e.u32(self.kind.code() as u32);
        e.u64(self.total_bytes as u64);
        e.u32s(offsets);
        e.count(scalars);
        match &self.cols {
            ConsColumns::Rects(rects) => rects.iter().for_each(|r| e.f64x(r.bounds())),
            ConsColumns::Circles(circles) => circles
                .iter()
                .for_each(|c| e.f64x([c.center.x, c.center.y, c.radius])),
            ConsColumns::Ellipses(ellipses) => ellipses
                .iter()
                .for_each(|el| e.f64x([el.center.x, el.center.y, el.a, el.b, el.angle])),
            ConsColumns::Convex { points, .. } => points.iter().for_each(|p| e.f64x([p.x, p.y])),
            ConsColumns::Mixed(_) => unreachable!("returned above"),
        }
        e.f64s(&self.false_area);
        Some(e.into_bytes())
    }

    /// Adopts a [`ConservativeStore::to_bytes`] image — a linear pass over
    /// the scalar columns, no hull/ellipse/circle recomputation. The
    /// result is column-identical to the store that was written.
    pub fn from_bytes(bytes: &[u8]) -> DecResult<Self> {
        let mut d = Dec::new(bytes);
        let kind = u8::try_from(d.u32()?)
            .ok()
            .and_then(ConservativeKind::from_code)
            .ok_or("unknown conservative kind code")?;
        let total_bytes = usize::try_from(d.u64()?).map_err(|_| "byte total overflow")?;
        let offsets = d.u32s()?;
        let scalars = d.f64s()?;
        let false_area = d.f64s()?;
        d.finish()?;
        let n = false_area.len();
        let fixed_width = |records: usize| {
            if records == n && offsets.is_empty() {
                Ok(())
            } else {
                Err("conservative column shape mismatch")
            }
        };
        let cols = match kind {
            ConservativeKind::Mbr => {
                let records = records::<4>(scalars)?;
                fixed_width(records.len())?;
                ConsColumns::Rects(records.map(ordered_rect).collect::<DecResult<_>>()?)
            }
            ConservativeKind::Mbc => {
                let records = records::<3>(scalars)?;
                fixed_width(records.len())?;
                ConsColumns::Circles(
                    records
                        .map(|[x, y, r]| Circle::new(Point::new(x, y), r))
                        .collect(),
                )
            }
            ConservativeKind::Mbe => {
                let records = records::<5>(scalars)?;
                fixed_width(records.len())?;
                ConsColumns::Ellipses(
                    records
                        .map(|[x, y, a, b, angle]| Ellipse {
                            center: Point::new(x, y),
                            a,
                            b,
                            angle,
                        })
                        .collect(),
                )
            }
            ConservativeKind::Rmbr
            | ConservativeKind::FourCorner
            | ConservativeKind::FiveCorner
            | ConservativeKind::ConvexHull => {
                let offsets = offsets.to_vec();
                if offsets.len() != n + 1 || offsets[0] != 0 {
                    return Err("convex offset table malformed");
                }
                if offsets.windows(2).any(|w| w[0] > w[1]) {
                    return Err("convex offsets not monotonic");
                }
                let points = records::<2>(scalars)?;
                if points.len() != offsets[n] as usize {
                    return Err("convex point arena length mismatch");
                }
                ConsColumns::Convex {
                    offsets,
                    points: points.map(|[x, y]| Point::new(x, y)).collect(),
                }
            }
        };
        Ok(ConservativeStore {
            kind,
            cols,
            false_area: false_area.to_vec(),
            total_bytes,
        })
    }
}

impl ProgressiveStore {
    /// The store as its persistent image: the kind code (`u32`) and one
    /// counted scalar column, 4 per object for MER, 3 for MEC. NaN
    /// sentinel slots (empty approximations) are written like any other
    /// bit pattern.
    pub fn to_bytes(&self) -> Vec<u8> {
        let scalars = match &self.cols {
            ProgColumns::Mers(rects) => 4 * rects.len(),
            ProgColumns::Mecs(circles) => 3 * circles.len(),
        };
        let mut e = Enc::with_capacity(12 + 8 * scalars);
        e.u32(self.kind.code() as u32);
        e.count(scalars);
        match &self.cols {
            ProgColumns::Mers(rects) => rects.iter().for_each(|r| e.f64x(r.bounds())),
            ProgColumns::Mecs(circles) => circles
                .iter()
                .for_each(|c| e.f64x([c.center.x, c.center.y, c.radius])),
        }
        e.into_bytes()
    }

    /// Adopts a [`ProgressiveStore::to_bytes`] image, column-identical to
    /// the store that was written. A MER slot is either an ordered
    /// rectangle or exactly the empty sentinel.
    pub fn from_bytes(bytes: &[u8]) -> DecResult<Self> {
        let mut d = Dec::new(bytes);
        let kind = u8::try_from(d.u32()?)
            .ok()
            .and_then(ProgressiveKind::from_code)
            .ok_or("unknown progressive kind code")?;
        let scalars = d.f64s()?;
        d.finish()?;
        let cols = match kind {
            ProgressiveKind::Mer => {
                let empty = nan_rect();
                let empty_bits = empty.bounds().map(f64::to_bits);
                ProgColumns::Mers(
                    records::<4>(scalars)?
                        .map(|slot| {
                            if slot.map(f64::to_bits) == empty_bits {
                                Ok(empty)
                            } else {
                                ordered_rect(slot)
                            }
                        })
                        .collect::<DecResult<_>>()?,
                )
            }
            ProgressiveKind::Mec => ProgColumns::Mecs(
                records::<3>(scalars)?
                    .map(|[x, y, r]| Circle::new(Point::new(x, y), r))
                    .collect(),
            ),
        };
        Ok(ProgressiveStore { kind, cols })
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
    fn conservative_image_round_trips_for_every_kind() {
        let rel = small_relation();
        for kind in ConservativeKind::ALL {
            let store = ConservativeStore::build(kind, &rel);
            let bytes = store.to_bytes().expect("no MBR fallbacks here");
            let back = ConservativeStore::from_bytes(&bytes).expect("own image decodes");
            assert_eq!(
                back.to_bytes().as_deref(),
                Some(&bytes[..]),
                "{}",
                kind.name()
            );
            assert_eq!(back.kind, kind);
            assert_eq!(back.total_bytes, store.total_bytes);
            assert_eq!(back.false_area, store.false_area);
            for id in 0..3u32 {
                assert_eq!(back.view(id).area(), store.view(id).area());
            }
        }
        let mixed = ConservativeStore {
            kind: ConservativeKind::Mbc,
            cols: ConsColumns::Mixed(vec![Conservative::Mbr(Rect::from_bounds(
                0.0, 0.0, 1.0, 1.0,
            ))]),
            false_area: vec![0.0],
            total_bytes: 16,
        };
        assert!(mixed.to_bytes().is_none(), "the escape hatch has no image");
    }

    #[test]
    fn conservative_image_of_the_wrong_shape_is_refused() {
        let rel = small_relation();
        let hull = ConservativeStore::build(ConservativeKind::ConvexHull, &rel)
            .to_bytes()
            .unwrap();
        // Same columns under a fixed-width kind's code: the offset table
        // must be empty there.
        let mut as_mbr = hull.clone();
        as_mbr[0] = ConservativeKind::Mbr.code();
        assert!(ConservativeStore::from_bytes(&as_mbr).is_err());
        let mut unknown = hull;
        unknown[0] = 200;
        assert_eq!(
            ConservativeStore::from_bytes(&unknown).err(),
            Some("unknown conservative kind code")
        );
    }

    #[test]
    fn progressive_image_round_trips_with_empty_slots() {
        let rel = small_relation();
        for kind in ProgressiveKind::ALL {
            let mut store = ProgressiveStore::build(kind, &rel);
            match &mut store.cols {
                ProgColumns::Mers(rects) => rects[1] = nan_rect(),
                ProgColumns::Mecs(circles) => circles[1] = nan_circle(),
            }
            let bytes = store.to_bytes();
            let back = ProgressiveStore::from_bytes(&bytes).expect("own image decodes");
            assert_eq!(back.to_bytes(), bytes, "{}", kind.name());
            assert_eq!(back.get(0), store.get(0));
            assert_eq!(back.get(1), Progressive::Empty);
            assert_eq!(back.len(), 3);
        }
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

    #[test]
    fn hull_bytes_vary_per_object() {
        let rel = small_relation();
        let store = ConservativeStore::build(ConservativeKind::ConvexHull, &rel);
        // Triangle hull: 3 vertices → 6 params → 24 bytes.
        match store.view(1) {
            ConsView::Convex(ring) => assert_eq!(8 * ring.len(), 24),
            other => panic!("hull view {other:?}"),
        }
        assert!(store.total_bytes > 0);
    }

    #[test]
    fn fixed_kind_bytes_are_constant_per_object() {
        let rel = small_relation();
        let store = ConservativeStore::build(ConservativeKind::FiveCorner, &rel);
        assert_eq!(store.total_bytes, 3 * 40);
    }
}

//! Trapezoid decomposition (§4.2).
//!
//! Objects are decomposed once, at insertion time, into simple components;
//! the paper chooses trapezoids because "single trapezoids as well as sets
//! of trapezoids can accurately be approximated by MBRs". We use the
//! horizontal-band decomposition: the region is cut at every distinct
//! vertex y-coordinate, with no tolerance, producing trapezoids with
//! horizontal top/bottom sides (triangles appear as degenerate
//! trapezoids) that tile the closed region however thin a part of it
//! is — the premise of the TR*-tree's exact answers. Holes are handled by
//! the even–odd pairing of band crossings, which one bottom-up sweep
//! carries from band to band. The paper cites the minimum
//! partition of [AA 83]; the TR*-tree only needs *a* partition into
//! trapezoids, so we take the simpler band decomposition and merge
//! vertically adjacent pieces bounded by the same edge pair (see
//! [`decompose`]), which brings the count close to the minimum.

use msj_geom::{convex_intersect, edge_separates, Point, PolygonWithHoles, Rect};

/// A trapezoid with horizontal bottom (`y_lo`) and top (`y_hi`) sides.
///
/// `#[repr(C)]`: six `f64`s in field order, 48 bytes — the TR* arena's
/// trapezoid record, which a stored arena is viewed as in place.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct Trapezoid {
    pub y_lo: f64,
    pub y_hi: f64,
    /// x-interval on the bottom side.
    pub x_lo: XSpan,
    /// x-interval on the top side.
    pub x_hi: XSpan,
}

/// The x-interval `[.0, .1]` of one horizontal side of a [`Trapezoid`]:
/// a `#[repr(C)]` pair rather than a tuple, whose layout Rust leaves
/// unspecified.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct XSpan(pub f64, pub f64);

/// The relative margin of [`Trapezoid::decide_fast`]'s "intersecting"
/// claim: `128 · u` with `u = f64::EPSILON / 2` (derivation there).
const MARGIN: f64 = 64.0 * f64::EPSILON;

impl Trapezoid {
    /// The MBR of the trapezoid.
    pub fn mbr(&self) -> Rect {
        Rect::from_bounds(
            self.x_lo.0.min(self.x_hi.0),
            self.y_lo,
            self.x_lo.1.max(self.x_hi.1),
            self.y_hi,
        )
    }

    /// Area of the trapezoid.
    pub fn area(&self) -> f64 {
        0.5 * ((self.x_lo.1 - self.x_lo.0) + (self.x_hi.1 - self.x_hi.0)) * (self.y_hi - self.y_lo)
    }

    /// The corner ring (CCW): bottom-left, bottom-right, top-right,
    /// top-left. Degenerate sides (triangles) repeat a corner, which the
    /// SAT intersection test tolerates.
    pub fn ring(&self) -> [Point; 4] {
        [
            Point::new(self.x_lo.0, self.y_lo),
            Point::new(self.x_lo.1, self.y_lo),
            Point::new(self.x_hi.1, self.y_hi),
            Point::new(self.x_hi.0, self.y_hi),
        ]
    }

    /// Closed trapezoid-trapezoid intersection — the *trapezoid
    /// intersection test* of Table 6 (weight 38). The caller counts it.
    ///
    /// Always the answer of `convex_intersect` on the two corner rings:
    /// [`Trapezoid::decide_fast`] answers the pairs it can prove, the
    /// full SAT answers the rest.
    #[inline]
    pub fn intersects(&self, other: &Trapezoid) -> bool {
        self.decide_fast(other)
            .unwrap_or_else(|| convex_intersect(&self.ring(), &other.ring()))
    }

    /// The horizontal-base specialisation of the SAT test: clips both
    /// trapezoids to their common y-band and compares the interpolated
    /// left/right side positions at the two band ends. `Some(answer)` is
    /// returned only where `convex_intersect` provably gives the same
    /// answer; `None` means the pair sits inside the margin and the
    /// caller must run the full SAT.
    ///
    /// **Disjoint** is never claimed from the band comparison itself.
    /// When one trapezoid lies to the side of the other at both band
    /// ends, the two facing side edges are handed to
    /// [`edge_separates`] — the SAT's own per-axis inequality, tolerance
    /// included — and only its `true` (which makes `convex_intersect`
    /// `false` by definition) is returned.
    ///
    /// **Intersecting** is claimed from a horizontal segment `S` of
    /// computed length `w` that the two cross-sections share at a band
    /// end. With `u = f64::EPSILON / 2`, `X`/`Y` the largest |x| / |y|
    /// of the eight corners:
    ///
    /// * Axes of the horizontal edges are `(∓0, ±len)`; every projection
    ///   is the single rounding `fl(len · y)`, monotone in `y`, so
    ///   overlapping y-ranges can never look separated.
    /// * The axis of a side edge `(dx, h)` is `(−h, dx)`. Each
    ///   projection `fl(−h·x + dx·y)` is within
    ///   `E = 2.05u · (h·X + |dx|·Y)` of its exact value, and the exact
    ///   projections of both rings contain those of `S`, an interval of
    ///   length `h · |S|`. So `h · |S| ≥ 2E` forces `a_max ≥ b_min` and
    ///   `b_max ≥ a_min` as computed, and `has_separating_axis` then
    ///   subtracts its `1e-12 · scale > 0` tolerance on top — the
    ///   tolerance only ever moves the SAT towards "intersecting", which
    ///   is why no multiple of it appears below.
    /// * Each interpolated side position is within `14u · X` of exact
    ///   (one rounding each for `y − y_lo`, the division, `dx`, the
    ///   product, the sum; `|dx| ≤ 2X`), and the width subtraction adds
    ///   `2u · X`, so `|S| ≥ w − 30u · X`.
    ///
    /// Together: claim when `h · w ≥ u · (34.1·h·X + 4.1·|dx|·Y)` for
    /// all four side edges; `MARGIN` is `128u` on both terms, which
    /// also absorbs the rounding of the comparison itself. A steep
    /// margin (`|dx| / h` large: near-horizontal sides in a thin band)
    /// or a sliver narrower than it falls through to the SAT.
    pub fn decide_fast(&self, other: &Trapezoid) -> Option<bool> {
        let (a, b) = (self, other);
        let (ha, hb) = (a.y_hi - a.y_lo, b.y_hi - b.y_lo);
        let (y0, y1) = (a.y_lo.max(b.y_lo), a.y_hi.min(b.y_hi));
        // Written so that NaNs, flat trapezoids and disjoint y-ranges
        // (which the MBR pretest has already removed) all take `None`.
        if !(ha > 0.0 && hb > 0.0 && y0 <= y1) {
            return None;
        }
        let (la0, ra0) = a.cross_section(y0, ha);
        let (la1, ra1) = a.cross_section(y1, ha);
        let (lb0, rb0) = b.cross_section(y0, hb);
        let (lb1, rb1) = b.cross_section(y1, hb);
        if ra0 < lb0 && ra1 < lb1 {
            // `a` left of `b` across the band: a's right side (ring
            // edge 1) or b's left side (ring edge 3) should separate.
            let (ring_a, ring_b) = (a.ring(), b.ring());
            return (edge_separates(&ring_a, 1, &ring_b) || edge_separates(&ring_b, 3, &ring_a))
                .then_some(false);
        }
        if rb0 < la0 && rb1 < la1 {
            let (ring_a, ring_b) = (a.ring(), b.ring());
            return (edge_separates(&ring_a, 3, &ring_b) || edge_separates(&ring_b, 1, &ring_a))
                .then_some(false);
        }
        let w0 = ra0.min(rb0) - la0.max(lb0);
        let w1 = ra1.min(rb1) - la1.max(lb1);
        let w = w0.max(w1);
        let x = a.max_abs_x().max(b.max_abs_x());
        let y = a
            .y_lo
            .abs()
            .max(a.y_hi.abs())
            .max(b.y_lo.abs().max(b.y_hi.abs()));
        let slant_a = (a.x_hi.0 - a.x_lo.0).abs().max((a.x_hi.1 - a.x_lo.1).abs());
        let slant_b = (b.x_hi.0 - b.x_lo.0).abs().max((b.x_hi.1 - b.x_lo.1).abs());
        (ha * w >= MARGIN * (ha * x + slant_a * y) && hb * w >= MARGIN * (hb * x + slant_b * y))
            .then_some(true)
    }

    /// The x-interval of the trapezoid at height `y` (`y_lo ≤ y ≤ y_hi`,
    /// `h = y_hi − y_lo > 0`).
    #[inline]
    fn cross_section(&self, y: f64, h: f64) -> (f64, f64) {
        let t = (y - self.y_lo) / h;
        (
            self.x_lo.0 + t * (self.x_hi.0 - self.x_lo.0),
            self.x_lo.1 + t * (self.x_hi.1 - self.x_lo.1),
        )
    }

    #[inline]
    fn max_abs_x(&self) -> f64 {
        (self.x_lo.0.abs().max(self.x_lo.1.abs())).max(self.x_hi.0.abs().max(self.x_hi.1.abs()))
    }

    /// Three-way point test of a selection's Step 3: `Some(inside)` when
    /// `p` sits beyond `margin` of this trapezoid's boundary, `None` when
    /// it is too close to tell (see [`SelectMargin`] for what a decided
    /// answer proves).
    ///
    /// `false` is claimed outside the grown MBR ([`SelectMargin::reach`])
    /// or beyond a side of the trapezoid extended by `pad` at both ends;
    /// `true` only inside the sides within the *core band*, `pad` short of
    /// each end.
    pub fn classify_point(&self, p: Point, margin: &SelectMargin) -> Option<bool> {
        if !self.mbr().intersects(&margin.reach(&Rect::new(p, p))) {
            return Some(false);
        }
        let side = margin.side(self)?;
        let (xl, xr) = self.cross_section(p.y, self.y_hi - self.y_lo);
        if p.x < xl - side || xr + side < p.x {
            return Some(false);
        }
        let pad = margin.pad;
        let core = self.y_lo + pad <= p.y && p.y <= self.y_hi - pad;
        (core && xl + side <= p.x && p.x <= xr - side).then_some(true)
    }

    /// Three-way closed window test of a selection's Step 3, with the
    /// margins of [`Trapezoid::classify_point`]: `Some(true)` when a
    /// horizontal line of `window` crosses the core band inside the sides,
    /// `Some(false)` when `window` misses the grown MBR or lies clear of
    /// one side of the extended trapezoid at both ends of the y-range the
    /// two share (the sides are straight, so that clears all of it).
    pub fn classify_rect(&self, window: &Rect, margin: &SelectMargin) -> Option<bool> {
        if !self.mbr().intersects(&margin.reach(window)) {
            return Some(false);
        }
        let (side, pad) = (margin.side(self)?, margin.pad);
        let h = self.y_hi - self.y_lo;
        let (ya, yb) = (
            (self.y_lo + pad).max(window.ymin()),
            (self.y_hi - pad).min(window.ymax()),
        );
        if ya <= yb {
            for y in [ya, yb] {
                let (xl, xr) = self.cross_section(y, h);
                if (xl + side).max(window.xmin()) <= (xr - side).min(window.xmax()) {
                    return Some(true);
                }
            }
        }
        // The grown MBR meets the window, so the extended y-ranges do.
        let (ya, yb) = (
            (self.y_lo - pad).max(window.ymin()),
            (self.y_hi + pad).min(window.ymax()),
        );
        let ((l0, r0), (l1, r1)) = (self.cross_section(ya, h), self.cross_section(yb, h));
        let left = r0 + side < window.xmin() && r1 + side < window.xmin();
        let right = window.xmax() < l0 - side && window.xmax() < l1 - side;
        (left || right).then_some(false)
    }
}

/// The relative margin of a selection's three-way tests: `512 · u`,
/// `u = f64::EPSILON / 2`, a quarter of which already covers the error
/// budget below.
const SELECT_MARGIN: f64 = 256.0 * f64::EPSILON;

/// The margins of one object's three-way selection tests
/// ([`Trapezoid::classify_point`], [`Trapezoid::classify_rect`] and the
/// TR* descents over them), from its root rectangle. They hold because
/// [`decompose`]'s trapezoids tile the object's closed region.
///
/// A decided answer is the exact one, and so the closed region test's
/// (`region_contains_point`, `region_intersects_rect`), which is exact
/// as far out from the boundary as this margin reaches. With `X` / `Y`
/// the largest |x| / |y| of the object and `u = f64::EPSILON / 2`:
///
/// * A computed cross-section side is within `30u · X` of the edge line
///   it lies on: each corner `decompose` interpolates is within `11u · X`
///   of its edge, and the cross-section interpolation adds `14u · X` and a
///   subtraction, as in [`Trapezoid::decide_fast`].
/// * The region test decides the side of an edge `(dx, h)` by
///   `orient2d`, whose collinear band is `3.4u ·` the two products; in
///   horizontal distance that is `≤ 7u · (X + Y · |dx| / h)`. Its
///   ray cast's crossing `x` is within `5u · X`.
/// * So `side = SELECT_MARGIN · (X + Y + Y · slant / h)` of the core
///   band clears both by more than twice, and `pad = SELECT_MARGIN ·
///   (X + Y)` around an MBR clears the normal-distance band of every
///   edge the MBR holds.
/// * A trapezoid's y's are vertex y's, exact. `true` is claimed only in
///   its *core band*, `pad` short of each end (where a horizontal edge
///   may bound it), and `false` only outside the MBR grown by `pad`, or
///   beyond a side of the trapezoid extended by `pad` at both ends (past
///   an end, the next trapezoid along the edge answers for it).
#[derive(Debug, Clone, Copy)]
pub struct SelectMargin {
    pad: f64,
    slope_pad: f64,
}

impl SelectMargin {
    /// The margins for the trapezoids of an object whose root rectangle
    /// is `root`.
    pub fn of(root: &Rect) -> SelectMargin {
        let x = root.xmin().abs().max(root.xmax().abs());
        let y = root.ymin().abs().max(root.ymax().abs());
        SelectMargin {
            pad: SELECT_MARGIN * (x + y),
            slope_pad: SELECT_MARGIN * y,
        }
    }

    /// `probe` grown by `pad`. A trapezoid or node whose MBR misses it
    /// holds nothing of the region, nor of the band the region test may
    /// misjudge around it, that could meet the probe: its MBR grown alike
    /// misses the probe.
    pub fn reach(&self, probe: &Rect) -> Rect {
        probe.inflated(self.pad)
    }

    /// The side margin of `t`; `None` for a flat trapezoid (or NaN).
    fn side(&self, t: &Trapezoid) -> Option<f64> {
        let slant = (t.x_hi.0 - t.x_lo.0).abs().max((t.x_hi.1 - t.x_lo.1).abs());
        let side = self.pad + self.slope_pad * slant / (t.y_hi - t.y_lo);
        side.is_finite().then_some(side)
    }
}

/// Decomposes a polygonal region into trapezoids by horizontal bands.
///
/// Every distinct vertex y becomes a cut line, however close to the
/// next. Within a band no vertex occurs strictly inside, so every
/// non-horizontal edge either spans the band or misses it; spanning
/// edges sorted by x at mid-band pair up even–odd into the interior
/// trapezoids. Trapezoids of consecutive bands bounded by the *same*
/// pair of edges are merged vertically (a region between two straight
/// edges across several bands is still one trapezoid), which brings the
/// output size close to the minimal partition of [AA 83]: a valid region
/// gets at most one per vertex plus one per hole beyond the first.
///
/// The trapezoids come in band order: by the band each one starts in,
/// then left to right (edges level at mid-band in ring order).
///
/// One sweep over the vertices sorted by y carries the `k` edges spanning
/// a band into the next, `O(v log v)` plus `O(k)` a band while no edges
/// cross; [`TrStarStore::build`](crate::TrStarStore::build) reuses its scratch.
pub fn decompose(region: &PolygonWithHoles) -> Vec<Trapezoid> {
    let mut traps = Vec::new();
    Decomposer::default().decompose_into(region, &mut traps);
    traps
}

/// [`decompose`]'s scratch, reused across the objects of a relation.
#[derive(Default)]
pub(crate) struct Decomposer {
    /// Edge `i` runs from vertex `i` to the next of its ring (outer first).
    edges: Vec<(Point, Point)>,
    /// Per vertex: y, id, id of the edge ending there; by y, then id.
    vertices: Vec<(f64, usize, usize)>,
    /// The edges spanning the band by x at mid-band: x at bottom, top, middle; id.
    spans: Vec<(f64, f64, f64, usize)>,
    /// Per edge: right edge and trapezoid of the last band it bounded on the left.
    open: Vec<(usize, usize)>,
}

impl Decomposer {
    /// [`decompose`] appending to `traps`, which the TR* arena packs in place.
    pub(crate) fn decompose_into(&mut self, region: &PolygonWithHoles, traps: &mut Vec<Trapezoid>) {
        let (edges, vertices, spans) = (&mut self.edges, &mut self.vertices, &mut self.spans);
        edges.clear();
        vertices.clear();
        for ring in std::iter::once(region.outer()).chain(region.holes()) {
            let (ring, first) = (ring.vertices(), edges.len());
            let next = ring.iter().skip(1).chain(&ring[..1]);
            for (i, (&a, &b)) in ring.iter().zip(next).enumerate() {
                let ending = first + i.checked_sub(1).unwrap_or(ring.len() - 1);
                vertices.push((a.y, first + i, ending));
                edges.push((a, b));
            }
        }
        vertices.sort_by(|p, q| p.0.partial_cmp(&q.0).expect("finite"));
        self.open.clear();
        self.open.resize(edges.len(), (usize::MAX, usize::MAX));
        spans.clear();
        let x_at = |(a, b): (Point, Point), y: f64| a.x + (y - a.y) / (b.y - a.y) * (b.x - a.x);
        let top = |id: usize| edges[id].0.y.max(edges[id].1.y);
        // Each band is cut at the first of its equal vertex y's in ring order.
        let mut cuts = vertices.chunk_by(|p, q| p.0 == q.0).peekable();
        while let (Some(at), Some(above)) = (cuts.next(), cuts.peek()) {
            let (y1, y2) = (at[0].0, above[0].0);
            let ymid = 0.5 * (y1 + y2);
            // No vertex y lies strictly inside the band: edges ending at y1
            // leave, the rest carry their top x down, edges rising from y1 join.
            spans.retain_mut(|s| {
                *s = (s.1, x_at(edges[s.3], y2), x_at(edges[s.3], ymid), s.3);
                top(s.3) > y1
            });
            for id in at.iter().flat_map(|v| [v.1, v.2]).filter(|&e| top(e) > y1) {
                let e = edges[id];
                spans.push((x_at(e, y1), x_at(e, y2), x_at(e, ymid), id));
            }
            // Ties in edge-id order, as a stable sort in ring order leaves
            // them; the last band's run plus the joining edges is one merge.
            spans.sort_by(|p, q| p.2.partial_cmp(&q.2).expect("finite").then(p.3.cmp(&q.3)));
            // Even-odd pairing: spans 0-1, 2-3, ... bound interior trapezoids.
            for pair in spans.chunks_exact(2) {
                let (left, right) = (pair[0], pair[1]);
                let (r, t) = self.open[left.3];
                // The band below's trapezoid on the same edge pair extends
                // (straight sides, so the union stays a trapezoid).
                let t = if r == right.3 && traps[t].y_hi == y1 {
                    traps[t].y_hi = y2;
                    traps[t].x_hi = XSpan(left.1, right.1);
                    t
                } else {
                    traps.push(Trapezoid {
                        y_lo: y1,
                        y_hi: y2,
                        x_lo: XSpan(left.0, right.0),
                        x_hi: XSpan(left.1, right.1),
                    });
                    traps.len() - 1
                };
                self.open[left.3] = (right.3, t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msj_geom::Polygon;

    fn region(coords: &[(f64, f64)]) -> PolygonWithHoles {
        Polygon::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect())
            .unwrap()
            .into()
    }

    fn total_area(traps: &[Trapezoid]) -> f64 {
        traps.iter().map(|t| t.area()).sum()
    }

    #[test]
    fn square_decomposes_into_itself() {
        let sq = region(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]);
        let traps = decompose(&sq);
        assert_eq!(traps.len(), 1);
        assert!((total_area(&traps) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn triangle_decomposes_with_correct_area() {
        let tri = region(&[(0.0, 0.0), (4.0, 0.0), (2.0, 3.0)]);
        let traps = decompose(&tri);
        assert!((total_area(&traps) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn concave_polygon_area_is_preserved() {
        let c = region(&[
            (0.0, 0.0),
            (4.0, 0.0),
            (4.0, 1.0),
            (1.0, 1.0),
            (1.0, 3.0),
            (4.0, 3.0),
            (4.0, 4.0),
            (0.0, 4.0),
        ]);
        let traps = decompose(&c);
        assert!((total_area(&traps) - c.area()).abs() < 1e-9);
        // All trapezoid interiors are inside the region (sample centers).
        for t in &traps {
            let center = Point::new(
                0.25 * (t.x_lo.0 + t.x_lo.1 + t.x_hi.0 + t.x_hi.1),
                0.5 * (t.y_lo + t.y_hi),
            );
            assert!(c.contains_point(center), "{center:?} outside");
        }
    }

    #[test]
    fn region_with_hole_decomposes_around_it() {
        let outer = Polygon::new(
            [(0.0, 0.0), (6.0, 0.0), (6.0, 6.0), (0.0, 6.0)]
                .iter()
                .map(|&(x, y)| Point::new(x, y))
                .collect(),
        )
        .unwrap();
        let hole = Polygon::new(
            [(2.0, 2.0), (4.0, 2.0), (4.0, 4.0), (2.0, 4.0)]
                .iter()
                .map(|&(x, y)| Point::new(x, y))
                .collect(),
        )
        .unwrap();
        let donut = PolygonWithHoles::new(outer, vec![hole]);
        let traps = decompose(&donut);
        assert!((total_area(&traps) - donut.area()).abs() < 1e-9);
        // No trapezoid may cover the hole center.
        let margin = SelectMargin::of(&donut.mbr());
        for t in &traps {
            let hole = t.classify_point(Point::new(3.0, 3.0), &margin);
            assert!(hole == Some(false) || t.area() == 0.0);
        }
    }

    #[test]
    fn trapezoid_count_is_linear_in_vertices() {
        // A zig-zag with many vertices.
        let mut coords = Vec::new();
        for i in 0..20 {
            coords.push((i as f64, if i % 2 == 0 { 0.0 } else { 0.5 }));
        }
        coords.push((19.0, 5.0));
        coords.push((0.0, 5.0));
        let z = region(&coords);
        let traps = decompose(&z);
        assert!((total_area(&traps) - z.area()).abs() < 1e-9);
        assert!(traps.len() <= 4 * z.num_vertices());
    }

    #[test]
    fn trapezoid_geometry_helpers() {
        let t = Trapezoid {
            y_lo: 0.0,
            y_hi: 2.0,
            x_lo: XSpan(0.0, 4.0),
            x_hi: XSpan(1.0, 3.0),
        };
        assert_eq!(t.mbr(), Rect::from_bounds(0.0, 0.0, 4.0, 2.0));
        assert!((t.area() - 6.0).abs() < 1e-12);
        let margin = SelectMargin::of(&t.mbr());
        let at = |x, y| t.classify_point(Point::new(x, y), &margin);
        assert_eq!(at(2.0, 1.0), Some(true));
        // On the bottom side: within `pad` of an end, so never decided.
        assert_eq!(at(0.5, 0.0), None);
        // One ulp outside the slanted left side, mid-band: too close.
        assert_eq!(at(0.5 - 0.5 * f64::EPSILON, 1.0), None);
        assert_eq!(at(0.2, 1.9), Some(false));
        assert_eq!(at(2.0, 2.1), Some(false));
        let window = |x0, y0, x1, y1| t.classify_rect(&Rect::from_bounds(x0, y0, x1, y1), &margin);
        assert_eq!(window(1.5, 0.5, 2.5, 1.5), Some(true));
        assert_eq!(window(-1.0, 1.2, 0.0, 1.8), Some(false));
        assert_eq!(window(5.0, 0.5, 6.0, 1.5), Some(false));
        // Sharing a corner with the bottom end: undecided.
        assert_eq!(window(-1.0, -1.0, 0.0, 0.0), None);
    }

    #[test]
    fn a_needle_thinner_than_any_tolerance_gets_its_band() {
        // A needle 1e-12 tall at its base, out to x = 9: every vertex y
        // is a cut, so its two bands are kept and bounded by its edges.
        let needle = region(&[
            (0.0, 0.0),
            (1.0, 0.0),
            (1.0, 0.5),
            (9.0, 0.5 + 0.5e-12),
            (1.0, 0.5 + 1e-12),
            (1.0, 1.0),
            (0.0, 1.0),
        ]);
        let traps = decompose(&needle);
        assert!((total_area(&traps) - needle.area()).abs() < 1e-15);
        let tip = Point::new(8.0, 0.5 + 0.5e-12);
        let covering = traps.iter().find(|t| {
            let h = t.y_hi - t.y_lo;
            let (xl, xr) = t.cross_section(tip.y, h);
            t.y_lo <= tip.y && tip.y <= t.y_hi && xl <= tip.x && tip.x <= xr
        });
        let t = covering.expect("a trapezoid covers the needle");
        assert!(t.y_hi - t.y_lo < 1e-12 && t.mbr().xmax() == 9.0, "{t:?}");
    }

    #[test]
    fn trapezoid_intersection_tests() {
        let a = Trapezoid {
            y_lo: 0.0,
            y_hi: 2.0,
            x_lo: XSpan(0.0, 2.0),
            x_hi: XSpan(0.0, 2.0),
        };
        let b = Trapezoid {
            y_lo: 1.0,
            y_hi: 3.0,
            x_lo: XSpan(1.0, 3.0),
            x_hi: XSpan(1.0, 3.0),
        };
        let c = Trapezoid {
            y_lo: 5.0,
            y_hi: 6.0,
            x_lo: XSpan(0.0, 1.0),
            x_hi: XSpan(0.0, 1.0),
        };
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        // Touching along an edge counts (closed semantics).
        let d = Trapezoid {
            y_lo: 2.0,
            y_hi: 3.0,
            x_lo: XSpan(0.0, 2.0),
            x_hi: XSpan(0.0, 2.0),
        };
        assert!(a.intersects(&d));
        // Degenerate (triangle) trapezoid.
        let tri = Trapezoid {
            y_lo: 0.0,
            y_hi: 1.0,
            x_lo: XSpan(0.0, 2.0),
            x_hi: XSpan(1.0, 1.0),
        };
        assert!(tri.intersects(&a));
    }

    #[test]
    fn blob_decomposition_roundtrip_area() {
        // A star-shaped blob with 40 vertices.
        let coords: Vec<(f64, f64)> = (0..40)
            .map(|i| {
                let t = i as f64 / 40.0 * std::f64::consts::TAU;
                let r = 3.0 + 1.2 * (3.0 * t).sin() + 0.5 * (7.0 * t).cos();
                (r * t.cos(), r * t.sin())
            })
            .collect();
        let blob = region(&coords);
        let traps = decompose(&blob);
        assert!(
            (total_area(&traps) - blob.area()).abs() < 1e-6 * blob.area(),
            "area mismatch: {} vs {}",
            total_area(&traps),
            blob.area()
        );
    }
}

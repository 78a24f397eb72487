//! Convex polygon clipping and convex intersection tests.
//!
//! The geometric filter needs two operations on convex approximations:
//! a boolean intersection *test* (to identify false hits, §3.2) and the
//! *area* of the intersection (for the false-area test, §3.3). Both are
//! provided here for convex polygons; circles and ellipses are handled in
//! the approximation crate by analytic tests and fine polygonization.

use crate::point::Point;
use crate::predicates::orient2d_raw;

/// Clips polygon `subject` against the half-plane to the left of the
/// directed line `a -> b` (Sutherland–Hodgman step).
fn clip_halfplane(subject: &[Point], a: Point, b: Point) -> Vec<Point> {
    let mut out = Vec::with_capacity(subject.len() + 4);
    let n = subject.len();
    if n == 0 {
        return out;
    }
    for i in 0..n {
        let cur = subject[i];
        let prev = subject[(i + n - 1) % n];
        let side_cur = orient2d_raw(a, b, cur);
        let side_prev = orient2d_raw(a, b, prev);
        let cur_in = side_cur >= 0.0;
        let prev_in = side_prev >= 0.0;
        if cur_in {
            if !prev_in {
                if let Some(x) = line_param_intersection(prev, cur, a, b) {
                    out.push(x);
                }
            }
            out.push(cur);
        } else if prev_in {
            if let Some(x) = line_param_intersection(prev, cur, a, b) {
                out.push(x);
            }
        }
    }
    out
}

/// Intersection of segment `p..q` with the line through `a..b`, computed by
/// linear interpolation of the signed distances (numerically stable for the
/// crossing case Sutherland–Hodgman feeds it).
fn line_param_intersection(p: Point, q: Point, a: Point, b: Point) -> Option<Point> {
    let dp = orient2d_raw(a, b, p);
    let dq = orient2d_raw(a, b, q);
    let denom = dp - dq;
    if denom == 0.0 {
        return None;
    }
    let t = dp / denom;
    Some(p.lerp(q, t))
}

/// Clips a polygon against a *convex* clip polygon given in CCW order.
///
/// For a convex subject the result is the exact intersection polygon. (For
/// concave subjects Sutherland–Hodgman may produce degenerate bridging
/// edges; the multi-step join only clips convex approximations.)
pub fn clip_convex(subject: &[Point], clip: &[Point]) -> Vec<Point> {
    let mut out = subject.to_vec();
    let n = clip.len();
    for i in 0..n {
        if out.is_empty() {
            break;
        }
        out = clip_halfplane(&out, clip[i], clip[(i + 1) % n]);
    }
    out
}

/// Area of a vertex ring (absolute shoelace).
pub fn ring_area(ring: &[Point]) -> f64 {
    let n = ring.len();
    if n < 3 {
        return 0.0;
    }
    let mut s = 0.0;
    for i in 0..n {
        s += ring[i].cross(ring[(i + 1) % n]);
    }
    0.5 * s.abs()
}

/// Area of the intersection of two convex polygons (CCW vertex rings).
pub fn convex_intersection_area(a: &[Point], b: &[Point]) -> f64 {
    ring_area(&clip_convex(a, b))
}

/// Widest ring the fixed-width form of [`convex_intersect`] takes: the
/// 5-corner, and with it every MBR 4-ring and trapezoid ring.
const LANES: usize = 5;

/// Closed intersection test between two convex polygons via the separating
/// axis theorem. Touching boundaries count as intersecting.
///
/// Degenerate "polygons" with one or two vertices (points / segments) are
/// handled as their closed convex hulls.
///
/// Rings of at most five vertices — all the filter's 5-corner plans
/// and the TR*-tree ever pass — are padded on the stack to exactly five
/// by repeating the last vertex and run through the same per-axis code
/// at a compile-time length, which unrolls it. A repeated vertex adds
/// only `p == q` edges, which [`edge_separates`] skips, and cannot move
/// a projection's minimum or maximum, so the answer is that of
/// [`convex_intersect_slices`] on the unpadded rings, bit for bit.
pub fn convex_intersect(a: &[Point], b: &[Point]) -> bool {
    let fits = |ring: &[Point]| (1..=LANES).contains(&ring.len());
    if !(fits(a) && fits(b)) {
        return convex_intersect_slices(a, b);
    }
    let pad =
        |ring: &[Point]| -> [Point; LANES] { std::array::from_fn(|i| ring[i.min(ring.len() - 1)]) };
    let (a, b) = (pad(a), pad(b));
    let separates =
        |a: &[Point; LANES], b: &[Point; LANES]| (0..LANES).any(|i| edge_separates(a, i, b));
    !separates(&a, &b) && !separates(&b, &a)
}

/// [`convex_intersect`] for rings of any length (hulls), and the
/// reference its fixed-width form is tested against.
pub fn convex_intersect_slices(a: &[Point], b: &[Point]) -> bool {
    if a.is_empty() || b.is_empty() {
        return false;
    }
    !has_separating_axis(a, b) && !has_separating_axis(b, a)
}

/// Whether any edge normal of `a` separates `a` from `b` strictly.
fn has_separating_axis(a: &[Point], b: &[Point]) -> bool {
    if a.len() == 1 {
        return false; // A point has no edges; the other polygon decides.
    }
    (0..a.len()).any(|i| edge_separates(a, i, b))
}

/// Whether the normal of `a`'s edge `i` (from vertex `i` to vertex
/// `i + 1`, cyclically) strictly separates `a` from `b` — one axis of
/// the [`convex_intersect`] test, in exactly its arithmetic: a `true`
/// here means `convex_intersect(a, b)` is `false`. Callers that can
/// guess the separating edge (the TR*-tree's trapezoid test) try it
/// first and skip the other axes.
#[inline(always)]
pub fn edge_separates(a: &[Point], i: usize, b: &[Point]) -> bool {
    let p = a[i];
    let q = a[(i + 1) % a.len()];
    if p == q {
        return false;
    }
    let axis = (q - p).perp();
    let (a_min, a_max) = project(a, axis);
    let (b_min, b_max) = project(b, axis);
    // Strict separation with a relative tolerance so touching counts
    // as intersecting.
    let scale = (a_max - a_min).abs() + (b_max - b_min).abs() + 1.0;
    a_max < b_min - 1e-12 * scale || b_max < a_min - 1e-12 * scale
}

#[inline(always)]
fn project(ring: &[Point], axis: Point) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &p in ring {
        let v = p.dot(axis);
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(x0: f64, y0: f64, s: f64) -> Vec<Point> {
        vec![
            Point::new(x0, y0),
            Point::new(x0 + s, y0),
            Point::new(x0 + s, y0 + s),
            Point::new(x0, y0 + s),
        ]
    }

    #[test]
    fn clip_overlapping_squares() {
        let a = square(0.0, 0.0, 2.0);
        let b = square(1.0, 1.0, 2.0);
        let inter = clip_convex(&a, &b);
        assert!((ring_area(&inter) - 1.0).abs() < 1e-12);
        assert!((convex_intersection_area(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clip_contained_polygon() {
        let a = square(0.5, 0.5, 1.0);
        let b = square(0.0, 0.0, 4.0);
        assert!((convex_intersection_area(&a, &b) - 1.0).abs() < 1e-12);
        assert!((convex_intersection_area(&b, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clip_disjoint_is_empty() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(5.0, 5.0, 1.0);
        assert_eq!(convex_intersection_area(&a, &b), 0.0);
        assert!(clip_convex(&a, &b).is_empty());
    }

    #[test]
    fn clip_triangle_and_square() {
        let tri = vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 4.0),
        ];
        let sq = square(0.0, 0.0, 2.0);
        // The part of the square under the line x + y = 4 is the whole
        // square (corner (2,2) is exactly on the line).
        assert!((convex_intersection_area(&sq, &tri) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn intersection_area_is_symmetric() {
        let a = vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 1.0),
            Point::new(1.0, 3.0),
        ];
        let b = square(0.5, 0.5, 1.5);
        let ab = convex_intersection_area(&a, &b);
        let ba = convex_intersection_area(&b, &a);
        assert!((ab - ba).abs() < 1e-12);
        assert!(ab > 0.0);
    }

    #[test]
    fn sat_disjoint_and_touching() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(2.0, 0.0, 1.0);
        assert!(!convex_intersect(&a, &b));
        // Shared edge: touching counts.
        let c = square(1.0, 0.0, 1.0);
        assert!(convex_intersect(&a, &c));
        // Shared corner.
        let d = square(1.0, 1.0, 1.0);
        assert!(convex_intersect(&a, &d));
    }

    #[test]
    fn sat_separated_by_diagonal_axis() {
        // A triangle and a square whose AABBs overlap but which are
        // separated by the triangle's hypotenuse normal.
        let tri = vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(0.0, 3.0),
        ];
        let sq = square(1.8, 1.8, 1.0);
        // AABBs overlap:
        assert!(crate::rect::Rect::bounding(tri.iter().copied())
            .unwrap()
            .intersects(&crate::rect::Rect::bounding(sq.iter().copied()).unwrap()));
        // But the convex shapes do not intersect:
        assert!(!convex_intersect(&tri, &sq));
        assert!(!convex_intersect(&sq, &tri));
    }

    #[test]
    fn sat_containment_counts_as_intersection() {
        let outer = square(0.0, 0.0, 10.0);
        let inner = square(4.0, 4.0, 1.0);
        assert!(convex_intersect(&outer, &inner));
        assert!(convex_intersect(&inner, &outer));
    }

    #[test]
    fn sat_segment_degenerate() {
        let seg = vec![Point::new(0.0, 0.0), Point::new(2.0, 2.0)];
        let sq = square(0.5, 0.5, 1.0);
        assert!(convex_intersect(&seg, &sq));
        let far = vec![Point::new(5.0, 5.0), Point::new(6.0, 6.0)];
        assert!(!convex_intersect(&far, &sq));
    }

    #[test]
    fn clip_area_never_exceeds_operands() {
        let a = vec![
            Point::new(0.0, 0.0),
            Point::new(5.0, 1.0),
            Point::new(6.0, 4.0),
            Point::new(2.0, 6.0),
            Point::new(-1.0, 3.0),
        ];
        let b = square(1.0, 1.0, 3.0);
        let ia = convex_intersection_area(&a, &b);
        assert!(ia <= ring_area(&a) + 1e-9);
        assert!(ia <= ring_area(&b) + 1e-9);
    }
}

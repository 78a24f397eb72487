//! Line segments and the *edge intersection test* — the innermost
//! operation of both the quadratic and the plane-sweep exact-geometry
//! algorithms (Table 6, weight 15).

use crate::point::Point;
use crate::predicates::{in_box, orient2d, Orientation};
use crate::rect::Rect;

/// A closed line segment between two endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub a: Point,
    pub b: Point,
}

impl Segment {
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Direction vector `b - a`.
    #[inline]
    pub fn dir(&self) -> Point {
        self.b - self.a
    }

    /// Segment length.
    #[inline]
    pub fn len(&self) -> f64 {
        self.a.dist(self.b)
    }

    /// Whether the segment is degenerate (both endpoints equal).
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.a == self.b
    }

    /// The MBR of the segment.
    #[inline]
    pub fn mbr(&self) -> Rect {
        Rect::new(self.a, self.b)
    }

    /// Whether `p` lies on the closed segment. The box test goes first:
    /// it rejects most edges of a ring for the price of four comparisons.
    pub fn contains_point(&self, p: Point) -> bool {
        in_box(self.a, self.b, p) && orient2d(self.a, self.b, p) == Orientation::Collinear
    }

    /// Closed segment intersection test (shared endpoints and touching
    /// count). This is the paper's *edge intersection test*.
    pub fn intersects(&self, other: &Segment) -> bool {
        let o1 = orient2d(self.a, self.b, other.a);
        let o2 = orient2d(self.a, self.b, other.b);
        let o3 = orient2d(other.a, other.b, self.a);
        let o4 = orient2d(other.a, other.b, self.b);

        // Proper crossing: the endpoints of each segment straddle the other.
        if o1 != o2
            && o3 != o4
            && o1 != Orientation::Collinear
            && o2 != Orientation::Collinear
            && o3 != Orientation::Collinear
            && o4 != Orientation::Collinear
        {
            return true;
        }
        // Collinear / touching cases.
        (o1 == Orientation::Collinear && in_box(self.a, self.b, other.a))
            || (o2 == Orientation::Collinear && in_box(self.a, self.b, other.b))
            || (o3 == Orientation::Collinear && in_box(other.a, other.b, self.a))
            || (o4 == Orientation::Collinear && in_box(other.a, other.b, self.b))
    }

    /// The intersection point of the two supporting *lines*, or `None` when
    /// they are (numerically) parallel. Used when merging hull edges into a
    /// bounding m-corner.
    pub fn line_intersection(&self, other: &Segment) -> Option<Point> {
        let d1 = self.dir();
        let d2 = other.dir();
        let denom = d1.cross(d2);
        // Scale-relative parallelism check.
        if denom.abs() <= 1e-12 * d1.norm() * d2.norm() {
            return None;
        }
        let t = (other.a - self.a).cross(d2) / denom;
        Some(self.a + d1 * t)
    }

    /// The point's y coordinate on the supporting line at abscissa `x`.
    ///
    /// For a vertical segment the lower y is returned. This is the basis of
    /// the plane-sweep *position test* (Table 6, weight 36).
    pub fn y_at(&self, x: f64) -> f64 {
        let dx = self.b.x - self.a.x;
        if dx.abs() < f64::EPSILON * (self.a.x.abs() + self.b.x.abs() + 1.0) {
            return self.a.y.min(self.b.y);
        }
        let t = (x - self.a.x) / dx;
        self.a.y + t * (self.b.y - self.a.y)
    }

    /// Closed segment vs closed rectangle intersection (the plane-sweep
    /// *edge-rectangle intersection test*, Table 6 weight 28).
    pub fn intersects_rect(&self, rect: &Rect) -> bool {
        // Quick accept: an endpoint inside.
        if rect.contains_point(self.a) || rect.contains_point(self.b) {
            return true;
        }
        // Quick reject: bounding boxes disjoint.
        if !self.mbr().intersects(rect) {
            return false;
        }
        // Otherwise the segment intersects iff it crosses one of the four
        // rectangle edges.
        let [c0, c1, c2, c3] = rect.corners();
        self.intersects(&Segment::new(c0, c1))
            || self.intersects(&Segment::new(c1, c2))
            || self.intersects(&Segment::new(c2, c3))
            || self.intersects(&Segment::new(c3, c0))
    }

    /// Minimum distance from a point to the closed segment.
    pub fn dist_to_point(&self, p: Point) -> f64 {
        let d = self.dir();
        let len_sq = d.norm_sq();
        if len_sq == 0.0 {
            return self.a.dist(p);
        }
        let t = ((p - self.a).dot(d) / len_sq).clamp(0.0, 1.0);
        (self.a + d * t).dist(p)
    }

    /// Signed double area contribution of the directed edge (for shoelace
    /// sums): `a.cross(b)`.
    #[inline]
    pub fn shoelace(&self) -> f64 {
        self.a.cross(self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn proper_crossing() {
        let e1 = s(0.0, 0.0, 2.0, 2.0);
        let e2 = s(0.0, 2.0, 2.0, 0.0);
        assert!(e1.intersects(&e2));
        let p = e1.line_intersection(&e2).unwrap();
        assert!((p.x - 1.0).abs() < 1e-12 && (p.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn touching_at_endpoint_intersects() {
        let e1 = s(0.0, 0.0, 1.0, 1.0);
        let e2 = s(1.0, 1.0, 2.0, 0.0);
        assert!(e1.intersects(&e2));
    }

    #[test]
    fn t_junction_intersects() {
        let e1 = s(0.0, 0.0, 2.0, 0.0);
        let e2 = s(1.0, 0.0, 1.0, 3.0);
        assert!(e1.intersects(&e2));
    }

    #[test]
    fn disjoint_segments() {
        let e1 = s(0.0, 0.0, 1.0, 0.0);
        let e2 = s(0.0, 1.0, 1.0, 1.0);
        assert!(!e1.intersects(&e2));
    }

    #[test]
    fn collinear_overlap_intersects() {
        let e1 = s(0.0, 0.0, 2.0, 0.0);
        let e2 = s(1.0, 0.0, 3.0, 0.0);
        assert!(e1.intersects(&e2));
        // But no unique intersection point exists.
        assert!(e1.line_intersection(&e2).is_none());
    }

    #[test]
    fn collinear_disjoint_does_not_intersect() {
        let e1 = s(0.0, 0.0, 1.0, 0.0);
        let e2 = s(2.0, 0.0, 3.0, 0.0);
        assert!(!e1.intersects(&e2));
    }

    #[test]
    fn line_intersection_of_parallels_is_none() {
        let e1 = s(0.0, 0.0, 1.0, 1.0);
        let e2 = s(0.0, 1.0, 1.0, 2.0);
        assert!(e1.line_intersection(&e2).is_none());
    }

    #[test]
    fn line_intersection_beyond_segment_bounds() {
        let e1 = s(0.0, 0.0, 1.0, 0.0);
        let e2 = s(3.0, -1.0, 3.0, 1.0);
        // Segments don't intersect, lines do at (3, 0).
        assert!(!e1.intersects(&e2));
        let p = e1.line_intersection(&e2).unwrap();
        assert!((p.x - 3.0).abs() < 1e-12 && p.y.abs() < 1e-12);
    }

    #[test]
    fn y_at_interpolates() {
        let e = s(0.0, 0.0, 2.0, 4.0);
        assert_eq!(e.y_at(1.0), 2.0);
        assert_eq!(e.y_at(0.0), 0.0);
        let v = s(1.0, 3.0, 1.0, 7.0);
        assert_eq!(v.y_at(1.0), 3.0);
    }

    #[test]
    fn rect_intersection_cases() {
        let r = Rect::from_bounds(0.0, 0.0, 2.0, 2.0);
        assert!(s(1.0, 1.0, 5.0, 5.0).intersects_rect(&r)); // endpoint inside
        assert!(s(-1.0, 1.0, 3.0, 1.0).intersects_rect(&r)); // crosses through
        assert!(s(-1.0, -1.0, 3.0, 3.0).intersects_rect(&r)); // diagonal through
        assert!(!s(3.0, 0.0, 4.0, 1.0).intersects_rect(&r)); // fully outside
                                                             // Outside but with overlapping bounding boxes.
        assert!(!s(2.5, -1.0, 4.0, 3.0).intersects_rect(&r));
        // Touching a corner.
        assert!(s(2.0, 2.0, 3.0, 3.0).intersects_rect(&r));
    }

    #[test]
    fn point_distance() {
        let e = s(0.0, 0.0, 2.0, 0.0);
        assert_eq!(e.dist_to_point(Point::new(1.0, 1.0)), 1.0);
        assert_eq!(e.dist_to_point(Point::new(-1.0, 0.0)), 1.0);
        assert_eq!(
            e.dist_to_point(Point::new(3.0, 4.0)),
            Point::new(2.0, 0.0).dist(Point::new(3.0, 4.0))
        );
    }

    #[test]
    fn contains_point_on_segment() {
        let e = s(0.0, 0.0, 2.0, 2.0);
        assert!(e.contains_point(Point::new(1.0, 1.0)));
        assert!(e.contains_point(e.a));
        assert!(!e.contains_point(Point::new(3.0, 3.0)));
        assert!(!e.contains_point(Point::new(1.0, 1.1)));
    }
}

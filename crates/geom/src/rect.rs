//! Axis-parallel rectangles — the minimum bounding rectangle (MBR) used as
//! the geometric key of the spatial access method and as the cheapest
//! conservative approximation.

use crate::point::Point;

/// An axis-parallel (rectilinear) rectangle, stored as its lower-left and
/// upper-right corners.
///
/// `Rect` is the MBR of the paper: four parameters, closed region semantics
/// (boundary points are contained). An empty rectangle cannot be
/// constructed through the public API; degenerate (zero-extent) rectangles
/// are allowed because points and horizontal/vertical segments have such
/// MBRs.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct Rect {
    lo: Point,
    hi: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners (in any order).
    #[inline]
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// Creates a rectangle from coordinate bounds.
    #[inline]
    pub fn from_bounds(xmin: f64, ymin: f64, xmax: f64, ymax: f64) -> Self {
        Rect::new(Point::new(xmin, ymin), Point::new(xmax, ymax))
    }

    /// A rectangle from bounds that are **already ordered** — the
    /// decoders' constructor. Unlike [`Rect::from_bounds`] nothing is
    /// normalised, so the accessors hand the four values back bit for bit
    /// and an image re-encodes to the bytes it was decoded from. `None`
    /// unless `xmin ≤ xmax` and `ymin ≤ ymax`, which NaN fails too.
    #[inline]
    pub fn from_ordered_bounds([xmin, ymin, xmax, ymax]: [f64; 4]) -> Option<Self> {
        (xmin <= xmax && ymin <= ymax).then_some(Rect {
            lo: Point::new(xmin, ymin),
            hi: Point::new(xmax, ymax),
        })
    }

    /// `[xmin, ymin, xmax, ymax]` — the arguments of
    /// [`Rect::from_bounds`], and the rectangle's four scalars in every
    /// persistent image.
    #[inline]
    pub fn bounds(&self) -> [f64; 4] {
        [self.lo.x, self.lo.y, self.hi.x, self.hi.y]
    }

    /// The MBR of a non-empty point set; `None` for an empty iterator.
    pub fn bounding<I: IntoIterator<Item = Point>>(points: I) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut lo = first;
        let mut hi = first;
        for p in it {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        Some(Rect { lo, hi })
    }

    /// The smallest rectangle covering a non-empty set of rectangles;
    /// `None` for an empty iterator. This is the *workspace* rectangle of
    /// grid-based structures (partitioning, rasterization).
    pub fn bounding_rects<I: IntoIterator<Item = Rect>>(rects: I) -> Option<Self> {
        rects.into_iter().reduce(|a, b| a.union(&b))
    }

    /// Lower-left corner.
    #[inline]
    pub fn lo(&self) -> Point {
        self.lo
    }

    /// Upper-right corner.
    #[inline]
    pub fn hi(&self) -> Point {
        self.hi
    }

    #[inline]
    pub fn xmin(&self) -> f64 {
        self.lo.x
    }

    #[inline]
    pub fn ymin(&self) -> f64 {
        self.lo.y
    }

    #[inline]
    pub fn xmax(&self) -> f64 {
        self.hi.x
    }

    #[inline]
    pub fn ymax(&self) -> f64 {
        self.hi.y
    }

    /// Extent along the x axis.
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi.x - self.lo.x
    }

    /// Extent along the y axis.
    #[inline]
    pub fn height(&self) -> f64 {
        self.hi.y - self.lo.y
    }

    /// Area (`width * height`). This is the paper's "area extension" of the
    /// MBR itself.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Half the perimeter, the *margin* used by the R*-tree split heuristic.
    #[inline]
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        self.lo.midpoint(self.hi)
    }

    /// The four corners in counter-clockwise order starting at the
    /// lower-left.
    pub fn corners(&self) -> [Point; 4] {
        [
            self.lo,
            Point::new(self.hi.x, self.lo.y),
            self.hi,
            Point::new(self.lo.x, self.hi.y),
        ]
    }

    /// Closed-region intersection test (shared boundary counts).
    ///
    /// This is the fundamental *rectangle intersection test* counted by the
    /// exact-geometry cost model (Table 6, weight 28).
    ///
    /// Branchless on purpose: all four comparisons are evaluated and
    /// combined with non-short-circuiting `&`, so the compiled form is
    /// four compares and three ANDs with no data-dependent branches —
    /// the scalar seed the wide kernels in [`crate::kernels`] are
    /// checked against. Each `<=` is `false` on NaN operands, so a
    /// NaN-sentinel rectangle intersects nothing in either form.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        (self.lo.x <= other.hi.x)
            & (other.lo.x <= self.hi.x)
            & (self.lo.y <= other.hi.y)
            & (other.lo.y <= self.hi.y)
    }

    /// Whether `p` lies in the closed rectangle (the *point-in-MBR test*).
    #[inline]
    pub fn contains_point(&self, p: Point) -> bool {
        self.lo.x <= p.x && p.x <= self.hi.x && self.lo.y <= p.y && p.y <= self.hi.y
    }

    /// Whether `other` is fully contained (closed semantics).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.lo.x <= other.lo.x
            && self.lo.y <= other.lo.y
            && other.hi.x <= self.hi.x
            && other.hi.y <= self.hi.y
    }

    /// Whether this window meets every region whose MBR is `mbr`, given
    /// that it meets `mbr`: true when `mbr`'s x-extent lies inside the
    /// window's x-range, or its y-extent inside the window's y-range.
    ///
    /// A region's outer ring is a closed connected curve touching all
    /// four sides of its MBR (the premise of [`crate::validate`]), so it
    /// meets every horizontal and every vertical line through the MBR.
    /// Say the x-extent lies inside the window: take a `y` that the window
    /// and the MBR share; the ring meets the line at `y` within the MBR's
    /// x-extent, so inside the window. Comparisons of stored `f64`s only:
    /// exact, with no margin.
    #[inline]
    pub fn covers_an_extent_of(&self, mbr: &Rect) -> bool {
        ((self.lo.x <= mbr.lo.x) & (mbr.hi.x <= self.hi.x))
            | ((self.lo.y <= mbr.lo.y) & (mbr.hi.y <= self.hi.y))
    }

    /// The intersection rectangle, or `None` when disjoint.
    ///
    /// Used by the plane-sweep algorithm to *restrict the search space* to
    /// the MBR intersection of the two polygons (paper §4.1).
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        })
    }

    /// The smallest rectangle covering both operands.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Area of the intersection with `other` (0 when disjoint).
    pub fn intersection_area(&self, other: &Rect) -> f64 {
        let w = (self.hi.x.min(other.hi.x) - self.lo.x.max(other.lo.x)).max(0.0);
        let h = (self.hi.y.min(other.hi.y) - self.lo.y.max(other.lo.y)).max(0.0);
        w * h
    }

    /// By how much the area grows when `other` is merged in
    /// (R*-tree *area enlargement*).
    #[inline]
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Rectangle grown by `d` on every side.
    pub fn inflated(&self, d: f64) -> Rect {
        Rect::new(
            Point::new(self.lo.x - d, self.lo.y - d),
            Point::new(self.hi.x + d, self.hi.y + d),
        )
    }

    /// Rectangle translated by the vector `v`.
    pub fn translated(&self, v: Point) -> Rect {
        Rect {
            lo: self.lo + v,
            hi: self.hi + v,
        }
    }

    /// Minimum distance from `p` to the closed rectangle (0 when inside).
    pub fn dist_to_point(&self, p: Point) -> f64 {
        let dx = (self.lo.x - p.x).max(0.0).max(p.x - self.hi.x);
        let dy = (self.lo.y - p.y).max(0.0).max(p.y - self.hi.y);
        dx.hypot(dy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::from_bounds(x0, y0, x1, y1)
    }

    #[test]
    fn construction_normalizes_corners() {
        let a = Rect::new(Point::new(3.0, 4.0), Point::new(1.0, 2.0));
        assert_eq!(a, r(1.0, 2.0, 3.0, 4.0));
        assert_eq!(a.width(), 2.0);
        assert_eq!(a.height(), 2.0);
        assert_eq!(a.area(), 4.0);
        assert_eq!(a.margin(), 4.0);
        assert_eq!(a.center(), Point::new(2.0, 3.0));
    }

    #[test]
    fn bounding_of_points() {
        let pts = [
            Point::new(1.0, 5.0),
            Point::new(-2.0, 0.5),
            Point::new(4.0, 2.0),
        ];
        let b = Rect::bounding(pts).unwrap();
        assert_eq!(b, r(-2.0, 0.5, 4.0, 5.0));
        assert!(Rect::bounding(std::iter::empty()).is_none());
    }

    #[test]
    fn intersection_cases() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert!(a.intersects(&r(1.0, 1.0, 3.0, 3.0)));
        // Shared edge counts as intersecting (closed semantics).
        assert!(a.intersects(&r(2.0, 0.0, 3.0, 1.0)));
        // Shared corner counts too.
        assert!(a.intersects(&r(2.0, 2.0, 3.0, 3.0)));
        assert!(!a.intersects(&r(2.1, 0.0, 3.0, 1.0)));
        assert_eq!(
            a.intersection(&r(1.0, -1.0, 3.0, 1.0)),
            Some(r(1.0, 0.0, 2.0, 1.0))
        );
        assert_eq!(a.intersection(&r(5.0, 5.0, 6.0, 6.0)), None);
        assert_eq!(a.intersection_area(&r(1.0, 1.0, 3.0, 3.0)), 1.0);
        assert_eq!(a.intersection_area(&r(5.0, 5.0, 6.0, 6.0)), 0.0);
    }

    #[test]
    fn containment() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        assert!(a.contains_rect(&r(1.0, 1.0, 2.0, 2.0)));
        assert!(a.contains_rect(&a));
        assert!(!a.contains_rect(&r(1.0, 1.0, 5.0, 2.0)));
        assert!(a.contains_point(Point::new(0.0, 0.0)));
        assert!(a.contains_point(Point::new(4.0, 4.0)));
        assert!(!a.contains_point(Point::new(4.0001, 1.0)));
    }

    #[test]
    fn a_window_covers_an_extent_closed_on_either_axis() {
        let mbr = r(2.0, 2.0, 4.0, 6.0);
        // The x-extent inside, sides coinciding, the y-ranges overlapping.
        assert!(r(2.0, 5.0, 4.0, 9.0).covers_an_extent_of(&mbr));
        // The y-extent inside a zero-width window.
        assert!(r(3.0, 2.0, 3.0, 6.0).covers_an_extent_of(&mbr));
        // Neither extent: a window inside the MBR, one that crosses it
        // short by one ulp on each axis.
        assert!(!r(2.5, 2.5, 3.5, 5.5).covers_an_extent_of(&mbr));
        let short = r(2.0f64.next_up(), 1.0, 5.0, 6.0f64.next_down());
        assert!(!short.covers_an_extent_of(&mbr));
    }

    #[test]
    fn union_and_enlargement() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, 2.0, 3.0, 3.0);
        assert_eq!(a.union(&b), r(0.0, 0.0, 3.0, 3.0));
        assert_eq!(a.enlargement(&b), 9.0 - 1.0);
        assert_eq!(a.enlargement(&r(0.2, 0.2, 0.8, 0.8)), 0.0);
    }

    #[test]
    fn point_distance() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert_eq!(a.dist_to_point(Point::new(1.0, 1.0)), 0.0);
        assert_eq!(a.dist_to_point(Point::new(5.0, 1.0)), 3.0);
        assert_eq!(a.dist_to_point(Point::new(5.0, 6.0)), 5.0);
    }

    #[test]
    fn degenerate_rect_is_usable() {
        let p = Point::new(1.0, 1.0);
        let a = Rect::new(p, p);
        assert_eq!(a.area(), 0.0);
        assert!(a.contains_point(p));
        assert!(a.intersects(&r(0.0, 0.0, 2.0, 2.0)));
    }
}

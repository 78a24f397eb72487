//! Simple polygons and polygons with holes — the extended spatial objects
//! the paper's join operates on (§2.1).

use crate::point::Point;
use crate::rect::Rect;
use crate::segment::Segment;

/// Errors raised when constructing a polygon from a vertex sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolygonError {
    /// Fewer than three vertices.
    TooFewVertices,
    /// A vertex has a NaN or infinite coordinate.
    NonFiniteVertex,
    /// The vertex sequence has (numerically) zero area.
    ZeroArea,
}

impl std::fmt::Display for PolygonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolygonError::TooFewVertices => write!(f, "polygon needs at least 3 vertices"),
            PolygonError::NonFiniteVertex => write!(f, "polygon vertex is not finite"),
            PolygonError::ZeroArea => write!(f, "polygon has zero area"),
        }
    }
}

impl std::error::Error for PolygonError {}

/// A simple polygon given by its boundary vertex sequence (no implicit
/// closing vertex: the edge from the last to the first vertex is implied).
///
/// The constructor normalizes orientation to counter-clockwise, so
/// [`Polygon::signed_area`] is always positive for constructed polygons.
/// Simplicity (non-self-intersection) is *not* enforced here because the
/// check is quadratic; use [`crate::validate::is_simple`] where needed.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
    mbr: Rect,
}

impl Polygon {
    /// Builds a polygon, normalizing the vertex order to counter-clockwise.
    pub fn new(mut vertices: Vec<Point>) -> Result<Self, PolygonError> {
        if vertices.len() < 3 {
            return Err(PolygonError::TooFewVertices);
        }
        if vertices.iter().any(|p| !p.is_finite()) {
            return Err(PolygonError::NonFiniteVertex);
        }
        let area2 = shoelace_sum(&vertices);
        if area2 == 0.0 {
            return Err(PolygonError::ZeroArea);
        }
        if area2 < 0.0 {
            vertices.reverse();
        }
        let mbr = Rect::bounding(vertices.iter().copied()).expect("non-empty");
        Ok(Polygon { vertices, mbr })
    }

    /// A polygon over a ring that already passed [`Polygon::new`]'s
    /// checks in counter-clockwise order: the same value, without them.
    pub(crate) fn from_ccw(vertices: Vec<Point>) -> Self {
        let mbr = Rect::bounding(vertices.iter().copied()).expect("non-empty");
        Polygon { vertices, mbr }
    }

    /// The boundary vertices in counter-clockwise order.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices (equals the number of edges).
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Always false: constructed polygons have ≥ 3 vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The precomputed minimum bounding rectangle.
    #[inline]
    pub fn mbr(&self) -> Rect {
        self.mbr
    }

    /// Iterator over the boundary edges, including the closing edge.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Signed area (positive — vertices are stored counter-clockwise).
    pub fn signed_area(&self) -> f64 {
        0.5 * shoelace_sum(&self.vertices)
    }

    /// Absolute enclosed area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Boundary length.
    pub fn perimeter(&self) -> f64 {
        self.edges().map(|e| e.len()).sum()
    }

    /// Area centroid.
    pub fn centroid(&self) -> Point {
        let mut cx = 0.0;
        let mut cy = 0.0;
        let mut a2 = 0.0;
        for e in self.edges() {
            let w = e.shoelace();
            cx += (e.a.x + e.b.x) * w;
            cy += (e.a.y + e.b.y) * w;
            a2 += w;
        }
        if a2 == 0.0 {
            return self.mbr.center();
        }
        Point::new(cx / (3.0 * a2), cy / (3.0 * a2))
    }

    /// Whether `p` lies in the closed polygon region (boundary included).
    ///
    /// Even–odd crossing test with an explicit boundary pre-check, so the
    /// result is deterministic for points on edges and vertices.
    pub fn contains_point(&self, p: Point) -> bool {
        if !self.mbr.contains_point(p) {
            return false;
        }
        if self.edges().any(|e| e.contains_point(p)) {
            return true;
        }
        point_in_ring_interior(&self.vertices, p)
    }

    /// Whether `p` lies strictly inside (boundary excluded).
    pub fn contains_point_strict(&self, p: Point) -> bool {
        if !self.mbr.contains_point(p) {
            return false;
        }
        if self.edges().any(|e| e.contains_point(p)) {
            return false;
        }
        point_in_ring_interior(&self.vertices, p)
    }

    /// Polygon translated by `v`.
    pub fn translated(&self, v: Point) -> Polygon {
        Polygon {
            vertices: self.vertices.iter().map(|&p| p + v).collect(),
            mbr: self.mbr.translated(v),
        }
    }

    /// Polygon rotated by `angle` radians counter-clockwise about `c`.
    pub fn rotated_about(&self, c: Point, angle: f64) -> Polygon {
        let vertices: Vec<Point> = self
            .vertices
            .iter()
            .map(|&p| c + (p - c).rotated(angle))
            .collect();
        let mbr = Rect::bounding(vertices.iter().copied()).expect("non-empty");
        Polygon { vertices, mbr }
    }

    /// Polygon scaled by `factor` about `c`.
    pub fn scaled_about(&self, c: Point, factor: f64) -> Polygon {
        let vertices: Vec<Point> = self
            .vertices
            .iter()
            .map(|&p| c + (p - c) * factor)
            .collect();
        let mbr = Rect::bounding(vertices.iter().copied()).expect("non-empty");
        Polygon { vertices, mbr }
    }
}

/// Twice the signed area of a vertex ring.
fn shoelace_sum(vertices: &[Point]) -> f64 {
    let n = vertices.len();
    let mut s = 0.0;
    for i in 0..n {
        s += vertices[i].cross(vertices[(i + 1) % n]);
    }
    s
}

/// Even–odd crossing test for a point strictly against a ring's interior.
/// Assumes the boundary case has been handled by the caller.
fn point_in_ring_interior(vertices: &[Point], p: Point) -> bool {
    let n = vertices.len();
    let mut inside = false;
    let mut j = n - 1;
    for i in 0..n {
        let vi = vertices[i];
        let vj = vertices[j];
        if (vi.y > p.y) != (vj.y > p.y) {
            let x_cross = vj.x + (p.y - vj.y) / (vi.y - vj.y) * (vi.x - vj.x);
            if p.x < x_cross {
                inside = !inside;
            }
        }
        j = i;
    }
    inside
}

/// A polygon with an arbitrary number of holes cut out of it (§2.1: "the
/// holes might represent areas such as lakes").
///
/// The closed region is the closed outer polygon minus the *open interiors*
/// of the holes — points on a hole's boundary still belong to the region.
#[derive(Debug, Clone, PartialEq)]
pub struct PolygonWithHoles {
    outer: Polygon,
    holes: Vec<Polygon>,
}

impl PolygonWithHoles {
    /// Builds the region. Callers are responsible for holes lying inside
    /// the outer ring and being pairwise disjoint (the data generator
    /// guarantees this; the validator can check it).
    pub fn new(outer: Polygon, holes: Vec<Polygon>) -> Self {
        PolygonWithHoles { outer, holes }
    }

    /// A hole-free region.
    pub fn simple(outer: Polygon) -> Self {
        PolygonWithHoles {
            outer,
            holes: Vec::new(),
        }
    }

    #[inline]
    pub fn outer(&self) -> &Polygon {
        &self.outer
    }

    #[inline]
    pub fn holes(&self) -> &[Polygon] {
        &self.holes
    }

    /// The MBR (determined by the outer ring alone).
    #[inline]
    pub fn mbr(&self) -> Rect {
        self.outer.mbr()
    }

    /// Total number of vertices across all rings — the paper's object
    /// complexity measure `m`.
    pub fn num_vertices(&self) -> usize {
        self.outer.len() + self.holes.iter().map(|h| h.len()).sum::<usize>()
    }

    /// Region area: outer area minus hole areas.
    pub fn area(&self) -> f64 {
        self.outer.area() - self.holes.iter().map(|h| h.area()).sum::<f64>()
    }

    /// All boundary edges (outer ring followed by hole rings).
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        self.outer
            .edges()
            .chain(self.holes.iter().flat_map(|h| h.edges()))
    }

    /// Closed-region membership: inside the outer ring and not strictly
    /// inside any hole.
    pub fn contains_point(&self, p: Point) -> bool {
        self.outer.contains_point(p) && !self.holes.iter().any(|h| h.contains_point_strict(p))
    }

    /// Region translated by `v`.
    pub fn translated(&self, v: Point) -> PolygonWithHoles {
        PolygonWithHoles {
            outer: self.outer.translated(v),
            holes: self.holes.iter().map(|h| h.translated(v)).collect(),
        }
    }

    /// Region rotated by `angle` about `c`.
    pub fn rotated_about(&self, c: Point, angle: f64) -> PolygonWithHoles {
        PolygonWithHoles {
            outer: self.outer.rotated_about(c, angle),
            holes: self
                .holes
                .iter()
                .map(|h| h.rotated_about(c, angle))
                .collect(),
        }
    }

    /// Region scaled by `factor` about `c`.
    pub fn scaled_about(&self, c: Point, factor: f64) -> PolygonWithHoles {
        PolygonWithHoles {
            outer: self.outer.scaled_about(c, factor),
            holes: self
                .holes
                .iter()
                .map(|h| h.scaled_about(c, factor))
                .collect(),
        }
    }
}

impl From<Polygon> for PolygonWithHoles {
    fn from(outer: Polygon) -> Self {
        PolygonWithHoles::simple(outer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Polygon {
        Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
        ])
        .unwrap()
    }

    #[test]
    fn construction_errors() {
        assert_eq!(
            Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]),
            Err(PolygonError::TooFewVertices)
        );
        assert_eq!(
            Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, f64::NAN),
                Point::new(1.0, 1.0)
            ]),
            Err(PolygonError::NonFiniteVertex)
        );
        assert_eq!(
            Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0)
            ]),
            Err(PolygonError::ZeroArea)
        );
    }

    #[test]
    fn orientation_is_normalized() {
        // Clockwise input gets reversed.
        let p = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 2.0),
            Point::new(2.0, 2.0),
            Point::new(2.0, 0.0),
        ])
        .unwrap();
        assert!(p.signed_area() > 0.0);
        assert_eq!(p.area(), 4.0);
    }

    #[test]
    fn area_perimeter_centroid_of_square() {
        let p = square();
        assert_eq!(p.area(), 4.0);
        assert_eq!(p.perimeter(), 8.0);
        let c = p.centroid();
        assert!((c.x - 1.0).abs() < 1e-12 && (c.y - 1.0).abs() < 1e-12);
        assert_eq!(p.mbr(), Rect::from_bounds(0.0, 0.0, 2.0, 2.0));
    }

    #[test]
    fn point_containment_closed_semantics() {
        let p = square();
        assert!(p.contains_point(Point::new(1.0, 1.0)));
        assert!(p.contains_point(Point::new(0.0, 0.0))); // vertex
        assert!(p.contains_point(Point::new(1.0, 0.0))); // edge
        assert!(!p.contains_point(Point::new(3.0, 1.0)));
        assert!(!p.contains_point(Point::new(-0.001, 1.0)));
        assert!(p.contains_point_strict(Point::new(1.0, 1.0)));
        assert!(!p.contains_point_strict(Point::new(1.0, 0.0)));
    }

    #[test]
    fn concave_containment() {
        // A "C" shape: the notch must be outside.
        let p = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 3.0),
            Point::new(4.0, 3.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
        ])
        .unwrap();
        assert!(p.contains_point(Point::new(0.5, 2.0)));
        assert!(!p.contains_point(Point::new(2.5, 2.0))); // in the notch
        assert!(p.contains_point(Point::new(2.5, 0.5)));
    }

    #[test]
    fn edge_count_matches_vertex_count() {
        let p = square();
        assert_eq!(p.edges().count(), 4);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn transforms_preserve_area() {
        let p = square();
        let t = p.translated(Point::new(5.0, -3.0));
        assert!((t.area() - 4.0).abs() < 1e-12);
        assert_eq!(t.mbr(), Rect::from_bounds(5.0, -3.0, 7.0, -1.0));
        let r = p.rotated_about(p.centroid(), 0.7);
        assert!((r.area() - 4.0).abs() < 1e-9);
        let s = p.scaled_about(p.centroid(), 2.0);
        assert!((s.area() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn holes_reduce_area_and_containment() {
        let outer = square();
        let hole = Polygon::new(vec![
            Point::new(0.5, 0.5),
            Point::new(1.5, 0.5),
            Point::new(1.5, 1.5),
            Point::new(0.5, 1.5),
        ])
        .unwrap();
        let region = PolygonWithHoles::new(outer, vec![hole]);
        assert_eq!(region.area(), 3.0);
        assert_eq!(region.num_vertices(), 8);
        assert!(!region.contains_point(Point::new(1.0, 1.0))); // in the hole
        assert!(region.contains_point(Point::new(0.25, 0.25)));
        assert!(region.contains_point(Point::new(0.5, 1.0))); // on hole boundary
        assert!(region.contains_point(Point::new(0.0, 0.0)));
        assert_eq!(region.edges().count(), 8);
    }

    #[test]
    fn simple_region_from_polygon() {
        let region: PolygonWithHoles = square().into();
        assert_eq!(region.area(), 4.0);
        assert!(region.holes().is_empty());
    }
}

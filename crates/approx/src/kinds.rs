//! Unified approximation types and their intersection tests.
//!
//! A *conservative* approximation contains every point of the object: if
//! two conservative approximations are disjoint, the objects are disjoint
//! (false-hit detection). A *progressive* approximation is contained in
//! the object: if two progressive approximations intersect, the objects
//! intersect (hit detection).

use crate::circle::Circle;
use crate::ellipse::Ellipse;
use crate::mbc::min_bounding_circle;
use crate::mbe::min_bounding_ellipse;
use crate::mcorner::min_bounding_corner;
use crate::mec::max_enclosed_circle;
use crate::mer::max_enclosed_rect;
use msj_geom::{
    convex_hull, convex_intersect, min_area_rect, Point, PolygonWithHoles, Rect, SpatialObject,
};

/// The conservative approximation kinds of §3.2, in the paper's order of
/// increasing accuracy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConservativeKind {
    /// Minimum bounding rectangle (4 parameters).
    Mbr,
    /// Minimum bounding circle (3 parameters).
    Mbc,
    /// Minimum bounding ellipse (5 parameters).
    Mbe,
    /// Rotated minimum bounding rectangle (5 parameters).
    Rmbr,
    /// Minimum bounding 4-corner (8 parameters).
    FourCorner,
    /// Minimum bounding 5-corner (10 parameters).
    FiveCorner,
    /// Convex hull (variable parameters).
    ConvexHull,
}

impl ConservativeKind {
    /// All kinds in the order used by the paper's tables.
    pub const ALL: [ConservativeKind; 7] = [
        ConservativeKind::Mbc,
        ConservativeKind::Mbe,
        ConservativeKind::Rmbr,
        ConservativeKind::FourCorner,
        ConservativeKind::FiveCorner,
        ConservativeKind::ConvexHull,
        ConservativeKind::Mbr,
    ];

    /// Short display name matching the paper ("5-C", "MBC", ...).
    pub fn name(self) -> &'static str {
        match self {
            ConservativeKind::Mbr => "MBR",
            ConservativeKind::Mbc => "MBC",
            ConservativeKind::Mbe => "MBE",
            ConservativeKind::Rmbr => "RMBR",
            ConservativeKind::FourCorner => "4-C",
            ConservativeKind::FiveCorner => "5-C",
            ConservativeKind::ConvexHull => "CH",
        }
    }

    /// Stable code the engine's store configuration tag fingerprints;
    /// never renumber existing codes.
    pub fn code(self) -> u8 {
        match self {
            ConservativeKind::Mbr => 0,
            ConservativeKind::Mbc => 1,
            ConservativeKind::Mbe => 2,
            ConservativeKind::Rmbr => 3,
            ConservativeKind::FourCorner => 4,
            ConservativeKind::FiveCorner => 5,
            ConservativeKind::ConvexHull => 6,
        }
    }
}

/// The progressive approximation kinds of §3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgressiveKind {
    /// Maximum enclosed circle (3 parameters).
    Mec,
    /// Maximum enclosed rectangle (4 parameters).
    Mer,
}

impl ProgressiveKind {
    pub const ALL: [ProgressiveKind; 2] = [ProgressiveKind::Mec, ProgressiveKind::Mer];

    pub fn name(self) -> &'static str {
        match self {
            ProgressiveKind::Mec => "MEC",
            ProgressiveKind::Mer => "MER",
        }
    }

    /// Stable code the engine's store configuration tag fingerprints.
    pub fn code(self) -> u8 {
        match self {
            ProgressiveKind::Mec => 0,
            ProgressiveKind::Mer => 1,
        }
    }
}

/// A computed conservative approximation.
#[derive(Debug, Clone, PartialEq)]
pub enum Conservative {
    Mbr(Rect),
    Mbc(Circle),
    Mbe(Ellipse),
    /// RMBR / m-corner / convex hull: a convex CCW vertex ring.
    Convex(ConservativeKind, Vec<Point>),
}

impl Conservative {
    /// Computes the approximation of `kind` for an object.
    ///
    /// Falls back to the MBR for degenerate geometry (collinear hulls),
    /// which keeps the approximation conservative.
    pub fn compute(kind: ConservativeKind, object: &SpatialObject) -> Conservative {
        let pts = object.region.outer().vertices();
        match kind {
            ConservativeKind::Mbr => Conservative::Mbr(object.mbr()),
            ConservativeKind::Mbc => min_bounding_circle(pts)
                .map(Conservative::Mbc)
                .unwrap_or(Conservative::Mbr(object.mbr())),
            ConservativeKind::Mbe => min_bounding_ellipse(pts, 1e-7)
                .map(Conservative::Mbe)
                .unwrap_or(Conservative::Mbr(object.mbr())),
            ConservativeKind::Rmbr => min_area_rect(pts)
                .map(|r| Conservative::Convex(kind, r.corners().to_vec()))
                .unwrap_or(Conservative::Mbr(object.mbr())),
            ConservativeKind::FourCorner => min_bounding_corner(pts, 4)
                .map(|ring| Conservative::Convex(kind, ring))
                .unwrap_or(Conservative::Mbr(object.mbr())),
            ConservativeKind::FiveCorner => min_bounding_corner(pts, 5)
                .map(|ring| Conservative::Convex(kind, ring))
                .unwrap_or(Conservative::Mbr(object.mbr())),
            ConservativeKind::ConvexHull => {
                let hull = convex_hull(pts);
                if hull.len() >= 3 {
                    Conservative::Convex(kind, hull)
                } else {
                    Conservative::Mbr(object.mbr())
                }
            }
        }
    }

    /// Number of stored parameters (floats) — the storage measure of
    /// Figure 3. The MBR costs 4, RMBR 5, 4-C 8, 5-C 10, MBC 3, MBE 5;
    /// hulls vary (2 per vertex).
    pub fn param_count(&self) -> usize {
        match self {
            Conservative::Mbr(_) => 4,
            Conservative::Mbc(_) => 3,
            Conservative::Mbe(_) => 5,
            Conservative::Convex(kind, ring) => match kind {
                ConservativeKind::Rmbr => 5,
                ConservativeKind::FourCorner => 8,
                ConservativeKind::FiveCorner => 10,
                _ => 2 * ring.len(),
            },
        }
    }

    /// This approximation as a [`ConsView`], which holds every test below.
    pub fn as_view(&self) -> ConsView<'_> {
        match self {
            Conservative::Mbr(r) => ConsView::Rect(r),
            Conservative::Mbc(c) => ConsView::Circle(c),
            Conservative::Mbe(e) => ConsView::Ellipse(e),
            Conservative::Convex(_, ring) => ConsView::Convex(ring),
        }
    }

    /// Enclosed area of the approximation.
    pub fn area(&self) -> f64 {
        self.as_view().area()
    }

    /// Axis-parallel bounding rectangle of the approximation (for the
    /// "area extension" analysis of §3.4).
    pub fn aabb(&self) -> Rect {
        self.as_view().aabb()
    }

    /// Whether `p` lies in the closed approximation region.
    pub fn contains_point(&self, p: Point) -> bool {
        self.as_view().contains_point(p)
    }

    /// A polygonal ring for area computations (see [`ConsView::to_ring`]).
    pub fn to_ring(&self, resolution: usize) -> Vec<Point> {
        self.as_view().to_ring(resolution)
    }

    /// Closed intersection test between two conservative approximations.
    pub fn intersects(&self, other: &Conservative) -> bool {
        self.as_view().intersects(&other.as_view())
    }
}

/// A borrowed, dispatch-light view of one stored conservative
/// approximation — what the columnar [`crate::ConservativeStore`] hands
/// out instead of `&Conservative`.
///
/// The payload behind a view lives in a contiguous per-kind column (a
/// flat vertex arena for the convex kinds), so reading one approximation
/// touches exactly its own bytes: no per-object heap allocation, no
/// `Vec<Point>` pointer chase. It is also the one home of the tests every
/// [`Conservative`] delegates to, with one deliberate normalization: MBR
/// *fallbacks* inside a convex-kind store are stored as their 4-corner
/// rings (see [`crate::ConservativeStore::build`]).
#[derive(Debug, Clone, Copy)]
pub enum ConsView<'a> {
    Rect(&'a Rect),
    Circle(&'a Circle),
    Ellipse(&'a Ellipse),
    /// A convex CCW vertex ring (RMBR / m-corner / hull / boxed MBR).
    Convex(&'a [Point]),
}

impl ConsView<'_> {
    /// Closed intersection test between two conservative approximations.
    pub fn intersects(&self, other: &ConsView) -> bool {
        use ConsView::*;
        match (self, other) {
            (Rect(a), Rect(b)) => a.intersects(b),
            (Circle(a), Circle(b)) => a.intersects_circle(b),
            (Ellipse(a), Ellipse(b)) => a.intersects_ellipse(b),
            (Convex(a), Convex(b)) => convex_intersect(a, b),
            (Rect(a), Circle(b)) | (Circle(b), Rect(a)) => b.intersects_rect(a),
            (Rect(a), Ellipse(b)) | (Ellipse(b), Rect(a)) => b.intersects_convex(&a.corners()),
            (Rect(a), Convex(b)) | (Convex(b), Rect(a)) => convex_intersect(&a.corners(), b),
            (Circle(a), Ellipse(b)) | (Ellipse(b), Circle(a)) => b.intersects_circle(a),
            (Circle(a), Convex(b)) | (Convex(b), Circle(a)) => a.intersects_convex(b),
            (Ellipse(a), Convex(b)) | (Convex(b), Ellipse(a)) => a.intersects_convex(b),
        }
    }

    /// Whether `p` lies in the closed approximation region.
    pub fn contains_point(&self, p: Point) -> bool {
        match self {
            ConsView::Rect(r) => r.contains_point(p),
            ConsView::Circle(c) => c.contains_point(p),
            ConsView::Ellipse(e) => e.contains_point(p),
            ConsView::Convex(ring) => msj_geom::convex_contains_point(ring, p),
        }
    }

    /// Axis-parallel bounding rectangle of the approximation.
    pub fn aabb(&self) -> Rect {
        match self {
            ConsView::Rect(r) => **r,
            ConsView::Circle(c) => c.mbr(),
            ConsView::Ellipse(e) => e.mbr(),
            ConsView::Convex(ring) => Rect::bounding(ring.iter().copied()).expect("non-empty ring"),
        }
    }

    /// A polygonal ring for area computations. Curved shapes are inscribed
    /// (`resolution`-gon), so derived areas under-approximate — the safe
    /// direction for the hit-identifying false-area test.
    pub fn to_ring(&self, resolution: usize) -> Vec<Point> {
        match self {
            ConsView::Rect(r) => r.corners().to_vec(),
            ConsView::Circle(c) => c.polygonize(resolution),
            ConsView::Ellipse(e) => e.polygonize(resolution),
            ConsView::Convex(ring) => ring.to_vec(),
        }
    }

    /// Enclosed area of the approximation.
    pub fn area(&self) -> f64 {
        match self {
            ConsView::Rect(r) => r.area(),
            ConsView::Circle(c) => c.area(),
            ConsView::Ellipse(e) => e.area(),
            ConsView::Convex(ring) => msj_geom::ring_area(ring),
        }
    }
}

/// A computed progressive approximation.
///
/// `Empty` marks objects whose progressive approximation degenerated (no
/// enclosed rectangle/circle found); it never identifies a hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Progressive {
    Mec(Circle),
    Mer(Rect),
    Empty,
}

impl Progressive {
    /// Computes the progressive approximation of `kind` for an object.
    pub fn compute(kind: ProgressiveKind, object: &SpatialObject) -> Progressive {
        match kind {
            ProgressiveKind::Mec => {
                let c = max_enclosed_circle(&object.region, 1e-3);
                if c.radius > 0.0 {
                    Progressive::Mec(c)
                } else {
                    Progressive::Empty
                }
            }
            ProgressiveKind::Mer => max_enclosed_rect(&object.region)
                .map(Progressive::Mer)
                .unwrap_or(Progressive::Empty),
        }
    }

    /// Number of stored parameters (MEC 3, MER 4).
    pub fn param_count(&self) -> usize {
        match self {
            Progressive::Mec(_) => 3,
            Progressive::Mer(_) => 4,
            Progressive::Empty => 0,
        }
    }

    /// Enclosed area.
    pub fn area(&self) -> f64 {
        match self {
            Progressive::Mec(c) => c.area(),
            Progressive::Mer(r) => r.area(),
            Progressive::Empty => 0.0,
        }
    }

    /// Closed intersection test between two progressive approximations.
    /// `Empty` never intersects anything (no hit can be claimed).
    pub fn intersects(&self, other: &Progressive) -> bool {
        use Progressive::*;
        match (self, other) {
            (Mec(a), Mec(b)) => a.intersects_circle(b),
            (Mer(a), Mer(b)) => a.intersects(b),
            (Mec(a), Mer(b)) | (Mer(b), Mec(a)) => a.intersects_rect(b),
            (Empty, _) | (_, Empty) => false,
        }
    }
}

/// Verifies conservativeness on the object's own vertices (used by tests
/// and debug assertions): every vertex must lie in the approximation.
pub fn is_conservative_for(approx: &Conservative, region: &PolygonWithHoles) -> bool {
    region
        .outer()
        .vertices()
        .iter()
        .all(|&v| approx.contains_point(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use msj_geom::Polygon;

    fn object(coords: &[(f64, f64)]) -> SpatialObject {
        SpatialObject::new(
            0,
            Polygon::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect())
                .unwrap()
                .into(),
        )
    }

    fn blobby() -> SpatialObject {
        let pts: Vec<(f64, f64)> = (0..40)
            .map(|i| {
                let t = i as f64 / 40.0 * std::f64::consts::TAU;
                let r = 4.0 + 1.5 * (3.0 * t).sin() + 0.7 * (8.0 * t).cos();
                (r * t.cos() * 1.5, r * t.sin())
            })
            .collect();
        object(&pts)
    }

    #[test]
    fn every_conservative_kind_contains_the_object() {
        let obj = blobby();
        for kind in ConservativeKind::ALL {
            let a = Conservative::compute(kind, &obj);
            assert!(
                is_conservative_for(&a, &obj.region),
                "{} is not conservative",
                kind.name()
            );
        }
    }

    #[test]
    fn param_counts_match_figure3() {
        let obj = blobby();
        assert_eq!(
            Conservative::compute(ConservativeKind::Mbr, &obj).param_count(),
            4
        );
        assert_eq!(
            Conservative::compute(ConservativeKind::Mbc, &obj).param_count(),
            3
        );
        assert_eq!(
            Conservative::compute(ConservativeKind::Mbe, &obj).param_count(),
            5
        );
        assert_eq!(
            Conservative::compute(ConservativeKind::Rmbr, &obj).param_count(),
            5
        );
        assert_eq!(
            Conservative::compute(ConservativeKind::FourCorner, &obj).param_count(),
            8
        );
        assert_eq!(
            Conservative::compute(ConservativeKind::FiveCorner, &obj).param_count(),
            10
        );
        let ch = Conservative::compute(ConservativeKind::ConvexHull, &obj);
        assert!(ch.param_count() >= 6); // at least a triangle
    }

    #[test]
    fn accuracy_ordering_on_average_shape() {
        // Figure 4's ordering: CH ≤ 5-C ≤ 4-C and all ≤ MBR-sized shapes.
        let obj = blobby();
        let ch = Conservative::compute(ConservativeKind::ConvexHull, &obj).area();
        let c5 = Conservative::compute(ConservativeKind::FiveCorner, &obj).area();
        let c4 = Conservative::compute(ConservativeKind::FourCorner, &obj).area();
        let mbr = Conservative::compute(ConservativeKind::Mbr, &obj).area();
        assert!(ch <= c5 + 1e-9);
        assert!(c5 <= c4 + 1e-9);
        assert!(ch < mbr);
    }

    #[test]
    fn conservative_cross_type_intersections() {
        let a = object(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]);
        let b = object(&[(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)]);
        let far = object(&[(10.0, 10.0), (12.0, 10.0), (12.0, 12.0), (10.0, 12.0)]);
        for ka in ConservativeKind::ALL {
            for kb in ConservativeKind::ALL {
                let ca = Conservative::compute(ka, &a);
                let cb = Conservative::compute(kb, &b);
                let cf = Conservative::compute(kb, &far);
                assert!(
                    ca.intersects(&cb),
                    "{} vs {} should intersect (objects overlap)",
                    ka.name(),
                    kb.name()
                );
                assert!(
                    !ca.intersects(&cf) || ca.aabb().intersects(&cf.aabb()),
                    "{} vs {} spurious intersection",
                    ka.name(),
                    kb.name()
                );
            }
        }
    }

    #[test]
    fn conservative_test_symmetry() {
        let a = blobby();
        let b = object(&[(3.0, 3.0), (9.0, 4.0), (8.0, 9.0), (2.0, 8.0)]);
        for ka in ConservativeKind::ALL {
            for kb in ConservativeKind::ALL {
                let ca = Conservative::compute(ka, &a);
                let cb = Conservative::compute(kb, &b);
                assert_eq!(
                    ca.intersects(&cb),
                    cb.intersects(&ca),
                    "{} vs {} asymmetric",
                    ka.name(),
                    kb.name()
                );
            }
        }
    }

    #[test]
    fn progressive_kinds_are_enclosed() {
        let obj = blobby();
        for kind in ProgressiveKind::ALL {
            let p = Progressive::compute(kind, &obj);
            match p {
                Progressive::Mec(c) => {
                    for i in 0..24 {
                        let t = i as f64 / 24.0 * std::f64::consts::TAU;
                        let q = c.center + Point::new(t.cos(), t.sin()) * (c.radius * 0.995);
                        assert!(obj.region.contains_point(q), "MEC point escaped");
                    }
                }
                Progressive::Mer(r) => {
                    for i in 0..=4 {
                        for j in 0..=4 {
                            let q = Point::new(
                                r.xmin() + r.width() * i as f64 / 4.0,
                                r.ymin() + r.height() * j as f64 / 4.0,
                            )
                            .lerp(r.center(), 1e-6);
                            assert!(obj.region.contains_point(q), "MER point escaped");
                        }
                    }
                }
                Progressive::Empty => panic!("progressive approximation degenerated"),
            }
        }
    }

    #[test]
    fn progressive_intersection_tests() {
        let a = Progressive::Mer(Rect::from_bounds(0.0, 0.0, 2.0, 2.0));
        let b = Progressive::Mer(Rect::from_bounds(1.0, 1.0, 3.0, 3.0));
        let c = Progressive::Mec(Circle::new(Point::new(5.0, 1.0), 1.0));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(b.intersects(&b));
        // Circle touching rect.
        let d = Progressive::Mec(Circle::new(Point::new(3.0, 1.0), 1.0));
        assert!(a.intersects(&d));
        // Empty never intersects.
        assert!(!Progressive::Empty.intersects(&a));
        assert!(!a.intersects(&Progressive::Empty));
    }

    #[test]
    fn progressive_area_below_object_area() {
        let obj = blobby();
        let area = obj.area();
        for kind in ProgressiveKind::ALL {
            let p = Progressive::compute(kind, &obj);
            assert!(p.area() > 0.0);
            assert!(p.area() <= area, "{} exceeds object", kind.name());
        }
    }
}

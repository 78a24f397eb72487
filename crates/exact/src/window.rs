//! Exact region-vs-window tests for multi-step point and window queries
//! (§2: the window query is the other fundamental operation the spatial
//! query processor of [BHKS 93] serves; the paper's Figure 10 measures
//! both on the same storage organizations).

use crate::containment::point_in_region_counted;
use crate::cost::OpCounts;
use msj_geom::{Point, PolygonWithHoles, Rect};

/// Closed intersection test between a polygonal region and an
/// axis-parallel query window.
///
/// Counted operations: one *edge-rectangle test* (weight 28) per boundary
/// edge examined, plus point-in-region probes (edge-line tests) for the
/// containment cases.
pub fn region_intersects_rect(
    region: &PolygonWithHoles,
    window: &Rect,
    counts: &mut OpCounts,
) -> bool {
    // MBR pretest.
    counts.rect_rect += 1;
    if !region.mbr().intersects(window) {
        return false;
    }
    // Any boundary edge crossing the window proves intersection.
    for e in region.edges() {
        counts.edge_rect += 1;
        if e.intersects_rect(window) {
            return true;
        }
    }
    // No boundary contact: either the window is strictly inside the
    // region, or the region is strictly inside the window, or they are
    // disjoint (window inside a hole also lands here and correctly fails
    // the point probe).
    if region.mbr().contains_rect(window) {
        counts.pip_performed += 1;
        return point_in_region_counted(region, window.center(), counts);
    }
    counts.pip_skipped += 1;
    // Region inside window: its MBR would be contained.
    window.contains_rect(&region.mbr())
}

/// Counted point-in-region test for the exact step of a multi-step point
/// query.
pub fn region_contains_point(region: &PolygonWithHoles, p: Point, counts: &mut OpCounts) -> bool {
    counts.rect_rect += 1;
    if !region.mbr().contains_point(p) {
        return false;
    }
    // Boundary membership counts (closed semantics): probe the edges
    // first, then ray-cast.
    for e in region.edges() {
        counts.edge_line += 1;
        if e.contains_point(p) {
            return true;
        }
    }
    point_in_region_counted(region, p, counts)
}

/// Reference (uncounted) window predicate used by tests.
pub fn region_intersects_rect_reference(region: &PolygonWithHoles, window: &Rect) -> bool {
    if !region.mbr().intersects(window) {
        return false;
    }
    if region.edges().any(|e| e.intersects_rect(window)) {
        return true;
    }
    region.contains_point(window.center()) || window.contains_rect(&region.mbr())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadratic::quadratic_intersects;
    use msj_geom::Polygon;

    /// A window as a region, for the polygon-polygon reference path.
    fn rect_to_region(window: &Rect) -> PolygonWithHoles {
        Polygon::new(window.corners().to_vec()).unwrap().into()
    }

    fn region(coords: &[(f64, f64)]) -> PolygonWithHoles {
        Polygon::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect())
            .unwrap()
            .into()
    }

    fn donut() -> PolygonWithHoles {
        let outer = Polygon::new(
            [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]
                .iter()
                .map(|&(x, y)| Point::new(x, y))
                .collect(),
        )
        .unwrap();
        let hole = Polygon::new(
            [(3.0, 3.0), (7.0, 3.0), (7.0, 7.0), (3.0, 7.0)]
                .iter()
                .map(|&(x, y)| Point::new(x, y))
                .collect(),
        )
        .unwrap();
        PolygonWithHoles::new(outer, vec![hole])
    }

    #[test]
    fn window_cases() {
        let tri = region(&[(0.0, 0.0), (8.0, 0.0), (0.0, 8.0)]);
        let mut c = OpCounts::new();
        // Crossing the boundary.
        assert!(region_intersects_rect(
            &tri,
            &Rect::from_bounds(-1.0, -1.0, 1.0, 1.0),
            &mut c
        ));
        // Fully inside.
        assert!(region_intersects_rect(
            &tri,
            &Rect::from_bounds(1.0, 1.0, 2.0, 2.0),
            &mut c
        ));
        // Region inside a huge window.
        assert!(region_intersects_rect(
            &tri,
            &Rect::from_bounds(-10.0, -10.0, 20.0, 20.0),
            &mut c
        ));
        // MBR overlap but disjoint (beyond the hypotenuse).
        assert!(!region_intersects_rect(
            &tri,
            &Rect::from_bounds(6.0, 6.0, 7.0, 7.0),
            &mut c
        ));
        // Fully outside MBR.
        assert!(!region_intersects_rect(
            &tri,
            &Rect::from_bounds(20.0, 0.0, 21.0, 1.0),
            &mut c
        ));
        assert!(c.edge_rect > 0 && c.rect_rect > 0);
    }

    #[test]
    fn window_inside_hole_is_disjoint() {
        let d = donut();
        let mut c = OpCounts::new();
        assert!(!region_intersects_rect(
            &d,
            &Rect::from_bounds(4.0, 4.0, 6.0, 6.0),
            &mut c
        ));
        // Window bridging hole and ring intersects.
        assert!(region_intersects_rect(
            &d,
            &Rect::from_bounds(4.0, 4.0, 8.0, 6.0),
            &mut c
        ));
    }

    #[test]
    fn window_agrees_with_polygonized_quadratic() {
        // The window test must agree with treating the window as a
        // 4-vertex region and running the polygon-polygon test.
        let shapes = [
            region(&[(0.0, 0.0), (8.0, 0.0), (0.0, 8.0)]),
            donut(),
            region(&[
                (0.0, 0.0),
                (4.0, 1.0),
                (8.0, 0.0),
                (7.0, 5.0),
                (4.0, 3.0),
                (1.0, 5.0),
            ]),
        ];
        let windows = [
            Rect::from_bounds(-1.0, -1.0, 0.5, 0.5),
            Rect::from_bounds(2.0, 2.0, 3.0, 3.0),
            Rect::from_bounds(4.0, 4.0, 6.0, 6.0),
            Rect::from_bounds(-5.0, -5.0, 15.0, 15.0),
            Rect::from_bounds(7.5, 7.5, 9.0, 9.0),
            Rect::from_bounds(20.0, 20.0, 30.0, 30.0),
        ];
        for (si, s) in shapes.iter().enumerate() {
            for (wi, w) in windows.iter().enumerate() {
                let mut c1 = OpCounts::new();
                let mut c2 = OpCounts::new();
                let direct = region_intersects_rect(s, w, &mut c1);
                let viapoly = quadratic_intersects(s, &rect_to_region(w), &mut c2);
                assert_eq!(direct, viapoly, "shape {si} window {wi}");
            }
        }
    }

    #[test]
    fn point_test_counts_and_agrees() {
        let d = donut();
        let mut c = OpCounts::new();
        assert!(region_contains_point(&d, Point::new(1.0, 1.0), &mut c));
        assert!(!region_contains_point(&d, Point::new(5.0, 5.0), &mut c)); // hole
        assert!(region_contains_point(&d, Point::new(3.0, 5.0), &mut c)); // hole edge
        assert!(!region_contains_point(&d, Point::new(11.0, 5.0), &mut c));
        assert!(c.edge_line > 0);
        for probe in [
            Point::new(1.0, 1.0),
            Point::new(5.0, 5.0),
            Point::new(0.0, 0.0),
            Point::new(-1.0, 2.0),
        ] {
            let mut c = OpCounts::new();
            assert_eq!(
                region_contains_point(&d, probe, &mut c),
                d.contains_point(probe),
                "{probe:?}"
            );
        }
    }
}

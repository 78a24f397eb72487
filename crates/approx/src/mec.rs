//! Maximum enclosed circle (MEC) — the progressive circle approximation
//! (§3.3).
//!
//! The paper computes the MEC from the Voronoi diagram of the polygon
//! edges. We use the "polylabel" quadtree refinement of the pole of
//! inaccessibility instead: both find the interior point maximizing the
//! distance to the boundary; polylabel converges to any requested
//! precision without a full medial-axis construction. The substitution
//! cannot make the filter unsound: any circle centred inside the region
//! with radius at most the distance to the boundary is enclosed, so a
//! looser tolerance only gives up a sliver of progressive area.

use crate::circle::Circle;
use msj_geom::{Point, PolygonWithHoles, Segment};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Signed distance of `p` to the region boundary: positive inside,
/// negative outside.
fn signed_dist(region: &PolygonWithHoles, edges: &[Segment], p: Point) -> f64 {
    let mut d = f64::INFINITY;
    for e in edges {
        d = d.min(e.dist_to_point(p));
    }
    if region.contains_point(p) {
        d
    } else {
        -d
    }
}

/// A search cell: center, half size and its maximum achievable distance.
struct Cell {
    center: Point,
    half: f64,
    dist: f64,
    potential: f64,
}

impl Cell {
    fn new(region: &PolygonWithHoles, edges: &[Segment], center: Point, half: f64) -> Cell {
        let dist = signed_dist(region, edges, center);
        Cell {
            center,
            half,
            dist,
            potential: dist + half * std::f64::consts::SQRT_2,
        }
    }
}

impl PartialEq for Cell {
    fn eq(&self, other: &Self) -> bool {
        self.potential == other.potential
    }
}
impl Eq for Cell {}
impl PartialOrd for Cell {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cell {
    fn cmp(&self, other: &Self) -> Ordering {
        self.potential
            .partial_cmp(&other.potential)
            .unwrap_or(Ordering::Equal)
    }
}

/// Computes the maximum enclosed circle of a polygonal region.
///
/// `precision_frac` is the termination precision as a fraction of the
/// larger MBR extent (default 1e-3 when ≤ 0 is passed). The returned
/// circle's center is the pole of inaccessibility; the radius is its
/// boundary distance (to within the precision).
pub fn max_enclosed_circle(region: &PolygonWithHoles, precision_frac: f64) -> Circle {
    let mbr = region.mbr();
    let precision_frac = if precision_frac <= 0.0 {
        1e-3
    } else {
        precision_frac
    };
    let precision = precision_frac * mbr.width().max(mbr.height());
    let edges: Vec<Segment> = region.edges().collect();

    let cell_size = mbr.width().min(mbr.height());
    let half = 0.5 * cell_size;
    let mut heap: BinaryHeap<Cell> = BinaryHeap::new();

    // Seed the heap with a grid over the MBR.
    let mut y = mbr.ymin() + half;
    while y < mbr.ymax() + half {
        let mut x = mbr.xmin() + half;
        while x < mbr.xmax() + half {
            heap.push(Cell::new(region, &edges, Point::new(x, y), half));
            x += cell_size;
        }
        y += cell_size;
    }

    // Two informed guesses: the centroid and the MBR center.
    let mut best = Cell::new(region, &edges, region.outer().centroid(), 0.0);
    let alt = Cell::new(region, &edges, mbr.center(), 0.0);
    if alt.dist > best.dist {
        best = alt;
    }

    while let Some(cell) = heap.pop() {
        if cell.dist > best.dist {
            best = Cell {
                center: cell.center,
                half: 0.0,
                dist: cell.dist,
                potential: cell.dist,
            };
        }
        // Prune cells that cannot beat the current best.
        if cell.potential - best.dist <= precision {
            continue;
        }
        let h = 0.5 * cell.half;
        for (dx, dy) in [(-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0)] {
            heap.push(Cell::new(
                region,
                &edges,
                cell.center + Point::new(dx * h, dy * h),
                h,
            ));
        }
    }

    Circle::new(best.center, best.dist.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use msj_geom::Polygon;

    fn poly(coords: &[(f64, f64)]) -> PolygonWithHoles {
        Polygon::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect())
            .unwrap()
            .into()
    }

    #[test]
    fn square_mec_is_inscribed_circle() {
        let sq = poly(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]);
        let c = max_enclosed_circle(&sq, 1e-4);
        assert!((c.radius - 2.0).abs() < 1e-2, "radius {}", c.radius);
        assert!((c.center.x - 2.0).abs() < 2e-2);
        assert!((c.center.y - 2.0).abs() < 2e-2);
    }

    #[test]
    fn rectangle_mec_radius_is_half_height() {
        let r = poly(&[(0.0, 0.0), (10.0, 0.0), (10.0, 2.0), (0.0, 2.0)]);
        let c = max_enclosed_circle(&r, 1e-4);
        assert!((c.radius - 1.0).abs() < 1e-2, "radius {}", c.radius);
        assert!((c.center.y - 1.0).abs() < 2e-2);
    }

    #[test]
    fn l_shape_pole_in_thick_part() {
        // L-shape: thick square arm [0,4]² minus the notch [2,4]×[2,4].
        let l = poly(&[
            (0.0, 0.0),
            (4.0, 0.0),
            (4.0, 2.0),
            (2.0, 2.0),
            (2.0, 4.0),
            (0.0, 4.0),
        ]);
        let c = max_enclosed_circle(&l, 1e-4);
        // Largest inscribed circle sits in the corner where the arms meet:
        // center (c, c) with radius c = 4 - 2√2 ≈ 1.1716, limited by the
        // two outer walls and the reflex corner (2, 2).
        let expect = 4.0 - 2.0 * 2f64.sqrt();
        assert!((c.radius - expect).abs() < 2e-2, "radius {}", c.radius);
        // Its center must be inside the region.
        assert!(l.contains_point(c.center));
    }

    #[test]
    fn mec_circle_is_enclosed() {
        let blob = poly(&[
            (0.0, 0.0),
            (6.0, -1.0),
            (9.0, 2.0),
            (7.0, 6.0),
            (3.0, 7.0),
            (-1.0, 4.0),
        ]);
        let c = max_enclosed_circle(&blob, 1e-4);
        assert!(c.radius > 0.0);
        // Sample circle boundary points — all inside the region (tolerance
        // one precision step).
        for i in 0..32 {
            let t = i as f64 / 32.0 * std::f64::consts::TAU;
            let p = c.center + Point::new(t.cos(), t.sin()) * (c.radius * 0.999);
            assert!(blob.contains_point(p), "boundary point {p:?} escaped");
        }
    }

    #[test]
    fn mec_respects_holes() {
        let outer = Polygon::new(
            [(0.0, 0.0), (8.0, 0.0), (8.0, 8.0), (0.0, 8.0)]
                .iter()
                .map(|&(x, y)| Point::new(x, y))
                .collect(),
        )
        .unwrap();
        // A central hole forces the pole off-center.
        let hole = Polygon::new(
            [(3.0, 3.0), (5.0, 3.0), (5.0, 5.0), (3.0, 5.0)]
                .iter()
                .map(|&(x, y)| Point::new(x, y))
                .collect(),
        )
        .unwrap();
        let region = PolygonWithHoles::new(outer, vec![hole]);
        let c = max_enclosed_circle(&region, 1e-4);
        // Without the hole the radius would be 4; with it the best disk
        // nestles into a corner quadrant, limited by two outer walls and
        // the nearest hole corner: radius 3(2 - √2) ≈ 1.757.
        let expect = 3.0 * (2.0 - 2f64.sqrt());
        assert!((c.radius - expect).abs() < 5e-2, "radius {}", c.radius);
        assert!(region.contains_point(c.center));
    }

    #[test]
    fn default_precision_kicks_in() {
        let sq = poly(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]);
        let c = max_enclosed_circle(&sq, 0.0);
        assert!((c.radius - 0.5).abs() < 1e-2);
    }
}

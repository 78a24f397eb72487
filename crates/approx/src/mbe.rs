//! Minimum bounding ellipse (MBE) via Khachiyan's minimum-volume enclosing
//! ellipsoid iteration.
//!
//! The paper uses Welzl's randomized algorithm [Wel 91]; Khachiyan's
//! iteration computes the same (unique) Löwner–John ellipse to a chosen
//! tolerance and is deterministic, so equal seeds give equal stores. The
//! ellipse returned is scaled up to contain every input point, so the
//! tolerance costs a little false area, never conservativeness. We run
//! it on the convex hull only, which leaves the result
//! unchanged and makes the per-iteration cost proportional to the hull
//! size.

use crate::ellipse::Ellipse;
use msj_geom::{convex_hull, Point};

/// Computes the minimum-volume enclosing ellipse of a point set.
///
/// `tolerance` bounds the relative deviation of the Khachiyan weights
/// (1e-7 gives area accuracy far below anything the experiments can
/// resolve). Returns `None` for degenerate inputs (fewer than three
/// non-collinear points).
pub fn min_bounding_ellipse(points: &[Point], tolerance: f64) -> Option<Ellipse> {
    let hull = convex_hull(points);
    if hull.len() < 3 {
        return None;
    }
    let n = hull.len();
    let d = 2.0f64;

    // Khachiyan's algorithm on the "lifted" 3D points (x, y, 1).
    let mut u = vec![1.0 / n as f64; n];
    let max_iter = 10_000;
    for _ in 0..max_iter {
        // X = Σ u_i q_i q_iᵀ  (3x3 symmetric), q = (x, y, 1).
        let mut x = [[0.0f64; 3]; 3];
        for (i, p) in hull.iter().enumerate() {
            let q = [p.x, p.y, 1.0];
            for r in 0..3 {
                for c in 0..3 {
                    x[r][c] += u[i] * q[r] * q[c];
                }
            }
        }
        let xinv = invert3(&x)?;
        // M_i = q_iᵀ X⁻¹ q_i
        let mut max_m = f64::NEG_INFINITY;
        let mut max_i = 0;
        for (i, p) in hull.iter().enumerate() {
            let q = [p.x, p.y, 1.0];
            let mut m = 0.0;
            for r in 0..3 {
                for c in 0..3 {
                    m += q[r] * xinv[r][c] * q[c];
                }
            }
            if m > max_m {
                max_m = m;
                max_i = i;
            }
        }
        let step = (max_m - d - 1.0) / ((d + 1.0) * (max_m - 1.0));
        if step <= tolerance {
            break;
        }
        for w in u.iter_mut() {
            *w *= 1.0 - step;
        }
        u[max_i] += step;
    }

    // Center c = Σ u_i p_i.
    let mut center = Point::ORIGIN;
    for (i, p) in hull.iter().enumerate() {
        center = center + *p * u[i];
    }
    // A = (1/d) (Σ u_i p_i p_iᵀ - c cᵀ)⁻¹ defines (x-c)ᵀ A (x-c) ≤ 1.
    let mut s = [[0.0f64; 2]; 2];
    for (i, p) in hull.iter().enumerate() {
        s[0][0] += u[i] * p.x * p.x;
        s[0][1] += u[i] * p.x * p.y;
        s[1][1] += u[i] * p.y * p.y;
    }
    s[0][0] -= center.x * center.x;
    s[0][1] -= center.x * center.y;
    s[1][1] -= center.y * center.y;
    s[1][0] = s[0][1];
    let det = s[0][0] * s[1][1] - s[0][1] * s[1][0];
    if det <= 0.0 || !det.is_finite() {
        return None;
    }
    // A = S⁻¹ / d.
    let a_mat = [
        [s[1][1] / (det * d), -s[0][1] / (det * d)],
        [-s[1][0] / (det * d), s[0][0] / (det * d)],
    ];
    ellipse_from_matrix(center, a_mat).map(|e| inflate_to_cover(e, &hull))
}

/// Converts the quadratic form `(x-c)ᵀ A (x-c) ≤ 1` into axis/angle form
/// via the eigendecomposition of the symmetric 2×2 matrix `A`.
fn ellipse_from_matrix(center: Point, a: [[f64; 2]; 2]) -> Option<Ellipse> {
    let (m11, m12, m22) = (a[0][0], a[0][1], a[1][1]);
    let tr = m11 + m22;
    let disc = ((m11 - m22).powi(2) + 4.0 * m12 * m12).sqrt();
    let l1 = 0.5 * (tr + disc); // larger eigenvalue → minor axis
    let l2 = 0.5 * (tr - disc); // smaller eigenvalue → major axis
    if l1 <= 0.0 || l2 <= 0.0 || !l1.is_finite() || !l2.is_finite() {
        return None;
    }
    // Eigenvector for l2 (major axis direction).
    let v = if m12.abs() > 1e-300 {
        Point::new(l2 - m22, m12)
    } else if m11 <= m22 {
        Point::new(1.0, 0.0)
    } else {
        Point::new(0.0, 1.0)
    };
    let angle = v.y.atan2(v.x);
    Some(Ellipse::new(
        center,
        1.0 / l2.sqrt(),
        1.0 / l1.sqrt(),
        angle,
    ))
}

/// Scales the ellipse minimally so it covers every hull point — absorbs
/// the finite Khachiyan tolerance so the result is strictly conservative.
fn inflate_to_cover(e: Ellipse, hull: &[Point]) -> Ellipse {
    let mut max_r: f64 = 1.0;
    for &p in hull {
        max_r = max_r.max(e.whiten(p).norm());
    }
    let f = max_r * (1.0 + 1e-12);
    Ellipse::new(e.center, e.a * f, e.b * f, e.angle)
}

/// Inverts a 3×3 matrix; `None` when singular.
fn invert3(m: &[[f64; 3]; 3]) -> Option<[[f64; 3]; 3]> {
    let det = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
    if det.abs() < 1e-300 || !det.is_finite() {
        return None;
    }
    let inv_det = 1.0 / det;
    let mut inv = [[0.0f64; 3]; 3];
    inv[0][0] = (m[1][1] * m[2][2] - m[1][2] * m[2][1]) * inv_det;
    inv[0][1] = (m[0][2] * m[2][1] - m[0][1] * m[2][2]) * inv_det;
    inv[0][2] = (m[0][1] * m[1][2] - m[0][2] * m[1][1]) * inv_det;
    inv[1][0] = (m[1][2] * m[2][0] - m[1][0] * m[2][2]) * inv_det;
    inv[1][1] = (m[0][0] * m[2][2] - m[0][2] * m[2][0]) * inv_det;
    inv[1][2] = (m[0][2] * m[1][0] - m[0][0] * m[1][2]) * inv_det;
    inv[2][0] = (m[1][0] * m[2][1] - m[1][1] * m[2][0]) * inv_det;
    inv[2][1] = (m[0][1] * m[2][0] - m[0][0] * m[2][1]) * inv_det;
    inv[2][2] = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * inv_det;
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-7;

    fn covers(e: &Ellipse, pts: &[Point]) -> bool {
        pts.iter().all(|&p| e.whiten(p).norm_sq() <= 1.0 + 1e-6)
    }

    #[test]
    fn degenerate_inputs() {
        assert!(min_bounding_ellipse(&[], TOL).is_none());
        assert!(min_bounding_ellipse(&[Point::new(1.0, 1.0)], TOL).is_none());
        let collinear = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
        ];
        assert!(min_bounding_ellipse(&collinear, TOL).is_none());
    }

    #[test]
    fn ellipse_of_symmetric_rectangle() {
        // MVEE of a w×h rectangle is the ellipse with semi-axes
        // (w/√2, h/√2) at its center.
        let pts = [
            Point::new(-2.0, -1.0),
            Point::new(2.0, -1.0),
            Point::new(2.0, 1.0),
            Point::new(-2.0, 1.0),
        ];
        let e = min_bounding_ellipse(&pts, TOL).unwrap();
        assert!((e.center.norm()) < 1e-6);
        assert!((e.a - 2.0 * 2f64.sqrt()).abs() < 1e-3, "a = {}", e.a);
        assert!((e.b - 2f64.sqrt()).abs() < 1e-3, "b = {}", e.b);
        assert!(covers(&e, &pts));
    }

    #[test]
    fn ellipse_covers_blob_points() {
        // Deterministic wavy ring of points.
        let pts: Vec<Point> = (0..80)
            .map(|i| {
                let t = i as f64 / 80.0 * std::f64::consts::TAU;
                let r = 3.0 + (3.0 * t).sin() + 0.5 * (7.0 * t).cos();
                Point::new(r * t.cos() * 1.8 + 5.0, r * t.sin() - 2.0)
            })
            .collect();
        let e = min_bounding_ellipse(&pts, TOL).unwrap();
        assert!(covers(&e, &pts));
    }

    #[test]
    fn ellipse_beats_circle_on_elongated_sets() {
        let pts: Vec<Point> = (0..40)
            .map(|i| {
                let t = i as f64 / 40.0 * std::f64::consts::TAU;
                Point::new(5.0 * t.cos(), 1.0 * t.sin())
            })
            .collect();
        let e = min_bounding_ellipse(&pts, TOL).unwrap();
        let c = crate::mbc::min_bounding_circle(&pts).unwrap();
        assert!(covers(&e, &pts));
        assert!(
            e.area() < 0.5 * c.area(),
            "MBE {} vs MBC {}",
            e.area(),
            c.area()
        );
    }

    #[test]
    fn ellipse_is_near_minimal_for_a_known_ellipse() {
        // Points on an ellipse with semi-axes 4 and 2 rotated by 0.6 rad:
        // the MVEE should approach that ellipse itself.
        let truth = Ellipse::new(Point::new(1.0, -3.0), 4.0, 2.0, 0.6);
        let pts: Vec<Point> = (0..64)
            .map(|i| truth.boundary_point(i as f64 / 64.0 * std::f64::consts::TAU))
            .collect();
        let e = min_bounding_ellipse(&pts, 1e-9).unwrap();
        assert!(covers(&e, &pts));
        assert!(
            (e.area() - truth.area()).abs() / truth.area() < 0.02,
            "area {} vs {}",
            e.area(),
            truth.area()
        );
    }

    #[test]
    fn rotation_invariance_of_area() {
        let base: Vec<Point> = (0..24)
            .map(|i| {
                let t = i as f64 / 24.0 * std::f64::consts::TAU;
                Point::new(3.0 * t.cos() + 0.4 * (2.0 * t).sin(), t.sin())
            })
            .collect();
        let a0 = min_bounding_ellipse(&base, TOL).unwrap().area();
        let rot: Vec<Point> = base.iter().map(|p| p.rotated(1.1)).collect();
        let a1 = min_bounding_ellipse(&rot, TOL).unwrap().area();
        assert!((a0 - a1).abs() / a0 < 1e-3);
    }
}

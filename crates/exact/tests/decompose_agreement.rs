//! The sweep `decompose` against the decomposition it replaced: the
//! band scan that tested every edge against every band, kept here
//! verbatim as the reference. Every trapezoid must come out bit for bit
//! the same and in the same order — through `decompose` and through the
//! trapezoid column of a `TrStarStore`, which reuses one decomposer
//! across a relation — on the generated relations, a property test over
//! regions with holes, and hand-built degenerate cases.
//!
//! The same inputs check the trapezoid count the TR* build sizes its
//! column by: at most one trapezoid per vertex plus one per hole beyond
//! the first.

use msj_datagen::{blob, carve_hole, BlobParams, HoleParams};
use msj_exact::{decompose, TrStarStore, Trapezoid};
use msj_geom::validate::region_is_valid;
use msj_geom::{Point, Polygon, PolygonWithHoles, Relation};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `decompose_into` of `crates/exact/src/trapezoid.rs` before the sweep,
/// unchanged.
mod reference {
    use msj_exact::{Trapezoid, XSpan};
    use msj_geom::{Point, PolygonWithHoles};

    pub fn decompose(region: &PolygonWithHoles) -> Vec<Trapezoid> {
        let mut traps = Vec::new();
        decompose_into(region, &mut traps);
        traps
    }

    fn decompose_into(region: &PolygonWithHoles, traps: &mut Vec<Trapezoid>) {
        let mut ys: Vec<f64> = region
            .outer()
            .vertices()
            .iter()
            .chain(region.holes().iter().flat_map(|h| h.vertices().iter()))
            .map(|p| p.y)
            .collect();
        ys.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        ys.dedup();

        // Collect all edges once.
        let edges: Vec<(Point, Point)> = region.edges().map(|e| (e.a, e.b)).collect();

        // Open trapezoids from the previous band: (left edge id, right edge
        // id, index into `traps`). The trapezoid at that index still ends at
        // the previous band's top and can be extended.
        let mut open: Vec<(usize, usize, usize)> = Vec::new();
        let mut next_open: Vec<(usize, usize, usize)> = Vec::new();
        let mut spans: Vec<(f64, f64, f64, usize)> = Vec::new(); // x@y1, x@y2, x@mid, edge id

        for w in ys.windows(2) {
            let (y1, y2) = (w[0], w[1]);
            let ymid = 0.5 * (y1 + y2);
            spans.clear();
            for (idx, &(a, b)) in edges.iter().enumerate() {
                let (elo, ehi) = (a.y.min(b.y), a.y.max(b.y));
                // Edge must span the band (no vertex lies strictly inside a
                // band); a horizontal edge spans none.
                if elo <= y1 && ehi >= y2 {
                    let x_at = |y: f64| a.x + (y - a.y) / (b.y - a.y) * (b.x - a.x);
                    spans.push((x_at(y1), x_at(y2), x_at(ymid), idx));
                }
            }
            spans.sort_by(|p, q| p.2.partial_cmp(&q.2).expect("finite"));
            // Even-odd pairing: spans 0-1, 2-3, ... bound interior trapezoids.
            next_open.clear();
            let mut i = 0;
            while i + 1 < spans.len() {
                let left = spans[i];
                let right = spans[i + 1];
                // Extend the previous band's trapezoid when the same edge
                // pair bounds it (the bounding lines are straight, so the
                // union stays a trapezoid).
                if let Some(&(_, _, t_idx)) =
                    open.iter().find(|&&(l, r, _)| l == left.3 && r == right.3)
                {
                    traps[t_idx].y_hi = y2;
                    traps[t_idx].x_hi = XSpan(left.1, right.1);
                    next_open.push((left.3, right.3, t_idx));
                } else {
                    traps.push(Trapezoid {
                        y_lo: y1,
                        y_hi: y2,
                        x_lo: XSpan(left.0, right.0),
                        x_hi: XSpan(left.1, right.1),
                    });
                    next_open.push((left.3, right.3, traps.len() - 1));
                }
                i += 2;
            }
            std::mem::swap(&mut open, &mut next_open);
        }
    }
}

/// The six fields' bit patterns: `-0.0` and `0.0` differ, NaNs compare.
fn bits(traps: &[Trapezoid]) -> Vec<[u64; 6]> {
    traps
        .iter()
        .map(|t| [t.y_lo, t.y_hi, t.x_lo.0, t.x_lo.1, t.x_hi.0, t.x_hi.1].map(f64::to_bits))
        .collect()
}

/// The count `TrStarStore::build` sizes its trapezoid column by, summed
/// over a relation: vertices plus holes.
fn capacity(region: &PolygonWithHoles) -> usize {
    region.num_vertices() + region.holes().len()
}

/// Checks one region: the sweep equals the reference bit for bit and,
/// for a valid region, stays under one trapezoid per vertex plus one per
/// hole beyond the first. Returns the trapezoid count.
fn check(region: &PolygonWithHoles, what: &str) -> Result<usize, String> {
    let want = reference::decompose(region);
    let got = decompose(region);
    if bits(&got) != bits(&want) {
        return Err(format!("{what}: sweep {got:?}\nreference {want:?}"));
    }
    if region_is_valid(region) && got.len() >= capacity(region) {
        return Err(format!(
            "{what}: {} trapezoids from {} vertices and {} holes",
            got.len(),
            region.num_vertices(),
            region.holes().len()
        ));
    }
    Ok(got.len())
}

/// Every object of `relation` through [`check`], and through the
/// column of a store built over the whole relation (one decomposer
/// reused across every object). Returns the largest trapezoids-per-vertex
/// ratio.
fn check_relation(relation: &Relation, name: &str) -> f64 {
    let store = TrStarStore::build(relation, 6);
    let columns = store.columns();
    let mut worst = 0.0f64;
    for (id, o) in relation.iter().enumerate() {
        let what = format!("{name} object {id}");
        let n = check(&o.region, &what).unwrap_or_else(|why| panic!("{why}"));
        let column = columns.get(id as msj_geom::ObjectId).trapezoids();
        assert_eq!(
            bits(column),
            bits(&decompose(&o.region)),
            "{what} in the store"
        );
        worst = worst.max(n as f64 / o.region.num_vertices() as f64);
    }
    println!("{name}: worst trapezoids per vertex {worst:.3}");
    worst
}

#[test]
fn sweep_repeats_the_band_scan_on_the_generated_relations() {
    let skewed = msj_datagen::skewed_carto(10_000, 24.0, 1);
    assert!(check_relation(&skewed, "skewed_carto(10k, 24, 1)") <= 1.0);
    let holed = msj_datagen::carto_with_holes(2_000, 40.0, 1);
    assert!(
        holed
            .iter()
            .filter(|o| !o.region.holes().is_empty())
            .count()
            > 300
    );
    assert!(check_relation(&holed, "carto_with_holes(2k, 40, 1)") <= 1.0);
    let bw = msj_datagen::bw_like(1);
    assert!(check_relation(&bw, "bw_like(1)") <= 1.0);
}

fn region(outer: &[(f64, f64)], holes: &[&[(f64, f64)]]) -> PolygonWithHoles {
    let ring = |c: &[(f64, f64)]| {
        Polygon::new(c.iter().map(|&(x, y)| Point::new(x, y)).collect()).expect("ring")
    };
    PolygonWithHoles::new(ring(outer), holes.iter().map(|h| ring(h)).collect())
}

#[test]
fn sweep_repeats_the_band_scan_on_degenerate_cases() {
    let cases = [
        (
            "horizontal edges: a square",
            region(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)], &[]),
        ),
        (
            "horizontal edges: a notched rectangle",
            region(
                &[
                    (0.0, 0.0),
                    (4.0, 0.0),
                    (4.0, 1.0),
                    (1.0, 1.0),
                    (1.0, 3.0),
                    (4.0, 3.0),
                    (4.0, 4.0),
                    (0.0, 4.0),
                ],
                &[],
            ),
        ),
        (
            "collinear runs on every side",
            region(
                &[
                    (0.0, 0.0),
                    (1.0, 0.0),
                    (2.0, 0.0),
                    (2.0, 1.0),
                    (2.0, 2.0),
                    (1.0, 2.0),
                    (0.0, 2.0),
                    (0.0, 1.0),
                ],
                &[],
            ),
        ),
        (
            "a collinear slanted run",
            region(
                &[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (0.0, 3.0)],
                &[],
            ),
        ),
        (
            "outer and hole vertices sharing y's",
            region(
                &[
                    (0.0, 0.0),
                    (6.0, 0.0),
                    (7.0, 2.0),
                    (6.0, 4.0),
                    (7.0, 6.0),
                    (0.0, 6.0),
                ],
                &[&[(2.0, 2.0), (4.0, 2.0), (3.0, 4.0)]],
            ),
        ),
        (
            "two holes level with each other and the outer ring",
            region(
                &[(0.0, 0.0), (9.0, 0.0), (10.0, 2.0), (9.0, 5.0), (0.0, 5.0)],
                &[
                    &[(1.0, 2.0), (3.0, 2.0), (3.0, 3.0), (1.0, 3.0)],
                    &[(5.0, 2.0), (7.0, 2.0), (6.0, 3.0)],
                ],
            ),
        ),
        (
            "a hole touching the outer ring at a vertex",
            region(
                &[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (-1.0, 2.0)],
                &[&[(-1.0, 2.0), (2.0, 1.0), (2.0, 3.0)]],
            ),
        ),
        (
            "a needle 1e-12 tall",
            region(
                &[
                    (0.0, 0.0),
                    (1.0, 0.0),
                    (1.0, 0.5),
                    (9.0, 0.5 + 0.5e-12),
                    (1.0, 0.5 + 1e-12),
                    (1.0, 1.0),
                    (0.0, 1.0),
                ],
                &[],
            ),
        ),
        (
            "edges level at mid-band: a bow tie",
            region(
                &[(0.0, 0.0), (2.0, 2.0), (3.0, 2.0), (3.0, 0.0), (-1.0, 2.0)],
                &[],
            ),
        ),
        (
            // Counter-clockwise as given, so edge 0, (2, 3)-(0, 1), joins a
            // band above edge 2, (0, 3)-(3, 0), and meets it at (1, 2).
            "edges level at mid-band, joined in different bands",
            region(
                &[(2.0, 3.0), (0.0, 1.0), (0.0, 3.0), (3.0, 0.0), (3.0, 3.0)],
                &[],
            ),
        ),
        (
            // The outer ring's left edge bounds a trapezoid on the left,
            // then (inside the overlap) on the right, then on the left again.
            "a hole straddling the outer ring's edge",
            region(
                &[(0.0, 0.0), (10.0, 0.0), (10.0, 3.0), (0.0, 3.0)],
                &[&[(-1.0, 1.0), (1.0, 1.0), (1.0, 2.0), (-1.0, 2.0)]],
            ),
        ),
        (
            "a hole sharing an edge with the outer ring",
            region(
                &[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)],
                &[&[(0.0, 1.0), (2.0, 2.0), (0.0, 3.0)]],
            ),
        ),
        (
            "one vertex y: no band",
            region(&[(0.0, 0.1), (0.3, 0.1), (2.9, 0.1)], &[]),
        ),
        (
            "negative zero next to zero",
            region(&[(-0.0, -0.0), (2.0, 0.0), (1.0, 1.0), (-1.0, 0.0)], &[]),
        ),
    ];
    for (what, r) in &cases {
        check(r, what).unwrap_or_else(|why| panic!("{why}"));
    }
    let store = TrStarStore::from_regions(cases.iter().map(|(_, r)| r), 3);
    for (id, (what, r)) in cases.iter().enumerate() {
        let column = store.get(id as msj_geom::ObjectId).trapezoids();
        assert_eq!(
            bits(column),
            bits(&reference::decompose(r)),
            "{what} in the store"
        );
    }
}

/// A star-shaped ring of `n` vertices around `c`, radii in `[lo, 1] · r`,
/// y's snapped to multiples of `snap` when it is positive (which makes
/// shared y's, horizontal edges and collinear runs).
fn star(rng: &mut StdRng, c: Point, r: f64, lo: f64, n: usize, snap: f64) -> Option<Polygon> {
    let ring = (0..n)
        .map(|i| {
            let t = (i as f64 + rng.gen_range(0.0..0.8)) / n as f64 * std::f64::consts::TAU;
            let rho = r * rng.gen_range(lo..1.0);
            let y = c.y + rho * t.sin();
            let y = if snap > 0.0 {
                (y / snap).round() * snap
            } else {
                y
            };
            Point::new(c.x + rho * t.cos(), y)
        })
        .collect();
    Polygon::new(ring).ok()
}

/// `kind` 0: a generated blob with a carved lake. Otherwise an outer star
/// of radius 10 with `holes` (up to nine) stars of radius 1.5 at distinct
/// points of a 3 × 3 grid 3.5 apart, every y snapped to `snap`.
fn holed(seed: u64, kind: u8, n: usize, holes: usize, snap: f64) -> Option<PolygonWithHoles> {
    let mut rng = StdRng::seed_from_u64(seed);
    if kind == 0 {
        let params = BlobParams {
            vertices: n,
            radius: 3.0,
            ..BlobParams::default()
        };
        let outer = blob(&mut rng, Point::new(0.0, 0.0), &params);
        return Some(carve_hole(&mut rng, outer, &HoleParams::default()));
    }
    let outer = star(&mut rng, Point::new(0.0, 0.0), 10.0, 0.8, n, snap)?;
    let mut spots: Vec<usize> = (0..9).collect();
    let mut rings = Vec::new();
    for _ in 0..holes {
        let spot = spots.swap_remove(rng.gen_range(0..spots.len()));
        let c = Point::new((spot % 3) as f64 * 3.5 - 3.5, (spot / 3) as f64 * 3.5 - 3.5);
        let m = rng.gen_range(3..12);
        rings.push(star(&mut rng, c, 1.5, 0.5, m, snap)?);
    }
    Some(PolygonWithHoles::new(outer, rings))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn sweep_repeats_the_band_scan_on_holed_regions(
        seed in any::<u64>(),
        kind in 0u8..3,
        n in 6usize..80,
        holes in 0usize..5,
        snap in 0usize..3,
    ) {
        let snap = if kind == 2 { [0.0, 0.25, 1.0][snap] } else { 0.0 };
        let Some(r) = holed(seed, kind, n, holes, snap) else {
            return Ok(());
        };
        if let Err(why) = check(&r, "region") {
            prop_assert!(false, "{} (seed {}, kind {}, n {}, holes {}, snap {})", why, seed, kind, n, holes, snap);
        }
    }
}

/// The bound is exact: every valid generated star region with distinct
/// vertex y's gets `v + h − 1` trapezoids, for each hole count `h`.
#[test]
fn the_bound_is_met_exactly_in_general_position() {
    let mut valid = [0usize; 5];
    for seed in 0..400u64 {
        let holes = (seed % 5) as usize;
        let Some(r) = holed(seed, 1, 6 + (seed % 40) as usize, holes, 0.0) else {
            continue;
        };
        if !region_is_valid(&r) {
            continue;
        }
        let n = check(&r, "star").unwrap_or_else(|why| panic!("{why}"));
        assert_eq!(
            n + 1,
            r.num_vertices() + holes,
            "seed {seed}, {holes} holes"
        );
        valid[holes] += 1;
    }
    assert!(
        valid.iter().all(|&n| n > 40),
        "valid regions per hole count: {valid:?}"
    );
}

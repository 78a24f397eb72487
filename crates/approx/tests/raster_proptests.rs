//! Property tests for the raster-interval signatures: the two invariants
//! that make the Step-2a decisions *sound* must hold on arbitrary
//! generated shapes —
//!
//! * **FULL soundness** — every FULL cell is contained in the closed
//!   region (otherwise a raster Hit could claim an intersection that
//!   does not exist);
//! * **coverage** — every region point lies in a stored (FULL ∪ PARTIAL)
//!   cell (otherwise a raster Drop could discard an intersecting pair).
//!
//! Exercised on cartographic blobs, holed regions, slivers, and
//! polygons with collinear vertex runs.
//!
//! Both halves of the A/F form are then held to the code they replaced,
//! which survives only here, as test oracles:
//!
//! * **decide** — [`raster_decide`] (binary searches over A and F
//!   lists) ≡ the linear merge over one class-tagged list ≡ a brute-force
//!   intersection of the cell sets, on seeded random list pairs of every
//!   length ratio the join sees and on the shapes a search gets wrong
//!   first (empty lists, touching runs, overlap only at the far end);
//! * **rasterize** — [`rasterize`] (margin rule over each edge's rows,
//!   then one parity probe per Hilbert gap between PARTIAL runs) ≡ the
//!   per-cell statement of the classification, each stored cell's
//!   [`hilbert_index`], a sort and a run merge.

use msj_approx::raster::{
    hilbert_cell, hilbert_index, raster_decide, rasterize, CellRun, RasterDecision, RasterGrid,
    RasterSignature, Rasterizer, MAX_GRID_BITS, MIN_GRID_BITS,
};
use msj_datagen::{blob, BlobParams};
use msj_geom::{Point, Polygon, PolygonWithHoles, Rect};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Deterministic blob region from a proptest-chosen seed.
fn blob_region(seed: u64, vertices: usize) -> PolygonWithHoles {
    let params = BlobParams {
        vertices,
        radius: 3.0,
        ..BlobParams::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    blob(&mut rng, Point::new(0.0, 0.0), &params).into()
}

/// A holed region from the holed-workload generator.
fn holed_region(seed: u64) -> PolygonWithHoles {
    let rel = msj_datagen::carto_with_holes(4, 20.0, seed);
    rel.object(0).region.clone()
}

/// A thin sliver: a needle quad with aspect ratio ~1e3.
fn sliver_region(seed: u64) -> PolygonWithHoles {
    let mut rng = StdRng::seed_from_u64(seed);
    let angle: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    let len: f64 = rng.gen_range(2.0..10.0);
    let along = Point::new(angle.cos(), angle.sin()) * len;
    let across = Point::new(-angle.sin(), angle.cos()) * (len * 1e-3);
    let origin = Point::new(rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0));
    Polygon::new(vec![
        origin,
        origin + along,
        origin + along + across,
        origin + across,
    ])
    .unwrap()
    .into()
}

/// A rectangle with collinear vertex runs on two edges (the constructor
/// rejects fully collinear rings; runs inside a valid ring must still
/// rasterize soundly).
fn collinear_region(seed: u64) -> PolygonWithHoles {
    let s = 1.0 + (seed % 7) as f64;
    Polygon::new(vec![
        Point::new(0.0, 0.0),
        Point::new(s, 0.0),
        Point::new(2.0 * s, 0.0),
        Point::new(3.0 * s, 0.0),
        Point::new(3.0 * s, s),
        Point::new(1.5 * s, s),
        Point::new(0.0, s),
    ])
    .unwrap()
    .into()
}

/// The grid a join would lay over this region plus some margin slack, at
/// a proptest-chosen resolution.
fn grid_for(region: &PolygonWithHoles, bits: u32, pad: f64) -> RasterGrid {
    let mbr = region.mbr();
    RasterGrid::new(
        Rect::from_bounds(
            mbr.xmin() - pad,
            mbr.ymin() - pad,
            mbr.xmax() + pad,
            mbr.ymax() + pad,
        ),
        bits,
    )
}

/// Cell ids of an `(A, F)` list pair, with per-cell class.
fn signature_cells(all: &[CellRun], full: &[CellRun]) -> Vec<(u32, bool)> {
    let mut out = Vec::new();
    for run in all {
        for d in run.start..run.end {
            out.push((d, full.iter().any(|f| f.start <= d && d < f.end)));
        }
    }
    out
}

/// Oracle for `cell ⊆ region`: no boundary edge enters the cell's
/// interior (grazing contact along the cell boundary keeps the closed
/// cell covered) and center + corners are inside.
fn cell_inside(region: &PolygonWithHoles, cell: &Rect) -> bool {
    let ex = cell.width() * 1e-9;
    let ey = cell.height() * 1e-9;
    let interior = Rect::from_bounds(
        cell.xmin() + ex,
        cell.ymin() + ey,
        cell.xmax() - ex,
        cell.ymax() - ey,
    );
    !region.edges().any(|e| e.intersects_rect(&interior))
        && region.contains_point(cell.center())
        && cell.corners().iter().all(|&c| region.contains_point(c))
}

/// Asserts both soundness invariants for one region on one grid.
fn assert_sound(
    region: &PolygonWithHoles,
    grid: &RasterGrid,
    seed: u64,
) -> Result<(), TestCaseError> {
    let (all, full) = rasterize(grid, region);
    prop_assert!(
        !all.is_empty(),
        "positive-area region rasterized to nothing"
    );
    let cells = signature_cells(&all, &full);
    let stored: HashSet<u32> = cells.iter().map(|&(d, _)| d).collect();
    prop_assert_eq!(stored.len(), cells.len(), "duplicate cells in signature");

    // FULL soundness.
    let n = grid.cells_per_axis();
    let mut pos = std::collections::HashMap::new();
    for cy in 0..n {
        for cx in 0..n {
            pos.insert(hilbert_index(grid.bits(), cx, cy), (cx, cy));
        }
    }
    for &(d, full) in &cells {
        if full {
            let (cx, cy) = pos[&d];
            prop_assert!(
                cell_inside(region, &grid.cell_rect(cx, cy)),
                "FULL cell ({cx},{cy}) escapes the region (seed {seed})"
            );
        }
    }

    // Coverage: boundary vertices and sampled interior points must map
    // to stored cells.
    let cell_of = |p: Point| {
        let (cx0, cy0, cx1, cy1) = grid.cell_range(&Rect::new(p, p));
        prop_assert_eq!((cx0, cy0), (cx1, cy1));
        Ok(hilbert_index(grid.bits(), cx0, cy0))
    };
    for e in region.edges() {
        for t in [0.0, 0.37, 1.0] {
            let p = e.a + (e.b - e.a) * t;
            prop_assert!(
                stored.contains(&cell_of(p)?),
                "boundary point {p:?} in no stored cell (seed {seed})"
            );
        }
    }
    let mbr = region.mbr();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut sampled = 0;
    for _ in 0..256 {
        let p = Point::new(
            rng.gen_range(mbr.xmin()..=mbr.xmax()),
            rng.gen_range(mbr.ymin()..=mbr.ymax()),
        );
        if region.contains_point(p) {
            sampled += 1;
            prop_assert!(
                stored.contains(&cell_of(p)?),
                "interior point {p:?} in no stored cell (seed {seed})"
            );
        }
    }
    prop_assert!(sampled > 0 || region.area() < mbr.area() * 0.05);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn blob_signatures_are_sound(
        seed in 0u64..4000,
        vertices in 8usize..48,
        bits in MIN_GRID_BITS..=7u32,
    ) {
        let region = blob_region(seed, vertices);
        assert_sound(&region, &grid_for(&region, bits, 0.5), seed)?;
    }

    #[test]
    fn holed_signatures_are_sound(seed in 0u64..2000, bits in 3u32..=7) {
        let region = holed_region(seed);
        assert_sound(&region, &grid_for(&region, bits, 0.5), seed)?;
    }

    #[test]
    fn sliver_signatures_are_sound(seed in 0u64..2000, bits in 3u32..=8) {
        let region = sliver_region(seed);
        assert_sound(&region, &grid_for(&region, bits, 0.25), seed)?;
    }

    #[test]
    fn collinear_signatures_are_sound(seed in 0u64..64, bits in 3u32..=7) {
        let region = collinear_region(seed);
        assert_sound(&region, &grid_for(&region, bits, 0.25), seed)?;
    }

    #[test]
    fn grids_clamp_to_supported_resolutions(bits in 0u32..=20) {
        let g = RasterGrid::new(Rect::from_bounds(0.0, 0.0, 1.0, 1.0), bits);
        prop_assert!(g.bits() >= MIN_GRID_BITS && g.bits() <= MAX_GRID_BITS);
    }
}

// ---- decide: A/F binary searches ≡ linear merge ≡ brute force ----

/// One run of the pre-A/F signature: consecutive cells sharing a class.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TaggedRun {
    start: u32,
    end: u32,
    full: bool,
}

/// The linear merge-intersect [`raster_decide`] replaced, verbatim: both
/// class-tagged lists walked in step, whichever run ends first advances.
fn linear_merge_decide(xs: &[TaggedRun], ys: &[TaggedRun]) -> RasterDecision {
    let (mut i, mut j) = (0usize, 0usize);
    let mut overlapped = false;
    while i < xs.len() && j < ys.len() {
        let (x, y) = (xs[i], ys[j]);
        if x.start.max(y.start) < x.end.min(y.end) {
            if x.full || y.full {
                return RasterDecision::Hit;
            }
            overlapped = true;
        }
        if x.end <= y.end {
            i += 1;
        } else {
            j += 1;
        }
    }
    if overlapped {
        RasterDecision::Inconclusive
    } else {
        RasterDecision::Drop
    }
}

/// Cell by cell over the whole curve: 0 = absent, 1 = PARTIAL, 2 = FULL.
fn brute_force_decide(xs: &[TaggedRun], ys: &[TaggedRun], cells: u32) -> RasterDecision {
    let paint = |runs: &[TaggedRun]| {
        let mut classes = vec![0u8; cells as usize];
        for r in runs {
            classes[r.start as usize..r.end as usize].fill(1 + r.full as u8);
        }
        classes
    };
    let (cx, cy) = (paint(xs), paint(ys));
    let shared = || cx.iter().zip(&cy).filter(|(&x, &y)| x > 0 && y > 0);
    if shared().any(|(&x, &y)| x == 2 || y == 2) {
        RasterDecision::Hit
    } else if shared().next().is_some() {
        RasterDecision::Inconclusive
    } else {
        RasterDecision::Drop
    }
}

/// The canonical `(A, F)` lists of a class-tagged list: A coalesces every
/// touching pair of runs, F the touching FULL ones.
fn af_lists(tagged: &[TaggedRun]) -> (Vec<CellRun>, Vec<CellRun>) {
    fn push(list: &mut Vec<CellRun>, start: u32, end: u32) {
        match list.last_mut() {
            Some(last) if last.end == start => last.end = end,
            _ => list.push(CellRun { start, end }),
        }
    }
    let (mut all, mut full) = (Vec::new(), Vec::new());
    for r in tagged {
        push(&mut all, r.start, r.end);
        if r.full {
            push(&mut full, r.start, r.end);
        }
    }
    (all, full)
}

/// `n` sorted, non-overlapping class-tagged runs inside `lo..hi`: gaps of
/// zero (touching runs, of either class mix) are as likely as any other.
fn random_tagged(rng: &mut StdRng, n: usize, lo: u32, hi: u32, full_share: f64) -> Vec<TaggedRun> {
    let stride = ((hi - lo) as usize / n.max(1)).max(2) as u32;
    let mut out = Vec::with_capacity(n);
    let mut at = lo;
    for _ in 0..n {
        let start = at + rng.gen_range(0..stride / 2 + 1);
        let end = start + rng.gen_range(1..stride / 2 + 1);
        if end > hi {
            break;
        }
        out.push(TaggedRun {
            start,
            end,
            full: rng.gen_bool(full_share),
        });
        at = end;
    }
    out
}

/// All three deciders on one pair, both operand orders.
fn assert_deciders_agree(xs: &[TaggedRun], ys: &[TaggedRun], cells: u32, what: &str) {
    let (xa, xf) = af_lists(xs);
    let (ya, yf) = af_lists(ys);
    let x = RasterSignature::from_lists(&xa, &xf);
    let y = RasterSignature::from_lists(&ya, &yf);
    let truth = brute_force_decide(xs, ys, cells);
    assert_eq!(linear_merge_decide(xs, ys), truth, "{what}: linear merge");
    assert_eq!(
        linear_merge_decide(ys, xs),
        truth,
        "{what}: linear merge, swapped"
    );
    assert_eq!(raster_decide(x, y), truth, "{what}: raster_decide");
    assert_eq!(raster_decide(y, x), truth, "{what}: raster_decide, swapped");
}

#[test]
fn decide_agrees_with_linear_merge_and_brute_force_at_every_length_ratio() {
    const CELLS: u32 = 1 << 16;
    let mut rng = StdRng::seed_from_u64(0xA1F0);
    let mut seen = [0usize; 3];
    for ratio in [1usize, 2, 7, 30, 100, 1000] {
        for short_len in [1usize, 2, 5, 8] {
            for round in 0..24 {
                // The short list sits in a random window of the curve so
                // that the long list has runs before, inside and after it.
                let span = rng.gen_range(CELLS / 64..CELLS);
                let lo = rng.gen_range(0..CELLS - span + 1);
                let full_share = [0.0, 0.3, 0.9][round % 3];
                let short = random_tagged(&mut rng, short_len, lo, lo + span, full_share);
                let long = random_tagged(&mut rng, short_len * ratio, 0, CELLS, full_share);
                let what = format!("ratio 1:{ratio}, short {short_len}, round {round}");
                assert_deciders_agree(&short, &long, CELLS, &what);
                seen[brute_force_decide(&short, &long, CELLS) as usize] += 1;
            }
        }
    }
    assert!(
        seen.iter().all(|&n| n > 20),
        "every decision must be exercised: {seen:?}"
    );
}

#[test]
fn decide_agrees_on_the_shapes_a_search_gets_wrong_first() {
    const CELLS: u32 = 1 << 12;
    let run = |start, end, full| TaggedRun { start, end, full };
    // 1000 PARTIAL runs `4k..4k+2`, and the same with a FULL last run.
    let comb: Vec<TaggedRun> = (0..1000).map(|k| run(4 * k, 4 * k + 2, false)).collect();
    let mut comb_full_tail = comb.clone();
    comb_full_tail.last_mut().unwrap().full = true;
    let cases: Vec<(&str, Vec<TaggedRun>)> = vec![
        ("empty", vec![]),
        // `end == start` on both sides of every gap it sits in.
        (
            "touching",
            vec![run(2, 4, true), run(6, 8, true), run(3994, 3996, true)],
        ),
        ("one cell in", vec![run(2, 5, false)]),
        ("last run only", vec![run(3997, 3998, false)]),
        ("last gap only", vec![run(3998, 4000, true)]),
        ("past the end", vec![run(4000, 4096, true)]),
        ("whole curve", vec![run(0, CELLS, false)]),
        ("whole curve, full", vec![run(0, CELLS, true)]),
        // PARTIAL and FULL runs touching: A coalesces them, F does not.
        (
            "mixed touching",
            vec![run(0, 1, false), run(1, 2, true), run(2, 4, false)],
        ),
    ];
    for long in [&comb, &comb_full_tail] {
        for (name, short) in &cases {
            assert_deciders_agree(short, long, CELLS, name);
        }
    }
    for (name_x, xs) in &cases {
        for (name_y, ys) in &cases {
            assert_deciders_agree(xs, ys, CELLS, &format!("{name_x} × {name_y}"));
        }
    }
}

// ---- rasterize ≡ per-cell oracle + per-cell index + sort ----

/// The classification [`rasterize`] replaced, as a per-cell statement
/// over the region's MBR block: a cell is PARTIAL when an edge whose cell
/// range contains it intersects it (`Segment::intersects_rect`), and
/// otherwise FULL when its centre has odd even–odd parity (half-open
/// crossings strictly left of the centre). The edge loop and the row's
/// crossings are hoisted out of the cell loop; every cell still gets its
/// own test. Returns each stored cell's [`hilbert_index`] and class.
fn classify_per_cell(grid: &RasterGrid, region: &PolygonWithHoles) -> Vec<(u32, bool)> {
    let (cx0, cy0, cx1, cy1) = grid.cell_range(&region.mbr());
    let w = (cx1 - cx0 + 1) as usize;
    let mut partial = vec![false; w * (cy1 - cy0 + 1) as usize];
    for e in region.edges() {
        let (ex0, ey0, ex1, ey1) = grid.cell_range(&e.mbr());
        // A cell whose centre lies off the edge's line by more than its
        // diagonal is at least half a diagonal away from the line, which
        // dwarfs the rounding of `intersects_rect` on every grid of this
        // file (its cells are 8/4096 or larger, the rounding ~1e-6 at a
        // 1e9 offset): skip it.
        let (dir, len) = (e.b - e.a, e.a.dist(e.b));
        for cy in ey0..=ey1 {
            for cx in ex0..=ex1 {
                let cell = grid.cell_rect(cx, cy);
                let off = (cell.center() - e.a).cross(dir).abs() / len;
                if off <= cell.width().hypot(cell.height()) && e.intersects_rect(&cell) {
                    partial[(cy - cy0) as usize * w + (cx - cx0) as usize] = true;
                }
            }
        }
    }
    let mut out = Vec::new();
    for cy in cy0..=cy1 {
        let y = grid.cell_rect(cx0, cy).center().y;
        let crossings: Vec<f64> = region
            .edges()
            .filter(|e| (e.a.y > y) != (e.b.y > y))
            .map(|e| e.a.x + (y - e.a.y) / (e.b.y - e.a.y) * (e.b.x - e.a.x))
            .collect();
        for cx in cx0..=cx1 {
            let centre = grid.cell_rect(cx, cy).center();
            let partial = partial[(cy - cy0) as usize * w + (cx - cx0) as usize];
            let odd = crossings.iter().filter(|&&c| c < centre.x).count() % 2 == 1;
            if partial || odd {
                out.push((hilbert_index(grid.bits(), cx, cy), !partial));
            }
        }
    }
    out
}

/// The oracle's `(A, F)` lists: its cells sorted by Hilbert id, merged
/// into class-tagged runs, then split into the canonical lists.
fn oracle_lists(grid: &RasterGrid, region: &PolygonWithHoles) -> (Vec<CellRun>, Vec<CellRun>) {
    let mut cells = classify_per_cell(grid, region);
    cells.sort_unstable_by_key(|&(d, _)| d);
    let mut runs: Vec<TaggedRun> = Vec::new();
    for (d, full) in cells {
        match runs.last_mut() {
            Some(last) if last.end == d && last.full == full => last.end = d + 1,
            _ => runs.push(TaggedRun {
                start: d,
                end: d + 1,
                full,
            }),
        }
    }
    af_lists(&runs)
}

/// [`rasterize`] against the oracle on one region. Canonical lists are a
/// unique encoding of their cell sets, so list equality is cell-for-cell
/// equality; a divergence is reported by cell.
fn assert_rasterize_agrees(grid: &RasterGrid, region: &PolygonWithHoles, what: &str) {
    let got = rasterize(grid, region);
    let want = oracle_lists(grid, region);
    if got != want {
        let cells = |(all, full): &(Vec<CellRun>, Vec<CellRun>)| -> HashSet<(u32, u32, bool)> {
            signature_cells(all, full)
                .into_iter()
                .map(|(d, full)| {
                    let (cx, cy) = hilbert_cell(grid.bits(), d);
                    (cx, cy, full)
                })
                .collect()
        };
        let (got, want) = (cells(&got), cells(&want));
        let extra: Vec<_> = got.difference(&want).take(4).collect();
        let missing: Vec<_> = want.difference(&got).take(4).collect();
        panic!("{what}: rasterize diverged; extra {extra:?}, missing {missing:?}");
    }
}

/// The crossing slivers of `tests/raster_agreement.rs`.
fn needle_regions() -> Vec<PolygonWithHoles> {
    let needle = |x0: f64, y0: f64, dx: f64, dy: f64| -> PolygonWithHoles {
        let along = Point::new(dx, dy);
        let across = along.perp().normalized().unwrap() * 1e-3;
        Polygon::new(vec![
            Point::new(x0, y0),
            Point::new(x0 + along.x, y0 + along.y),
            Point::new(x0 + along.x + across.x, y0 + along.y + across.y),
            Point::new(x0 + across.x, y0 + across.y),
        ])
        .unwrap()
        .into()
    };
    (0..12)
        .flat_map(|i| {
            let t = i as f64 / 12.0 * std::f64::consts::TAU;
            let u = (i as f64 + 0.5) / 12.0 * std::f64::consts::TAU;
            [
                needle(0.0, 0.0, 10.0 * t.cos(), 10.0 * t.sin()),
                needle(
                    5.0 * u.cos(),
                    5.0 * u.sin(),
                    -10.0 * u.sin(),
                    10.0 * u.cos(),
                ),
            ]
        })
        .collect()
}

/// The shapes that stress the run and gap structure: whole cartographic
/// relations on their own world (objects far apart on the curve), the
/// needles (long PARTIAL stretches, no FULL cell), an object covering the
/// whole grid (one run) and one inside a single cell.
#[test]
fn rasterize_emits_the_oracle_lists_on_the_emission_shapes() {
    let regions_of = |rel: msj_geom::Relation| -> Vec<PolygonWithHoles> {
        rel.iter().map(|o| o.region.clone()).collect()
    };
    let workloads: Vec<(&str, Vec<PolygonWithHoles>)> = vec![
        (
            "small_carto",
            regions_of(msj_datagen::small_carto(24, 24.0, 41)),
        ),
        (
            "skewed_carto",
            regions_of(msj_datagen::skewed_carto(24, 24.0, 45)),
        ),
        (
            "carto_with_holes",
            regions_of(msj_datagen::carto_with_holes(16, 20.0, 43)),
        ),
        ("needles", needle_regions()),
    ];
    for bits in [2u32, 5, 9, 12] {
        for (name, regions) in &workloads {
            let world = Rect::bounding_rects(regions.iter().map(|r| r.mbr())).unwrap();
            let grid = RasterGrid::new(world, bits);
            for (i, region) in regions.iter().enumerate() {
                assert_rasterize_agrees(&grid, region, &format!("{name}[{i}] at {bits} bits"));
            }
        }
        // An object covering the whole grid, and one inside a single cell
        // (of the finest grid, away from every cell boundary).
        let world = Rect::from_bounds(0.0, 0.0, 8.0, 8.0);
        let grid = RasterGrid::new(world, bits);
        let whole = rect_region(0.0, 0.0, 8.0, 8.0);
        assert_eq!(
            rasterize(&grid, &whole).0,
            [CellRun {
                start: 0,
                end: 1 << (2 * bits)
            }]
        );
        assert_rasterize_agrees(&grid, &whole, &format!("whole grid at {bits} bits"));
        let cell = 8.0 / 4096.0;
        let speck = rect_region(
            5.0 + 0.25 * cell,
            3.0 + 0.25 * cell,
            5.0 + 0.75 * cell,
            3.0 + 0.75 * cell,
        );
        let (all, full) = rasterize(&grid, &speck);
        assert_eq!((all.len(), full.len()), (1, 0), "speck at {bits} bits");
        assert_eq!(all[0].end - all[0].start, 1);
        assert_rasterize_agrees(&grid, &speck, &format!("speck at {bits} bits"));
    }
}

/// Appending to arenas that already hold other objects' runs must neither
/// touch nor coalesce with them, even when the curve positions touch.
#[test]
fn emission_never_coalesces_across_objects() {
    let grid = RasterGrid::new(Rect::from_bounds(0.0, 0.0, 8.0, 8.0), 3);
    // Hilbert cells 0..4 (the lower-left 2×2 block) and 4..8 (the block
    // to its right: the curve enters the lower-left quadrant transposed).
    let first = rasterize(&grid, &rect_region(0.1, 0.1, 1.9, 1.9));
    let second = rasterize(&grid, &rect_region(2.1, 0.1, 3.9, 1.9));
    assert_eq!((first.0[0].start, first.0[0].end), (0, 4));
    assert_eq!((second.0[0].start, second.0[0].end), (4, 8));
    let (mut all, mut full) = (first.0.clone(), first.1.clone());
    Rasterizer::default().append(&grid, &rect_region(2.1, 0.1, 3.9, 1.9), &mut all, &mut full);
    assert_eq!(all, [first.0, second.0].concat());
    assert_eq!(full, [first.1, second.1].concat());
}

/// The gap rule's edge cases: a region strictly larger than its grid has
/// no PARTIAL cell on it, so the leading gap is the whole curve and is
/// FULL; in a holed region and a U the curve leaves the block, or enters
/// the hole or the notch, between boundary runs, and a gap of interior
/// cells can start at a cell the curve reaches from outside the block.
#[test]
fn gaps_decide_by_their_first_cell() {
    for bits in [2u32, 4, 7] {
        let grid = RasterGrid::new(Rect::from_bounds(0.0, 0.0, 8.0, 8.0), bits);
        let cells = 1 << (2 * bits);
        let beyond = rect_region(-1.0, -1.0, 9.0, 9.0);
        let (all, full) = rasterize(&grid, &beyond);
        let whole = [CellRun {
            start: 0,
            end: cells,
        }];
        assert_eq!(
            (&all[..], &full[..]),
            (&whole[..], &whole[..]),
            "{bits} bits"
        );
        assert_rasterize_agrees(&grid, &beyond, &format!("beyond the grid at {bits} bits"));
    }
    let holed = PolygonWithHoles::new(
        Polygon::new(Rect::from_bounds(0.3, 0.3, 7.7, 7.7).corners().to_vec()).unwrap(),
        vec![Polygon::new(Rect::from_bounds(2.2, 2.2, 5.8, 5.8).corners().to_vec()).unwrap()],
    );
    let u = Polygon::new(
        [
            (1.3, 0.7),
            (6.6, 0.7),
            (6.6, 7.4),
            (4.9, 7.4),
            (4.9, 2.1),
            (3.1, 2.1),
            (3.1, 7.4),
            (1.3, 7.4),
        ]
        .iter()
        .map(|&(x, y)| Point::new(x, y))
        .collect(),
    )
    .unwrap()
    .into();
    for offset in [Point::new(0.0, 0.0), Point::new(-1e9, 1e9)] {
        for (name, region) in [("holed", &holed), ("U", &u)] {
            let region = region.translated(offset);
            for bits in 2..=9 {
                let world = Rect::from_bounds(0.0, 0.0, 8.0, 8.0).translated(offset);
                let grid = RasterGrid::new(world, bits);
                let what = format!("{name} {offset:?} at {bits} bits");
                assert_rasterize_agrees(&grid, &region, &what);
                // From 5 bits on, the hole or notch holds empty gaps that
                // start inside the block, and the curve leaves the block
                // between runs. An empty gap is one between two A runs.
                let (all, full) = rasterize(&grid, &region);
                let (cx0, cy0, cx1, cy1) = grid.cell_range(&region.mbr());
                let in_block = |d: u32| {
                    let (cx, cy) = hilbert_cell(bits, d);
                    (cx0..=cx1).contains(&cx) && (cy0..=cy1).contains(&cy)
                };
                let gaps: Vec<u32> = all.windows(2).map(|pair| pair[0].end).collect();
                if bits >= 5 {
                    assert!(gaps.iter().any(|&d| in_block(d)), "{what}: no inner gap");
                    assert!(gaps.iter().any(|&d| !in_block(d)), "{what}: no outer gap");
                    assert!(!full.is_empty(), "{what}: no FULL gap");
                }
            }
        }
    }
}

// ---- the margin rule + gap parity ≡ per-cell oracle ----

/// An axis-parallel rectangle region.
fn rect_region(x0: f64, y0: f64, x1: f64, y1: f64) -> PolygonWithHoles {
    Polygon::new(Rect::from_bounds(x0, y0, x1, y1).corners().to_vec())
        .unwrap()
        .into()
}

/// Shapes laid on the lattice of `[0, 8]²`: rectangles whose edges lie
/// on cell lines (integer ones at every resolution, quarter ones from 5
/// bits), a square holed by another, diamonds and a triangle whose
/// vertices sit on grid corners (their diagonals pass exactly through
/// corners), and an L whose horizontal edge at `y = 4.0625` lies on a
/// cell line at 8 bits and inside a row at coarser grids.
fn lattice_regions() -> Vec<PolygonWithHoles> {
    let poly = |pts: &[(f64, f64)]| -> PolygonWithHoles {
        Polygon::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect())
            .unwrap()
            .into()
    };
    let holed = PolygonWithHoles::new(
        Polygon::new(Rect::from_bounds(1.0, 1.0, 7.0, 7.0).corners().to_vec()).unwrap(),
        vec![Polygon::new(Rect::from_bounds(3.0, 3.0, 5.0, 5.0).corners().to_vec()).unwrap()],
    );
    vec![
        rect_region(0.0, 0.0, 8.0, 8.0),
        rect_region(2.0, 1.0, 6.0, 7.0),
        rect_region(3.5, 0.25, 4.0, 7.75),
        holed,
        poly(&[(4.0, 0.0), (8.0, 4.0), (4.0, 8.0), (0.0, 4.0)]),
        poly(&[(4.0, 1.0), (7.0, 4.0), (4.0, 7.0), (1.0, 4.0)]),
        poly(&[(1.0, 1.0), (7.0, 1.0), (1.0, 7.0)]),
        poly(&[
            (0.5, 0.5),
            (7.5, 0.5),
            (7.5, 4.0625),
            (3.0, 4.0625),
            (3.0, 7.5),
            (0.5, 7.5),
        ]),
    ]
}

/// Star-shaped polygons whose vertices sit on the `1/4` lattice of
/// `[0, 8]²`, at every slope the lattice offers: at 8 bits each edge
/// crosses row lines exactly on (or, off the origin, within a few ulps
/// of) cell corners, where a rule without its margin answers wrongly.
fn lattice_stars(count: u64) -> Vec<PolygonWithHoles> {
    let centre = Point::new(4.1, 3.9);
    (0..count)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut vertices: Vec<(f64, Point)> = Vec::new();
            while vertices.len() < 9 {
                let p = Point::new(
                    rng.gen_range(0..=32) as f64 / 4.0,
                    rng.gen_range(0..=32) as f64 / 4.0,
                );
                let angle = (p.y - centre.y).atan2(p.x - centre.x);
                if vertices.iter().all(|&(a, _)| (a - angle).abs() > 0.05) {
                    vertices.push((angle, p));
                }
            }
            vertices.sort_by(|a, b| a.0.total_cmp(&b.0));
            Polygon::new(vertices.into_iter().map(|(_, p)| p).collect())
                .unwrap()
                .into()
        })
        .collect()
}

/// Every shape family of this file on its own grid and on the lattice,
/// at `origin` and at `±1e9` (where the margin, which scales with |x|,
/// is ≈ 1.4e-5 — no longer negligible against 1/256 cells), on a dyadic
/// offset that keeps lattice coordinates exact and on one that rounds
/// them.
#[test]
fn rasterize_agrees_with_the_per_cell_oracle() {
    let mut shapes: Vec<(String, PolygonWithHoles, f64)> = Vec::new();
    for seed in 0..24u64 {
        shapes.push((
            format!("blob {seed}"),
            blob_region(seed, 8 + seed as usize * 2),
            0.5,
        ));
        shapes.push((format!("holed {seed}"), holed_region(seed), 0.5));
        shapes.push((format!("sliver {seed}"), sliver_region(seed), 0.25));
    }
    for seed in 0..7u64 {
        shapes.push((format!("collinear {seed}"), collinear_region(seed), 0.25));
    }
    for (i, needle) in needle_regions().into_iter().enumerate() {
        shapes.push((format!("needle {i}"), needle, 0.25));
    }
    let offsets = [
        Point::new(0.0, 0.0),
        Point::new(1e9, -1e9),
        Point::new(-1e9, 1e9),
        Point::new(1e9 + 0.1, 1e9 - 0.3),
        Point::new(-0.7, 0.3),
    ];
    for offset in offsets {
        for (name, region, pad) in &shapes {
            let region = region.translated(offset);
            for bits in [3u32, 5, 7] {
                let grid = grid_for(&region, bits, *pad);
                assert_rasterize_agrees(&grid, &region, &format!("{name} {offset:?} {bits}"));
            }
        }
        let world = Rect::from_bounds(0.0, 0.0, 8.0, 8.0).translated(offset);
        let lattice = lattice_regions().into_iter().chain(lattice_stars(48));
        for (i, region) in lattice.enumerate() {
            let region = region.translated(offset);
            for bits in [3u32, 4, 6, 8] {
                let grid = RasterGrid::new(world, bits);
                assert_rasterize_agrees(&grid, &region, &format!("lattice {i} {offset:?} {bits}"));
            }
        }
    }
}

/// Coordinates an ulp off a cell line that the quotient
/// `(v − origin) / cell` rounds across the line, on rows and on columns,
/// in both directions. [`RasterGrid::cell_range`] must put them where the
/// sides of [`RasterGrid::cell_rect`] do: an edge an ulp above a line lies
/// in the row above it, and an edge an ulp below one in the row below.
/// On each such line: a triangle whose top vertex is an ulp below it, and
/// a rectangle and a holed square whose top edge, or whose hole's top
/// edge, is an ulp above it (turned a quarter for columns). Each agrees
/// with the oracle, stores no cell outside its MBR block, keeps its FULL
/// cells inside the region, and stores the cells above a top edge an ulp
/// over the line, which the region enters.
#[test]
fn coordinates_the_quotient_rounds_across_a_cell_line_stay_exact() {
    let (mut below, mut above) = ([0; 2], [0; 2]);
    // The quotient rounds across a line only where the world's offset is
    // not large against its size, and above one only where the cell lines
    // `offset + r · size / 256` themselves round: not on a dyadic size.
    let worlds = [
        (8.0, [0.3, -0.7, -7.9]),
        (10.1, [-0.7, -1.3, -3.7]),
        (3.3, [-0.7, -1.3, -3.7]),
    ];
    for (size, offsets) in worlds {
        for offset in offsets {
            let world =
                Rect::from_bounds(0.0, 0.0, size, size).translated(Point::new(offset, offset));
            let grid = RasterGrid::new(world, 8);
            let (origin, cell) = (world.xmin(), size / 256.0);
            let quotient = |v: f64| ((v - origin) / cell).floor();
            for (axis, columns) in [(0, false), (1, true)] {
                // `at(u, v)`: `v` across the lines of this axis, `u` along them.
                let at = |u: f64, v: f64| {
                    if columns {
                        Point::new(v, u)
                    } else {
                        Point::new(u, v)
                    }
                };
                let index = |p: Point| {
                    let (cx0, cy0, cx1, cy1) = grid.cell_range(&Rect::new(p, p));
                    assert_eq!((cx0, cy0), (cx1, cy1));
                    if columns {
                        cx0
                    } else {
                        cy0
                    }
                };
                let u = |k: u32| grid.cell_rect(k, k).center().x;
                let polygon = |pts: &[(f64, f64)]| {
                    Polygon::new(pts.iter().map(|&(u, v)| at(u, v)).collect()).unwrap()
                };
                for r in 40..240 {
                    let line = grid.cell_rect(r, r).ymin();
                    let (down, up) = (line.next_down(), line.next_up());
                    assert_eq!(
                        [
                            index(at(u(100), down)),
                            index(at(u(100), line)),
                            index(at(u(100), up))
                        ],
                        [r - 1, r, r],
                        "world {size} at {offset}, axis {axis}, line {r}"
                    );
                    let mut regions: Vec<(&str, PolygonWithHoles)> = Vec::new();
                    if quotient(down) == r as f64 {
                        below[axis] += 1;
                        let tip = [
                            (u(100) - 15.7 * cell, down - 23.3 * cell),
                            (u(100) + 8.6 * cell, down - 31.1 * cell),
                        ];
                        regions.push((
                            "triangle",
                            polygon(&[tip[0], tip[1], (u(100), down)]).into(),
                        ));
                    }
                    if quotient(up) == r as f64 - 1.0 {
                        above[axis] += 1;
                        let (u0, u1, v0) = (u(90), u(110), up - 10.4 * cell);
                        regions.push((
                            "rectangle",
                            polygon(&[(u0, v0), (u1, v0), (u1, up), (u0, up)]).into(),
                        ));
                        let (o0, o1, w0, w1) = (u(80), u(120), v0 - 3.3 * cell, up + 7.4 * cell);
                        regions.push((
                            "holed square",
                            PolygonWithHoles::new(
                                polygon(&[(o0, w0), (o1, w0), (o1, w1), (o0, w1)]),
                                vec![polygon(&[(u0, v0), (u1, v0), (u1, up), (u0, up)])],
                            ),
                        ));
                    }
                    for (name, region) in regions {
                        let what =
                            format!("{name}, world {size} at {offset}, axis {axis}, line {r}");
                        assert_rasterize_agrees(&grid, &region, &what);
                        let (all, full) = rasterize(&grid, &region);
                        let (cx0, cy0, cx1, cy1) = grid.cell_range(&region.mbr());
                        for (d, is_full) in signature_cells(&all, &full) {
                            let (cx, cy) = hilbert_cell(grid.bits(), d);
                            let cell = grid.cell_rect(cx, cy);
                            assert!(
                                (cx0..=cx1).contains(&cx) && (cy0..=cy1).contains(&cy),
                                "{what}: cell ({cx}, {cy}) outside the block"
                            );
                            assert!(
                                !is_full || cell_inside(&region, &cell),
                                "{what}: FULL cell ({cx}, {cy}) leaves the region"
                            );
                        }
                        if name == "rectangle" {
                            let sliver = at(u(100), up);
                            let (cx, cy, _, _) = grid.cell_range(&Rect::new(sliver, sliver));
                            let d = hilbert_index(grid.bits(), cx, cy);
                            assert!(
                            all.iter().any(|a| a.start <= d && d < a.end),
                            "{what}: the cell above the line, which the region enters, is not stored"
                        );
                        }
                    }
                }
            }
        }
    }
    // Both directions occur on both axes.
    assert!(
        below.iter().all(|&n| n > 100) && above.iter().all(|&n| n > 10),
        "lines rounded across: below {below:?}, above {above:?}"
    );
}

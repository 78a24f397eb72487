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
//! * **emit** — the Hilbert-quadrant descent ≡ per-cell
//!   [`hilbert_index`] + sort + run merge over the same class grid.

use msj_approx::raster::{
    hilbert_index, raster_decide, rasterize, CellRun, RasterDecision, RasterGrid, RasterSignature,
    Rasterizer, MAX_GRID_BITS, MIN_GRID_BITS,
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

// ---- emit: Hilbert-quadrant descent ≡ per-cell index + sort ----

/// The emission step [`Rasterizer::emit`] replaced, verbatim: every
/// stored cell of the class grid gets its [`hilbert_index`], the cells
/// are sorted, and consecutive cells of one class merge into a run.
fn emit_by_sort(bits: u32, block: &Rasterizer) -> Vec<TaggedRun> {
    let mut cells: Vec<(u32, bool)> = block
        .cells()
        .map(|(cx, cy, full)| (hilbert_index(bits, cx, cy), full))
        .collect();
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
    runs
}

/// Descent and sort path on one region. Canonical lists are a unique
/// encoding of their cell sets, so list equality is cell-for-cell
/// equality.
fn assert_emission_agrees(grid: &RasterGrid, region: &PolygonWithHoles, what: &str) {
    let mut block = Rasterizer::default();
    block.classify(grid, region);
    let (mut all, mut full) = (Vec::new(), Vec::new());
    block.emit(&mut all, &mut full);
    let expect = af_lists(&emit_by_sort(grid.bits(), &block));
    assert!(all == expect.0, "{what}: A list diverged");
    assert!(full == expect.1, "{what}: F list diverged");
    assert_eq!((all, full), rasterize(grid, region), "{what}: rasterize");
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

#[test]
fn quadrant_descent_emits_what_the_sort_path_emitted() {
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
                assert_emission_agrees(&grid, region, &format!("{name}[{i}] at {bits} bits"));
            }
        }
        // An object covering the whole grid, and one inside a single cell
        // (of the finest grid, away from every cell boundary).
        let world = Rect::from_bounds(0.0, 0.0, 8.0, 8.0);
        let grid = RasterGrid::new(world, bits);
        let rect =
            |r: Rect| -> PolygonWithHoles { Polygon::new(r.corners().to_vec()).unwrap().into() };
        assert_emission_agrees(&grid, &rect(world), &format!("whole grid at {bits} bits"));
        let cell = 8.0 / 4096.0;
        let speck = Rect::from_bounds(
            5.0 + 0.25 * cell,
            3.0 + 0.25 * cell,
            5.0 + 0.75 * cell,
            3.0 + 0.75 * cell,
        );
        let (all, full) = rasterize(&grid, &rect(speck));
        assert_eq!((all.len(), full.len()), (1, 0), "speck at {bits} bits");
        assert_eq!(all[0].end - all[0].start, 1);
        assert_emission_agrees(&grid, &rect(speck), &format!("speck at {bits} bits"));
    }
}

/// Appending to arenas that already hold other objects' runs must neither
/// touch nor coalesce with them, even when the curve positions touch.
#[test]
fn emission_never_coalesces_across_objects() {
    let grid = RasterGrid::new(Rect::from_bounds(0.0, 0.0, 8.0, 8.0), 3);
    let rect = |x0, y0, x1, y1| -> PolygonWithHoles {
        Polygon::new(Rect::from_bounds(x0, y0, x1, y1).corners().to_vec())
            .unwrap()
            .into()
    };
    // Hilbert cells 0..4 (the lower-left 2×2 block) and 4..8 (the block
    // to its right: the curve enters the lower-left quadrant transposed).
    let first = rasterize(&grid, &rect(0.1, 0.1, 1.9, 1.9));
    let second = rasterize(&grid, &rect(2.1, 0.1, 3.9, 1.9));
    assert_eq!((first.0[0].start, first.0[0].end), (0, 4));
    assert_eq!((second.0[0].start, second.0[0].end), (4, 8));
    let mut block = Rasterizer::default();
    let (mut all, mut full) = (first.0.clone(), first.1.clone());
    block.classify(&grid, &rect(2.1, 0.1, 3.9, 1.9));
    block.emit(&mut all, &mut full);
    assert_eq!(all, [first.0, second.0].concat());
    assert_eq!(full, [first.1, second.1].concat());
}

// ---- classify: margin rule + span fill ≡ per-cell oracle ----

/// The classification [`Rasterizer::classify`] replaced, as a per-cell
/// statement: a cell is PARTIAL when an edge whose cell range contains it
/// intersects it (`Segment::intersects_rect`), and otherwise FULL when
/// its centre has odd even–odd parity (half-open crossings strictly left
/// of the centre). Row-major over the region's block, like
/// [`Rasterizer::cells`].
fn classify_per_cell(grid: &RasterGrid, region: &PolygonWithHoles) -> Vec<(u32, u32, bool)> {
    let (cx0, cy0, cx1, cy1) = grid.cell_range(&region.mbr());
    let edges: Vec<_> = region.edges().collect();
    let ranges: Vec<_> = edges.iter().map(|e| grid.cell_range(&e.mbr())).collect();
    let mut out = Vec::new();
    for cy in cy0..=cy1 {
        for cx in cx0..=cx1 {
            let cell = grid.cell_rect(cx, cy);
            let partial = edges.iter().zip(&ranges).any(|(e, &(ex0, ey0, ex1, ey1))| {
                (ex0..=ex1).contains(&cx) && (ey0..=ey1).contains(&cy) && e.intersects_rect(&cell)
            });
            let centre = cell.center();
            let crossings = edges
                .iter()
                .filter(|e| {
                    (e.a.y > centre.y) != (e.b.y > centre.y)
                        && e.a.x + (centre.y - e.a.y) / (e.b.y - e.a.y) * (e.b.x - e.a.x) < centre.x
                })
                .count();
            if partial || crossings % 2 == 1 {
                out.push((cx, cy, !partial));
            }
        }
    }
    out
}

fn assert_classification_agrees(grid: &RasterGrid, region: &PolygonWithHoles, what: &str) {
    let mut block = Rasterizer::default();
    block.classify(grid, region);
    let got: Vec<_> = block.cells().collect();
    let want = classify_per_cell(grid, region);
    if got != want {
        let diff: Vec<_> = got.iter().filter(|c| !want.contains(c)).take(4).collect();
        let missing: Vec<_> = want.iter().filter(|c| !got.contains(c)).take(4).collect();
        panic!("{what}: classification diverged; extra {diff:?}, missing {missing:?}");
    }
}

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
fn classify_agrees_with_the_per_cell_oracle() {
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
                assert_classification_agrees(&grid, &region, &format!("{name} {offset:?} {bits}"));
            }
        }
        let world = Rect::from_bounds(0.0, 0.0, 8.0, 8.0).translated(offset);
        let lattice = lattice_regions().into_iter().chain(lattice_stars(48));
        for (i, region) in lattice.enumerate() {
            let region = region.translated(offset);
            for bits in [3u32, 4, 6, 8] {
                let grid = RasterGrid::new(world, bits);
                assert_classification_agrees(
                    &grid,
                    &region,
                    &format!("lattice {i} {offset:?} {bits}"),
                );
            }
        }
    }
}

/// Regions whose top vertex lies one ulp below a row line that the grid's
/// own row lookup rounds it onto: that row is in the edges' cell ranges,
/// but its band misses them, so the rasterizer must skip it rather than
/// read a point span there as a hit.
#[test]
fn rows_that_the_row_lookup_rounds_onto_are_skipped() {
    let mut found = 0;
    // The lookup rounds onto a line only where the world's offset is not
    // large against its size.
    for offset in [0.3, -0.7, -7.9] {
        let world = Rect::from_bounds(0.0, 0.0, 8.0, 8.0).translated(Point::new(offset, offset));
        let grid = RasterGrid::new(world, 8);
        for r in 1..256 {
            let line = grid.cell_rect(0, r).ymin();
            let below = line.next_down();
            let x = grid.cell_rect(100, r).center().x;
            let top = Point::new(x, below);
            if grid.cell_range(&Rect::new(top, top)).1 != r {
                continue;
            }
            found += 1;
            let region: PolygonWithHoles = Polygon::new(vec![
                Point::new(x - 0.5, below - 0.75),
                Point::new(x + 0.25, below - 1.0),
                top,
            ])
            .unwrap()
            .into();
            assert_classification_agrees(&grid, &region, &format!("offset {offset}, row {r}"));
        }
    }
    assert!(found > 100, "only {found} row lines round");
}

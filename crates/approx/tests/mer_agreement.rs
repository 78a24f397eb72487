//! The pruned MER search of `msj_approx::mer` against the search it
//! replaced: the parent commit's all-bands loop (and its sort-per-vertex
//! anchor scan), kept here verbatim as the reference. Every rectangle
//! must come out bit for bit the same, the stored MER column must hash
//! to what the parent wrote, and the prune must actually prune.

use msj_approx::{
    longest_horizontal_chord, max_enclosed_rect, max_enclosed_rect_counted, MerSearchStats,
    ProgressiveKind, ProgressiveStore,
};
use msj_geom::{fnv1a64, Point, Polygon, PolygonWithHoles, Rect, Relation, Segment};

/// `crates/approx/src/mer.rs` as of the parent commit (PR 12), private
/// helpers included, unchanged.
#[allow(clippy::all)]
mod reference {
    use msj_geom::{Point, PolygonWithHoles, Rect, Segment};

    /// The longest enclosed horizontal segment that starts at a vertex of the
    /// region ("the anchor"). Returns `None` for degenerate regions where no
    /// vertex admits a horizontal extension.
    pub fn longest_horizontal_chord(region: &PolygonWithHoles) -> Option<Segment> {
        let edges: Vec<Segment> = region.edges().collect();
        let mut best: Option<Segment> = None;
        let mut best_len = 0.0f64;

        let vertices: Vec<Point> = region
            .outer()
            .vertices()
            .iter()
            .chain(region.holes().iter().flat_map(|h| h.vertices().iter()))
            .copied()
            .collect();

        for &v in &vertices {
            // Collect crossing abscissae of the horizontal line y = v.y.
            let mut xs: Vec<f64> = Vec::new();
            for e in &edges {
                let (y1, y2) = (e.a.y, e.b.y);
                if (y1 - v.y) * (y2 - v.y) < 0.0 {
                    // Proper crossing.
                    let t = (v.y - y1) / (y2 - y1);
                    xs.push(e.a.x + t * (e.b.x - e.a.x));
                } else if y1 == v.y && y2 != v.y {
                    xs.push(e.a.x);
                }
                // (Edges lying entirely on the line contribute their endpoints
                // via the adjacent edges.)
            }
            xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            // Extend right: nearest crossing right of v.
            for &x in xs.iter() {
                if x > v.x + 1e-12 {
                    let candidate = Segment::new(v, Point::new(x, v.y));
                    let mid = candidate.a.midpoint(candidate.b);
                    if region.contains_point(mid) && candidate.len() > best_len {
                        best_len = candidate.len();
                        best = Some(candidate);
                    }
                    break;
                }
            }
            // Extend left: nearest crossing left of v.
            for &x in xs.iter().rev() {
                if x < v.x - 1e-12 {
                    let candidate = Segment::new(Point::new(x, v.y), v);
                    let mid = candidate.a.midpoint(candidate.b);
                    if region.contains_point(mid) && candidate.len() > best_len {
                        best_len = candidate.len();
                        best = Some(candidate);
                    }
                    break;
                }
            }
        }
        best
    }

    /// Computes the paper-style maximum enclosed rectangle.
    ///
    /// `max_levels` caps the candidate y-levels per side of the anchor
    /// (quantile selection); 0 means the library default of 48. Returns `None`
    /// when no positive-area enclosed rectangle intersecting the anchor
    /// exists (never the case for the generated datasets).
    pub fn max_enclosed_rect(region: &PolygonWithHoles, max_levels: usize) -> Option<Rect> {
        let anchor = longest_horizontal_chord(region)?;
        let y_a = anchor.a.y;
        let (ax1, ax2) = (anchor.a.x.min(anchor.b.x), anchor.a.x.max(anchor.b.x));
        let max_levels = if max_levels == 0 { 48 } else { max_levels };

        let edges: Vec<Segment> = region.edges().collect();

        // Candidate y levels from vertex coordinates, split around the anchor.
        let mut ys: Vec<f64> = region
            .outer()
            .vertices()
            .iter()
            .chain(region.holes().iter().flat_map(|h| h.vertices().iter()))
            .map(|p| p.y)
            .collect();
        // Supplement sparse vertex grids (low-complexity polygons) with evenly
        // spaced levels so an enclosed rectangle always exists; for the
        // paper's many-vertex cartography objects the vertex levels dominate.
        let mbr = region.mbr();
        for i in 1..16 {
            ys.push(mbr.ymin() + mbr.height() * i as f64 / 16.0);
        }
        ys.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        ys.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let lows: Vec<f64> = quantile_cap(
            ys.iter().copied().filter(|&y| y <= y_a).collect(),
            max_levels,
        );
        let highs: Vec<f64> = quantile_cap(
            ys.iter().copied().filter(|&y| y >= y_a).collect(),
            max_levels,
        );

        let mut best: Option<Rect> = None;
        let mut best_area = 0.0f64;
        let mut blocked: Vec<(f64, f64)> = Vec::new();

        for &ylo in &lows {
            for &yhi in &highs {
                if yhi - ylo <= 1e-12 {
                    continue;
                }
                // Upper bound check: even the full MBR width cannot beat best.
                let mbr = region.mbr();
                if (yhi - ylo) * mbr.width() <= best_area {
                    continue;
                }
                blocked.clear();
                collect_blocked_intervals(&edges, ylo, yhi, &mut blocked);
                blocked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));

                // Walk the gaps between blocked intervals.
                let mut x_cursor = f64::NEG_INFINITY;
                let mut idx = 0;
                loop {
                    // Merge all intervals starting before the cursor.
                    let mut gap_end = f64::INFINITY;
                    while idx < blocked.len() && blocked[idx].0 <= x_cursor {
                        x_cursor = x_cursor.max(blocked[idx].1);
                        idx += 1;
                    }
                    if idx < blocked.len() {
                        gap_end = blocked[idx].0;
                    }
                    // Free interval is (x_cursor, gap_end).
                    if x_cursor.is_finite() && gap_end > x_cursor {
                        let x1 = x_cursor;
                        let x2 = if gap_end.is_finite() {
                            gap_end
                        } else {
                            x_cursor
                        };
                        if x2 > x1 {
                            consider_rect(
                                region,
                                x1,
                                x2,
                                ylo,
                                yhi,
                                y_a,
                                ax1,
                                ax2,
                                &mut best,
                                &mut best_area,
                            );
                        }
                    }
                    if idx >= blocked.len() {
                        break;
                    }
                    x_cursor = blocked[idx].1.max(x_cursor);
                    idx += 1;
                }
            }
        }
        best
    }

    /// Keeps at most `cap` values, evenly spread over the sorted input.
    fn quantile_cap(values: Vec<f64>, cap: usize) -> Vec<f64> {
        if values.len() <= cap {
            return values;
        }
        let n = values.len();
        (0..cap).map(|i| values[i * (n - 1) / (cap - 1)]).collect()
    }

    /// For the horizontal band `(ylo, yhi)`, appends for every edge crossing
    /// the band's open interior its x-extent within the band.
    fn collect_blocked_intervals(edges: &[Segment], ylo: f64, yhi: f64, out: &mut Vec<(f64, f64)>) {
        for e in edges {
            let (ey_min, ey_max) = (e.a.y.min(e.b.y), e.a.y.max(e.b.y));
            // Edge must pass through the open band interior.
            if ey_max <= ylo || ey_min >= yhi {
                continue;
            }
            // Clip edge to the band.
            let x_at = |y: f64| -> f64 {
                if (e.b.y - e.a.y).abs() < 1e-300 {
                    e.a.x
                } else {
                    e.a.x + (y - e.a.y) / (e.b.y - e.a.y) * (e.b.x - e.a.x)
                }
            };
            let y1 = ey_min.max(ylo);
            let y2 = ey_max.min(yhi);
            if ey_min == ey_max {
                // Horizontal edge strictly inside the band blocks its span.
                out.push((e.a.x.min(e.b.x), e.a.x.max(e.b.x)));
            } else {
                let xa = x_at(y1);
                let xb = x_at(y2);
                out.push((xa.min(xb), xa.max(xb)));
            }
        }
    }

    /// Registers the rectangle `[x1,x2]×[ylo,yhi]` if it is enclosed,
    /// anchor-intersecting and larger than the current best.
    #[allow(clippy::too_many_arguments)]
    fn consider_rect(
        region: &PolygonWithHoles,
        x1: f64,
        x2: f64,
        ylo: f64,
        yhi: f64,
        y_a: f64,
        ax1: f64,
        ax2: f64,
        best: &mut Option<Rect>,
        best_area: &mut f64,
    ) {
        // Must overlap the anchor segment (band already spans y_a by
        // construction, but guard anyway).
        if y_a < ylo || y_a > yhi {
            return;
        }
        if x2 < ax1 || x1 > ax2 {
            return;
        }
        let area = (x2 - x1) * (yhi - ylo);
        if area <= *best_area {
            return;
        }
        // Final containment check: the band gap logic guarantees no edge
        // crosses the rect interior; one interior sample decides in/out.
        let mid = Point::new(0.5 * (x1 + x2), 0.5 * (ylo + yhi));
        if region.contains_point(mid) {
            *best = Some(Rect::from_bounds(x1, ylo, x2, yhi));
            *best_area = area;
        }
    }
}

fn rect_bits(r: Option<Rect>) -> Option<[u64; 4]> {
    r.map(|r| {
        [
            r.xmin().to_bits(),
            r.ymin().to_bits(),
            r.xmax().to_bits(),
            r.ymax().to_bits(),
        ]
    })
}

fn segment_bits(s: Option<Segment>) -> Option<[u64; 4]> {
    s.map(|s| {
        [
            s.a.x.to_bits(),
            s.a.y.to_bits(),
            s.b.x.to_bits(),
            s.b.y.to_bits(),
        ]
    })
}

/// Asserts anchor and rectangle equal the reference's on every object;
/// returns the band counters of the pruned search.
fn assert_agrees(name: &str, relation: &Relation) -> MerSearchStats {
    let mut stats = MerSearchStats::default();
    let mut differing = 0usize;
    for o in relation.iter() {
        assert_eq!(
            segment_bits(longest_horizontal_chord(&o.region)),
            segment_bits(reference::longest_horizontal_chord(&o.region)),
            "{name}: anchor of object {}",
            o.id
        );
        let new = max_enclosed_rect_counted(&o.region, &mut stats);
        let old = reference::max_enclosed_rect(&o.region, 0);
        differing += usize::from(rect_bits(new) != rect_bits(old));
    }
    assert_eq!(differing, 0, "{name}: differing rectangles");
    assert!(stats.bands_evaluated <= stats.bands_considered);
    stats
}

#[test]
fn pruned_search_is_bit_identical_on_skewed_carto_and_prunes() {
    for seed in [1, 2] {
        let rel = msj_datagen::skewed_carto(10_000, 24.0, seed);
        let stats = assert_agrees("skewed_carto", &rel);
        assert!(
            stats.bands_evaluated * 4 < stats.bands_considered,
            "seed {seed}: evaluated {} of {} bands",
            stats.bands_evaluated,
            stats.bands_considered
        );
    }
}

#[test]
fn pruned_search_is_bit_identical_on_the_other_generators() {
    assert_agrees(
        "small_carto 2k/40",
        &msj_datagen::small_carto(2_000, 40.0, 1),
    );
    assert_agrees(
        "small_carto 400/12",
        &msj_datagen::small_carto(400, 12.0, 2),
    );
    assert_agrees(
        "carto_with_holes 2k/24",
        &msj_datagen::carto_with_holes(2_000, 24.0, 1),
    );
    assert_agrees(
        "large_relation 5k",
        &msj_datagen::large_relation(5_000, 0, 1),
    );
}

type Coords = &'static [(f64, f64)];
type CoordMap = fn((f64, f64)) -> (f64, f64);

/// `outer` minus `holes`, every coordinate mapped through `f`. The maps
/// used below are exact in `f64`, so equal areas stay exactly equal.
fn region(outer: Coords, holes: &[Coords], f: CoordMap) -> PolygonWithHoles {
    let ring = |coords: Coords| {
        Polygon::new(
            coords
                .iter()
                .map(|&c| f(c))
                .map(|(x, y)| Point::new(x, y))
                .collect(),
        )
        .unwrap()
    };
    PolygonWithHoles::new(ring(outer), holes.iter().map(|&h| ring(h)).collect())
}

/// Shapes whose best area is reached by several bands or gaps at once,
/// so the explicit (ylo index, yhi index, gap number) tie-break decides.
#[test]
fn equal_area_candidates_resolve_as_in_the_reference() {
    const SQUARE: Coords = &[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)];
    // Horizontal and vertical bar of a plus sign: 6 × 2 each.
    const PLUS: Coords = &[
        (2.0, 0.0),
        (4.0, 0.0),
        (4.0, 2.0),
        (6.0, 2.0),
        (6.0, 4.0),
        (4.0, 4.0),
        (4.0, 6.0),
        (2.0, 6.0),
        (2.0, 4.0),
        (0.0, 4.0),
        (0.0, 2.0),
        (2.0, 2.0),
    ];
    // Both arms 6 × 2.
    const L_SHAPE: Coords = &[
        (0.0, 0.0),
        (6.0, 0.0),
        (6.0, 2.0),
        (2.0, 2.0),
        (2.0, 6.0),
        (0.0, 6.0),
    ];
    // A centred hole leaves a 3 × 4 arm on either side of it (two gaps
    // of one band) and 8 × 1.5 strips above and below.
    const SLAB: Coords = &[(0.0, 0.0), (8.0, 0.0), (8.0, 4.0), (0.0, 4.0)];
    const HOLE: Coords = &[(3.0, 1.5), (5.0, 1.5), (5.0, 2.5), (3.0, 2.5)];
    let shapes: [(&str, Coords, &[Coords]); 4] = [
        ("square", SQUARE, &[]),
        ("plus", PLUS, &[]),
        ("l-shape", L_SHAPE, &[]),
        ("arms around a hole", SLAB, &[HOLE]),
    ];
    // Mirrors and the transpose move which of the tied candidates comes
    // first in (ylo, yhi, gap) order.
    let maps: [(&str, CoordMap); 4] = [
        ("as is", |c| c),
        ("mirrored in x", |(x, y)| (-x, y)),
        ("mirrored in y", |(x, y)| (x, -y)),
        ("transposed", |(x, y)| (y, x)),
    ];
    for (name, outer, holes) in shapes {
        for (how, f) in maps {
            let region = region(outer, holes, f);
            let new = max_enclosed_rect(&region);
            assert!(new.is_some(), "{name} {how}");
            assert_eq!(
                rect_bits(new),
                rect_bits(reference::max_enclosed_rect(&region, 0)),
                "{name} {how}"
            );
        }
    }
}

/// The MER column, pinned without keeping any old code: FNV-1a of its
/// little-endian scalars (each rectangle's bounds in turn, as the store's
/// former `progressive` section held them), captured at the parent commit
/// (PR 12).
#[test]
fn mer_column_hashes_to_the_parent_commits_bytes() {
    let rel = msj_datagen::skewed_carto(1_500, 24.0, 7);
    let store = ProgressiveStore::build(ProgressiveKind::Mer, &rel);
    let column = store.mer_column().expect("a MER store");
    let bytes: Vec<u8> = column
        .iter()
        .flat_map(|r| r.bounds())
        .flat_map(f64::to_le_bytes)
        .collect();
    assert_eq!(bytes.len(), 48_000);
    assert_eq!(fnv1a64(&bytes), 0xa273_668d_e2ac_534c);
}

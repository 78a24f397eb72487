//! Maximum enclosed rectangle (MER) — the progressive rectangle
//! approximation (§3.3).
//!
//! The paper restricts the search to rectangles that (1) intersect the
//! longest enclosed horizontal connection starting in a vertex ("the
//! anchor") and (2) have coordinates drawn from the vertex coordinates.
//! We implement the same anchored band search. Two substitutions, both
//! made because the paper gives the restriction but not the algorithm:
//! our rectangles' x-extents come from exact edge/band contact (a
//! superset of the vertex-coordinate grid that is still strictly
//! enclosed), and the candidate y-levels are the vertex ordinates plus
//! 15 evenly spaced ones, quantile-capped at [`MAX_LEVELS_PER_SIDE`] per
//! side of the anchor so that a many-vertex polygon costs a bounded
//! number of bands.
//!
//! # The search, and why pruning it is exact
//!
//! A *band* is a pair (ylo, yhi) of candidate levels with
//! `ylo ≤ y_anchor ≤ yhi`; `i` indexes the low levels and `k` the high
//! levels, both ascending. Inside a band every edge through the open
//! band interior blocks its clipped x-extent; a *gap* is a bounded
//! component of what the blocked intervals leave free, and a gap that
//! overlaps the anchor and whose centre lies in the region is a
//! candidate rectangle. The result is the candidate of maximum area
//! `(x2 − x1) · (yhi − ylo)`; among candidates of exactly equal area the
//! one first in (`i`, `k`, gap number left → right) order wins. That is
//! what a plain loop over every band in that order with a strict `>`
//! returns, and `tests/mer_agreement.rs` keeps such a loop as the
//! reference.
//!
//! Evaluating a band costs a scan of every edge, and almost no band can
//! win. If band′ ⊇ band then every edge blocking band blocks band′ over a
//! superset of its x-extent (the interpolation `x_at` is monotone in `y`,
//! also after rounding, because every operation in it is), so every free
//! component of band′ lies inside a free component of band, overlaps the
//! anchor only if that one does, and is no wider. Let `W[i][k]` be the
//! width of the widest anchor-overlapping free component of band
//! (`i`, `k`), an unbounded component counting with the part of it
//! inside the MBR (no edge, hence no gap of any band, reaches outside
//! the MBR by more than interpolation rounding, which a slack term
//! covers). Then
//!
//! ```text
//! W[i][k] ≤ min(W[i+1][k], W[i][k−1], mbr.width)
//! ```
//!
//! so a sweep that visits bands thin → tall from the anchor outwards
//! (`i` descending, `k` ascending) knows, before it scans a band, a
//! bound on every gap in it: a band whose `height · bound` is *strictly*
//! below the best area so far cannot hold the winner or tie with it, is
//! skipped, and passes the bound on. (`mbr.width` is the reference
//! loop's own bound; like that loop, the search takes for granted that
//! no gap is wider than the MBR.) The sweep runs once per stride of
//! `PASS_STRIDES`, coarse sub-grids first, all passes sharing one
//! table of bounds: a coarse pass costs a few scans and leaves a
//! near-best area for the full pass to prune against.
//!
//! Because this visits bands in another order than the reference loop,
//! the tie rule above is applied explicitly: an equal-area candidate
//! replaces the best when its (`i`, `k`) comes first, and the strict `<`
//! in the prune never skips a band that could still tie. The per-edge
//! arithmetic and the centre test are the reference's, so the returned
//! `Rect` is the same bit for bit; the centre test runs only for a gap
//! that would replace the best.

use msj_geom::{Point, PolygonWithHoles, Rect, Segment};

/// Candidate y-levels kept per side of the anchor. 48 keeps every level
/// of an object of up to ~80 vertices; beyond that more levels would
/// find a marginally larger rectangle at quadratically more bands.
pub const MAX_LEVELS_PER_SIDE: usize = 48;

/// The band grid is swept thin → tall once per stride, coarse sub-grids
/// first: they find a near-best rectangle early, so the final full sweep
/// (stride 1, which visits every band) prunes against it. Measured on
/// `skewed_carto(10_000, 24.0, 1)`: 6 % of bands evaluated against 10 %
/// for the full sweep alone, and a third of the region membership tests.
const PASS_STRIDES: [usize; 4] = [8, 4, 2, 1];

/// How much of the band grid one MER search touched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MerSearchStats {
    /// Bands of positive height — what an unpruned search evaluates.
    pub bands_considered: u64,
    /// Bands whose edges were actually scanned.
    pub bands_evaluated: u64,
}

/// The longest enclosed horizontal segment that starts at a vertex of the
/// region ("the anchor"). Returns `None` for degenerate regions where no
/// vertex admits a horizontal extension.
pub fn longest_horizontal_chord(region: &PolygonWithHoles) -> Option<Segment> {
    let mut scratch = MerScratch::default();
    scratch.load(region);
    scratch.anchor_chord(region)
}

/// Reusable working memory of one MER search: the region's edges and
/// vertices, the anchor sweep's orders and chords, the candidate levels
/// and the band grid's bounds. [`crate::ProgressiveStore::build`] runs one
/// of these over a whole relation without allocating per object.
#[derive(Debug, Default)]
pub(crate) struct MerScratch {
    edges: Vec<Segment>,
    /// The vertices of the outer ring, then of every hole.
    vertices: Vec<Point>,
    rising: Vec<u32>,
    upwards: Vec<u32>,
    active: Vec<u32>,
    chords: Vec<(f64, f64)>,
    ys: Vec<f64>,
    lows: Vec<f64>,
    highs: Vec<f64>,
    bound: Vec<f64>,
    evaluated: Vec<bool>,
    near: Vec<(f64, f64)>,
}

impl MerScratch {
    /// Takes in `region`'s edges and vertices.
    fn load(&mut self, region: &PolygonWithHoles) {
        self.edges.clear();
        self.edges.extend(region.edges());
        self.vertices.clear();
        let holes = region.holes().iter().flat_map(|h| h.vertices().iter());
        self.vertices
            .extend(region.outer().vertices().iter().chain(holes));
    }

    /// The anchor of the loaded `region` (see [`longest_horizontal_chord`]).
    fn anchor_chord(&mut self, region: &PolygonWithHoles) -> Option<Segment> {
        let MerScratch {
            edges,
            vertices,
            rising,
            upwards,
            active,
            chords,
            ..
        } = self;
        // Sweep upwards over the vertices with the edges whose y-range
        // reaches the current line: only those can cross it.
        let y_min = |e: u32| edges[e as usize].a.y.min(edges[e as usize].b.y);
        let y_max = |e: u32| edges[e as usize].a.y.max(edges[e as usize].b.y);
        rising.clear();
        rising.extend(0..edges.len() as u32);
        rising.sort_unstable_by(|&e, &f| y_min(e).partial_cmp(&y_min(f)).expect("finite"));
        upwards.clear();
        upwards.extend(0..vertices.len() as u32);
        upwards.sort_unstable_by(|&v, &w| {
            let (v, w) = (vertices[v as usize], vertices[w as usize]);
            v.y.partial_cmp(&w.y).expect("finite")
        });
        let mut entering = rising.iter().copied().peekable();
        active.clear();
        // Per vertex, in vertex order: length and far end of the chord to
        // the nearest crossing on its right, then on its left (zero length
        // where there is none).
        chords.clear();
        chords.resize(2 * vertices.len(), (0.0, 0.0));
        for &vi in upwards.iter() {
            let v = vertices[vi as usize];
            while let Some(e) = entering.next_if(|&e| y_min(e) <= v.y) {
                active.push(e);
            }
            active.retain(|&e| y_max(e) >= v.y);
            let mut right = f64::INFINITY;
            let mut left = f64::NEG_INFINITY;
            for &e in active.iter() {
                let e = &edges[e as usize];
                let (y1, y2) = (e.a.y, e.b.y);
                let x = if (y1 - v.y) * (y2 - v.y) < 0.0 {
                    // Proper crossing.
                    let t = (v.y - y1) / (y2 - y1);
                    e.a.x + t * (e.b.x - e.a.x)
                } else if y1 == v.y && y2 != v.y {
                    e.a.x
                } else {
                    // (Edges lying entirely on the line contribute their
                    // endpoints via the adjacent edges.)
                    continue;
                };
                if x > v.x + 1e-12 {
                    right = right.min(x);
                } else if x < v.x - 1e-12 {
                    left = left.max(x);
                }
            }
            for (slot, x) in [right, left].into_iter().enumerate() {
                if x.is_finite() {
                    chords[2 * vi as usize + slot] = (v.dist(Point::new(x, v.y)), x);
                }
            }
        }

        // The longest chord whose midpoint is inside wins, the first in
        // vertex order among equals: try the longest until one is inside.
        loop {
            let mut longest = 0;
            for (c, chord) in chords.iter().enumerate() {
                if chord.0 > chords[longest].0 {
                    longest = c;
                }
            }
            let (len, x) = chords[longest];
            if len <= 0.0 {
                return None;
            }
            let v = vertices[longest / 2];
            let far = Point::new(x, v.y);
            if region.contains_point(v.midpoint(far)) {
                return Some(if longest % 2 == 0 {
                    Segment::new(v, far)
                } else {
                    Segment::new(far, v)
                });
            }
            chords[longest].0 = 0.0;
        }
    }
}

/// Computes the paper-style maximum enclosed rectangle. Returns `None`
/// when no positive-area enclosed rectangle intersecting the anchor
/// exists (never the case for the generated datasets).
pub fn max_enclosed_rect(region: &PolygonWithHoles) -> Option<Rect> {
    max_enclosed_rect_counted(region, &mut MerSearchStats::default())
}

/// [`max_enclosed_rect`], adding the bands it considered and evaluated
/// to `stats`.
pub fn max_enclosed_rect_counted(
    region: &PolygonWithHoles,
    stats: &mut MerSearchStats,
) -> Option<Rect> {
    MerScratch::default().max_enclosed_rect(region, stats)
}

impl MerScratch {
    /// [`max_enclosed_rect_counted`] in this scratch.
    pub(crate) fn max_enclosed_rect(
        &mut self,
        region: &PolygonWithHoles,
        stats: &mut MerSearchStats,
    ) -> Option<Rect> {
        self.load(region);
        let anchor = self.anchor_chord(region)?;
        let y_a = anchor.a.y;
        let (ax1, ax2) = (anchor.a.x.min(anchor.b.x), anchor.a.x.max(anchor.b.x));

        // Candidate y levels from vertex coordinates, split around the
        // anchor.
        let ys = &mut self.ys;
        ys.clear();
        ys.extend(self.vertices.iter().map(|p| p.y));
        // Supplement sparse vertex grids (low-complexity polygons) with
        // evenly spaced levels so an enclosed rectangle always exists; for
        // the paper's many-vertex cartography objects the vertex levels
        // dominate.
        let mbr = region.mbr();
        for i in 1..16 {
            ys.push(mbr.ymin() + mbr.height() * i as f64 / 16.0);
        }
        ys.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        ys.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let (lows, highs) = (&mut self.lows, &mut self.highs);
        lows.clear();
        lows.extend(ys.iter().copied().filter(|&y| y <= y_a));
        quantile_cap(lows, MAX_LEVELS_PER_SIDE);
        highs.clear();
        highs.extend(ys.iter().copied().filter(|&y| y >= y_a));
        quantile_cap(highs, MAX_LEVELS_PER_SIDE);

        let mut search = BandSearch {
            region,
            edges: &self.edges,
            ax1,
            ax2,
            xmin: mbr.xmin(),
            xmax: mbr.xmax(),
            slack: 8.0 * f64::EPSILON * mbr.xmin().abs().max(mbr.xmax().abs()),
            best: None,
            best_area: 0.0,
            best_band: (0, 0),
            near: &mut self.near,
        };
        // Width bound per band, row-major in (levels below the anchor,
        // levels above it).
        let (rows, cols) = (lows.len(), highs.len());
        let (bound, evaluated) = (&mut self.bound, &mut self.evaluated);
        bound.clear();
        bound.resize(rows * cols, mbr.width());
        evaluated.clear();
        evaluated.resize(rows * cols, false);
        for stride in PASS_STRIDES {
            for r in (0..rows).step_by(stride) {
                let i = rows - 1 - r;
                for k in (0..cols).step_by(stride) {
                    let at = r * cols + k;
                    let mut cap = bound[at];
                    if r >= stride {
                        cap = cap.min(bound[at - stride * cols]);
                    }
                    if k >= stride {
                        cap = cap.min(bound[at - stride]);
                    }
                    bound[at] = cap;
                    let (ylo, yhi) = (lows[i], highs[k]);
                    let height = yhi - ylo;
                    if height <= 1e-12 {
                        continue;
                    }
                    stats.bands_considered += u64::from(stride == 1);
                    if evaluated[at] || height * cap < search.best_area {
                        continue;
                    }
                    stats.bands_evaluated += 1;
                    evaluated[at] = true;
                    bound[at] = cap.min(search.evaluate(i, k, ylo, yhi));
                }
            }
        }
        search.best
    }
}

/// The state one MER search carries from band to band.
struct BandSearch<'a> {
    region: &'a PolygonWithHoles,
    edges: &'a [Segment],
    /// The anchor's x-extent.
    ax1: f64,
    ax2: f64,
    xmin: f64,
    xmax: f64,
    slack: f64,
    best: Option<Rect>,
    best_area: f64,
    /// (ylo index, yhi index) of the band `best` came from.
    best_band: (usize, usize),
    /// Scratch: the blocked intervals of one band that reach the anchor.
    near: &'a mut Vec<(f64, f64)>,
}

impl BandSearch<'_> {
    /// Scans band (`i`, `k`) = (`ylo`, `yhi`): offers every bounded gap
    /// that overlaps the anchor as a candidate and returns the width of
    /// the widest anchor-overlapping free component. An unbounded
    /// component counts with its width inside the MBR: that bounds any
    /// gap a taller band leaves of it.
    fn evaluate(&mut self, i: usize, k: usize, ylo: f64, yhi: f64) -> f64 {
        let (ax1, ax2) = (self.ax1, self.ax2);
        let height = yhi - ylo;
        // Only gaps that reach the anchor matter, so only the blocked
        // intervals that reach it are kept and sorted. Of those wholly
        // left of it the rightmost end, and of those wholly right of it
        // the leftmost start, close the same gaps the full sorted list
        // would.
        let mut first_start = f64::INFINITY;
        let mut x_cursor = f64::NEG_INFINITY;
        let mut right_start = f64::INFINITY;
        self.near.clear();
        for e in self.edges {
            let Some((start, end)) = blocked_interval(e, ylo, yhi) else {
                continue;
            };
            first_start = first_start.min(start);
            if end < ax1 {
                x_cursor = x_cursor.max(end);
            } else if start > ax2 {
                right_start = right_start.min(start);
            } else {
                self.near.push((start, end));
            }
        }
        self.near
            .sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        if right_start.is_finite() {
            self.near.push((right_start, f64::INFINITY));
        }

        // The unbounded component left of every edge.
        let mut widest = if first_start >= ax1 {
            (first_start - self.xmin) + self.slack
        } else {
            0.0
        };
        // Walk the gaps between blocked intervals, left to right.
        for &(start, end) in self.near.iter() {
            if start > x_cursor && x_cursor > f64::NEG_INFINITY {
                // Free interval is (x_cursor, start).
                let (x1, x2) = (x_cursor, start);
                if x1 > ax2 {
                    return widest;
                }
                if x2 >= ax1 {
                    let width = x2 - x1;
                    widest = widest.max(width);
                    let area = width * height;
                    let replaces = area > self.best_area
                        || (area == self.best_area
                            && self.best.is_some()
                            && (i, k) < self.best_band);
                    // The gap logic guarantees no edge crosses the rect
                    // interior; one interior sample decides in/out.
                    if replaces
                        && self
                            .region
                            .contains_point(Point::new(0.5 * (x1 + x2), 0.5 * (ylo + yhi)))
                    {
                        self.best = Some(Rect::from_bounds(x1, ylo, x2, yhi));
                        self.best_area = area;
                        self.best_band = (i, k);
                    }
                }
            }
            x_cursor = x_cursor.max(end);
        }
        if x_cursor <= ax2 {
            // The unbounded component right of every edge reaches the
            // anchor.
            widest = widest.max((self.xmax - x_cursor) + self.slack);
        }
        widest
    }
}

/// Keeps at most `cap` values, evenly spread over the sorted input (the
/// first and last survive whenever `cap ≥ 2`). In place: the value kept
/// at `i` comes from index `i · (n − 1) / (cap − 1) ≥ i`, not yet
/// overwritten.
fn quantile_cap(values: &mut Vec<f64>, cap: usize) {
    let n = values.len();
    if n > cap && cap >= 2 {
        for i in 0..cap {
            values[i] = values[i * (n - 1) / (cap - 1)];
        }
    }
    values.truncate(cap);
}

/// The x-extent edge `e` blocks within the horizontal band `(ylo, yhi)`,
/// if it crosses the band's open interior.
#[inline]
fn blocked_interval(e: &Segment, ylo: f64, yhi: f64) -> Option<(f64, f64)> {
    let (ey_min, ey_max) = (e.a.y.min(e.b.y), e.a.y.max(e.b.y));
    // Edge must pass through the open band interior.
    if ey_max <= ylo || ey_min >= yhi {
        return None;
    }
    if ey_min == ey_max {
        // Horizontal edge strictly inside the band blocks its span.
        return Some((e.a.x.min(e.b.x), e.a.x.max(e.b.x)));
    }
    // Clip edge to the band.
    let x_at = |y: f64| -> f64 {
        if (e.b.y - e.a.y).abs() < 1e-300 {
            e.a.x
        } else {
            e.a.x + (y - e.a.y) / (e.b.y - e.a.y) * (e.b.x - e.a.x)
        }
    };
    let xa = x_at(ey_min.max(ylo));
    let xb = x_at(ey_max.min(yhi));
    Some((xa.min(xb), xa.max(xb)))
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

    /// Samples rectangle points and asserts each is in the region.
    fn assert_enclosed(region: &PolygonWithHoles, r: &Rect) {
        for i in 0..=8 {
            for j in 0..=8 {
                let p = Point::new(
                    r.xmin() + (r.width()) * i as f64 / 8.0,
                    r.ymin() + (r.height()) * j as f64 / 8.0,
                );
                // Shrink towards center a hair to dodge boundary rounding.
                let q = p.lerp(r.center(), 1e-9);
                assert!(region.contains_point(q), "{q:?} outside region");
            }
        }
    }

    #[test]
    fn square_mer_is_the_square() {
        let sq = poly(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]);
        let r = max_enclosed_rect(&sq).unwrap();
        assert!((r.area() - 16.0).abs() < 1e-9, "area {}", r.area());
    }

    #[test]
    fn anchor_of_square_is_full_side() {
        let sq = poly(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]);
        let a = longest_horizontal_chord(&sq).unwrap();
        assert!((a.len() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn l_shape_mer_is_larger_arm() {
        // L-shape with a wide bottom arm [0,6]×[0,2] and tall left arm
        // [0,2]×[0,6].
        let l = poly(&[
            (0.0, 0.0),
            (6.0, 0.0),
            (6.0, 2.0),
            (2.0, 2.0),
            (2.0, 6.0),
            (0.0, 6.0),
        ]);
        let r = max_enclosed_rect(&l).unwrap();
        assert_enclosed(&l, &r);
        assert!(
            (r.area() - 12.0).abs() < 1e-6,
            "area {} rect {:?}",
            r.area(),
            r
        );
    }

    #[test]
    fn mer_avoids_holes() {
        let outer = Polygon::new(
            [(0.0, 0.0), (8.0, 0.0), (8.0, 4.0), (0.0, 4.0)]
                .iter()
                .map(|&(x, y)| Point::new(x, y))
                .collect(),
        )
        .unwrap();
        let hole = Polygon::new(
            [(3.5, 1.0), (4.5, 1.0), (4.5, 3.0), (3.5, 3.0)]
                .iter()
                .map(|&(x, y)| Point::new(x, y))
                .collect(),
        )
        .unwrap();
        let region = PolygonWithHoles::new(outer, vec![hole]);
        let r = max_enclosed_rect(&region).unwrap();
        assert_enclosed(&region, &r);
        // Best full-height rect left of the hole is [0,3.5]×[0,4] = 14.
        assert!(r.area() >= 13.9, "area {}", r.area());
        // It must not cover the hole.
        assert!(!r.contains_point(Point::new(4.0, 2.0)));
    }

    #[test]
    fn mer_of_triangle_is_enclosed_and_substantial() {
        let tri = poly(&[(0.0, 0.0), (8.0, 0.0), (0.0, 8.0)]);
        let r = max_enclosed_rect(&tri).unwrap();
        assert_enclosed(&tri, &r);
        // Optimal inscribed axis-parallel rectangle of a right triangle
        // has half the triangle's area (16); the vertex-anchored variant
        // finds a large fraction of that.
        assert!(r.area() > 8.0, "area {}", r.area());
    }

    fn capped(mut values: Vec<f64>, cap: usize) -> Vec<f64> {
        quantile_cap(&mut values, cap);
        values
    }

    #[test]
    fn quantile_cap_limits_and_keeps_extremes() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let kept = capped(vals.clone(), 10);
        assert_eq!(kept.len(), 10);
        assert_eq!(kept[0], 0.0);
        assert_eq!(*kept.last().unwrap(), 99.0);
        // The spread the copying version kept, in place.
        let spread: Vec<f64> = (0..10).map(|i| vals[i * 99 / 9]).collect();
        assert_eq!(kept, spread);
        assert_eq!(capped(vec![1.0, 2.0], 10).len(), 2);
    }

    #[test]
    fn quantile_cap_is_total() {
        let vals: Vec<f64> = (0..7).map(|i| i as f64).collect();
        let n = vals.len();
        assert_eq!(capped(vals.clone(), 0), Vec::<f64>::new());
        assert_eq!(capped(vals.clone(), 1), [0.0]);
        assert_eq!(capped(vals.clone(), 2), [0.0, 6.0]);
        assert_eq!(capped(vals.clone(), n), vals);
        assert_eq!(capped(vals.clone(), n + 1), vals);
    }

    #[test]
    fn concave_blob_mer_enclosed() {
        let blob = poly(&[
            (0.0, 0.0),
            (5.0, -1.0),
            (9.0, 1.0),
            (8.0, 4.0),
            (5.0, 3.0),
            (3.0, 6.0),
            (-1.0, 4.0),
            (-2.0, 1.0),
        ]);
        let r = max_enclosed_rect(&blob).unwrap();
        assert!(r.area() > 0.0);
        assert_enclosed(&blob, &r);
    }
}

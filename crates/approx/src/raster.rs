//! Raster-interval object approximations — the **Step-2a signature
//! stage** of the multi-step join.
//!
//! Each object is rasterized onto a `2^k × 2^k` grid laid over the joint
//! workspace of both relations. Grid cells intersecting the object are
//! classified:
//!
//! * **FULL** — the cell lies entirely inside the object's closed region
//!   (a *progressive* signal: anything touching this cell touches the
//!   object);
//! * **PARTIAL** — the object's boundary passes through the cell (a
//!   *conservative* signal: the cell certainly contains at least one
//!   object point — the boundary belongs to the closed region — but may
//!   not be covered by it).
//!
//! A signature is **two sorted lists of Hilbert-order cell-ID runs**
//! ([`CellRun`], `start..end`): the **A** list covers *all* of the
//! object's cells (FULL ∪ PARTIAL), the **F** list its FULL cells. Neither
//! list carries a class, so a FULL run next to a PARTIAL run coalesces in
//! A, and both lists are canonical — strictly increasing, runs never
//! touching. [`RasterStore`] keeps a flat run arena plus a per-object
//! offset table per list, like [`crate::store`]. Two signatures are
//! compared by at most three "do these lists share a cell?" searches
//! ([`raster_decide`]):
//!
//! * `A × A` share no cell → the objects are **disjoint** (the A cells
//!   cover the objects entirely);
//! * `A × F` or `F × A` share a cell → the objects **intersect** (the cell
//!   is covered by one object and touched by the other);
//! * otherwise only PARTIAL cells overlap: **inconclusive**, and the pair
//!   falls through to the conservative/progressive chain.
//!
//! Each search walks the *shorter* list, binary-searches the longer one
//! once per run and stops at the first shared cell: `O(short · log long)`,
//! which is what a parcel-against-region candidate (3 runs against 100)
//! needs.
//!
//! Building a signature costs its boundary, and its area only as one
//! cleared byte per cell of its MBR block, pass 1's dedup
//! ([`Rasterizer`]): each edge decides the cells of each row it crosses
//! from its x-span in that row, by a proven margin, and runs the exact
//! segment–rectangle test only on the few cells within the margin. The
//! sorted Hilbert ids of those PARTIAL cells form runs, and each gap of
//! the curve between two runs, which no edge touches, is wholly inside or
//! wholly outside the object: one even–odd parity probe at its first
//! cell's centre decides it. The cells are exactly those of the per-cell
//! statement — `intersects_rect` on every cell of each edge's range,
//! centre parity for the rest — which `tests/raster_proptests.rs` keeps
//! as the oracle.
//!
//! This is the A/F form of APRIL (Georgiadis, Tzirita Zacharatou &
//! Mamoulis, "Raster Interval Object Approximations for Spatial
//! Intersection Joins") on this workspace's columnar stores.

use msj_geom::bytes::{Dec, DecResult, Enc};
use msj_geom::{ObjectId, Point, PolygonWithHoles, Rect, Relation, Segment};

/// Smallest sensible grid resolution (`2^2 = 4` cells per axis).
pub const MIN_GRID_BITS: u32 = 2;
/// Largest supported grid resolution (`2^12 = 4096` cells per axis; the
/// Hilbert index then spans 24 bits of a `u32`).
pub const MAX_GRID_BITS: u32 = 12;

/// The raster grid: a `2^bits × 2^bits` partition of the workspace
/// rectangle into closed cells. Both relations of a join must be
/// rasterized on the **same** grid for signatures to be comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RasterGrid {
    origin: Point,
    cell_w: f64,
    cell_h: f64,
    bits: u32,
}

impl RasterGrid {
    /// A grid of `2^bits × 2^bits` cells covering `workspace` exactly
    /// (degenerate extents are padded so every cell has positive area).
    pub fn new(workspace: Rect, bits: u32) -> Self {
        let bits = bits.clamp(MIN_GRID_BITS, MAX_GRID_BITS);
        let n = (1u32 << bits) as f64;
        // Pad zero/degenerate extents to a unit span (and keep cells out
        // of the subnormal range) so cell geometry stays sound.
        let w = pad_extent(workspace.width()).max(f64::MIN_POSITIVE * n);
        let h = pad_extent(workspace.height()).max(f64::MIN_POSITIVE * n);
        RasterGrid {
            origin: workspace.lo(),
            cell_w: w / n,
            cell_h: h / n,
            bits,
        }
    }

    /// The shared grid of a join: `2^bits` cells per axis over the union
    /// of both relations' bounding rectangles. `None` when both relations
    /// are empty (no workspace to cover) or the workspace's width or
    /// height overflows `f64` — padding an infinite extent would grid one
    /// unit of the world and misclassify everything outside it.
    pub fn covering(rel_a: &Relation, rel_b: &Relation, bits: u32) -> Option<Self> {
        let workspace = join_workspace(rel_a, rel_b)?;
        let finite = workspace.width().is_finite() && workspace.height().is_finite();
        finite.then(|| RasterGrid::new(workspace, bits))
    }

    /// `log2` of the cells per axis.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Cells per axis (`2^bits`).
    #[inline]
    pub fn cells_per_axis(&self) -> u32 {
        1 << self.bits
    }

    /// The closed rectangle of cell `(cx, cy)`. Shared boundaries are
    /// computed identically for both neighbors (pure multiplication), so
    /// adjacent cells tile the workspace without gaps.
    #[inline]
    pub fn cell_rect(&self, cx: u32, cy: u32) -> Rect {
        Rect::from_bounds(
            self.origin.x + cx as f64 * self.cell_w,
            self.origin.y + cy as f64 * self.cell_h,
            self.origin.x + (cx + 1) as f64 * self.cell_w,
            self.origin.y + (cy + 1) as f64 * self.cell_h,
        )
    }

    /// The cell column the quotient `(x − origin.x) / cell_w` gives `x`,
    /// clamped to the grid. Within an ulp or so of a cell line it can be
    /// the column on the other side of the line from the one
    /// [`RasterGrid::cell_rect`] draws around `x`.
    #[inline]
    fn col(&self, x: f64) -> u32 {
        let n = self.cells_per_axis();
        let i = ((x - self.origin.x) / self.cell_w).floor();
        (i.max(0.0) as u32).min(n - 1)
    }

    /// The cell row of coordinate `y`, as [`RasterGrid::col`] for `x`.
    #[inline]
    fn row(&self, y: f64) -> u32 {
        let n = self.cells_per_axis();
        let i = ((y - self.origin.y) / self.cell_h).floor();
        (i.max(0.0) as u32).min(n - 1)
    }

    /// Inclusive cell range `(cx0, cy0, cx1, cy1)` covering `r`, as
    /// [`RasterGrid::cell_rect`] draws the cells: each bound is the last
    /// cell whose lower side is at or below the coordinate (the first
    /// cell below the grid, the last above it). The quotient's cell is
    /// moved by one where it lies across a side; the rasterizer's gaps
    /// rest on every cell an edge touches lying in the edge's range.
    #[inline]
    pub fn cell_range(&self, r: &Rect) -> (u32, u32, u32, u32) {
        let n = self.cells_per_axis();
        let x = |v: f64| snap(self.col(v), v, self.origin.x, self.cell_w, n);
        let y = |v: f64| snap(self.row(v), v, self.origin.y, self.cell_h, n);
        (x(r.xmin()), y(r.ymin()), x(r.xmax()), y(r.ymax()))
    }
}

/// Moves the quotient's cell `i` of `v`, on an axis of `n` cells of size
/// `c` from `o`, to the last cell whose lower side `o + i · c` (computed
/// as [`RasterGrid::cell_rect`] computes it) is at or below `v`. The
/// quotient errs by less than a cell wherever cells are wider than a few
/// ulps of the coordinates, so one step is enough.
#[inline]
fn snap(i: u32, v: f64, o: f64, c: f64, n: u32) -> u32 {
    if i + 1 < n && o + (i + 1) as f64 * c <= v {
        i + 1
    } else if i > 0 && v < o + i as f64 * c {
        i - 1
    } else {
        i
    }
}

/// One level of the Hilbert curve as a four-state machine, for both
/// directions. A state is the transform the curve has accumulated on the
/// way down to a square, `swap | flip << 1` (transpose, rotate by 180°;
/// they commute). The encoder `.0[state << 2 | bx << 1 | by]` holds the
/// quadrant's digit on the curve, the decoder `.1[state << 2 | digit]`
/// the cell bits `bx << 1 | by`, each `| next_state << 2`.
const HILBERT: ([u8; 16], [u8; 16]) = {
    let (mut encode, mut decode) = ([0u8; 16], [0u8; 16]);
    let mut i = 0;
    while i < 16 {
        let (state, bx, by) = (i >> 2, (i >> 1) & 1, i & 1);
        let (swap, flip) = (state & 1, state >> 1);
        // The quadrant in the square's own frame.
        let (rx, ry) = if swap == 1 { (by, bx) } else { (bx, by) };
        let (rx, ry) = (rx ^ flip, ry ^ flip);
        let digit = (3 * rx) ^ ry;
        // The lower-left quadrant is entered transposed, the lower-right
        // anti-transposed.
        let next = if ry == 0 {
            (swap ^ 1) | (flip ^ rx) << 1
        } else {
            state
        };
        encode[i] = (digit | next << 2) as u8;
        decode[state << 2 | digit] = ((bx << 1 | by) | next << 2) as u8;
        i += 1;
    }
    (encode, decode)
};

/// Maps cell coordinates to their index on the Hilbert curve of order
/// `bits` (the classic `xy2d` curve, one table step per level). Hilbert
/// order keeps spatially adjacent cells numerically adjacent, so
/// contiguous object areas collapse into few intervals.
#[inline]
pub fn hilbert_index(bits: u32, x: u32, y: u32) -> u32 {
    let (mut d, mut state) = (0u32, 0usize);
    for level in (0..bits).rev() {
        let cell = ((x >> level & 1) << 1 | (y >> level & 1)) as usize;
        let step = HILBERT.0[state << 2 | cell];
        (d, state) = (d << 2 | u32::from(step & 3), usize::from(step >> 2));
    }
    d
}

/// The cell at index `d` on the Hilbert curve of order `bits`: the
/// inverse of [`hilbert_index`].
#[inline]
pub fn hilbert_cell(bits: u32, d: u32) -> (u32, u32) {
    let (mut x, mut y, mut state) = (0u32, 0u32, 0usize);
    for level in (0..bits).rev() {
        let step = HILBERT.1[state << 2 | (d >> (2 * level) & 3) as usize];
        x |= u32::from(step >> 1 & 1) << level;
        y |= u32::from(step & 1) << level;
        state = usize::from(step >> 2);
    }
    (x, y)
}

/// One run of consecutive Hilbert cell IDs, `start..end` (8 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRun {
    /// First covered Hilbert cell ID.
    pub start: u32,
    /// One past the last covered Hilbert cell ID.
    pub end: u32,
}

/// Borrow-only view of one object's signature: its A and F run lists in
/// the flat arenas, both canonical (see the module docs) and F ⊆ A.
#[derive(Debug, Clone, Copy)]
pub struct RasterSignature<'a> {
    all: &'a [CellRun],
    full: &'a [CellRun],
}

impl<'a> RasterSignature<'a> {
    /// A view over externally held lists — both must be canonical, as
    /// produced by [`rasterize`].
    pub fn from_lists(all: &'a [CellRun], full: &'a [CellRun]) -> Self {
        RasterSignature { all, full }
    }

    /// The A list: every cell of the object (FULL ∪ PARTIAL).
    #[inline]
    pub fn all(&self) -> &'a [CellRun] {
        self.all
    }

    /// The F list: the object's FULL cells.
    #[inline]
    pub fn full(&self) -> &'a [CellRun] {
        self.full
    }
}

/// Outcome of comparing two raster signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RasterDecision {
    /// Some shared cell is FULL on at least one side → the objects
    /// certainly intersect.
    Hit,
    /// The cell sets are disjoint → the objects certainly are too.
    Drop,
    /// Only PARTIAL cells overlap: the exact relationship is open.
    Inconclusive,
}

/// The whole Step-2a test (see the module docs): allocation-free, the
/// same function on every kernel dispatch path.
#[inline]
pub fn raster_decide(a: RasterSignature<'_>, b: RasterSignature<'_>) -> RasterDecision {
    if !runs_overlap(a.all, b.all) {
        RasterDecision::Drop
    } else if runs_overlap(a.all, b.full) || runs_overlap(a.full, b.all) {
        RasterDecision::Hit
    } else {
        RasterDecision::Inconclusive
    }
}

/// Whether two canonical run lists share a cell. Walks the shorter list
/// and binary-searches the longer one for the first run ending after each
/// of its runs' starts — the only run that can overlap it. The searches
/// are independent of one another (no cursor carried from run to run), so
/// the processor overlaps them; a rolling, galloping cursor was measured
/// slower on every candidate stream of the benchmark for that reason.
fn runs_overlap(xs: &[CellRun], ys: &[CellRun]) -> bool {
    let (short, long) = if xs.len() <= ys.len() {
        (xs, ys)
    } else {
        (ys, xs)
    };
    short.iter().any(|s| {
        long.get(long.partition_point(|r| r.end <= s.start))
            .is_some_and(|l| l.start < s.end)
    })
}

/// The rasterizer's margin per unit of `|x|`, derived at
/// [`Rasterizer::append`].
const MARGIN: f64 = 64.0 * f64::EPSILON;

/// Reusable working memory of the rasterizer: pass 1's marks over the cell
/// block of one region's MBR, the marked cells' Hilbert ids, and the
/// crossings of the rows pass 2 asks about. [`RasterStore::build`] runs
/// one of these over a whole relation without allocating per object.
#[derive(Debug, Default)]
pub struct Rasterizer {
    /// Row-major over the block: whether pass 1 has marked the cell.
    marked: Vec<bool>,
    /// The Hilbert ids of the marked (PARTIAL) cells.
    ids: Vec<u32>,
    edges: Vec<Segment>,
    /// Per block row, its range in `crossings` once built.
    rows: Vec<Option<(usize, usize)>>,
    crossings: Vec<f64>,
}

impl Rasterizer {
    /// Rasterizes `region` on `grid` and appends its A and F lists to
    /// `all` and `full` (arenas that may already hold other objects' runs;
    /// nothing before their current ends is touched, and no run coalesces
    /// with another object's). The cells are, cell for cell, what the
    /// per-cell statement gives (`tests/raster_proptests.rs` keeps it as
    /// the oracle): a cell of the MBR block is PARTIAL when an edge whose
    /// cell range contains it intersects it ([`Segment::intersects_rect`]),
    /// and otherwise FULL when its centre lies inside the region. The work
    /// is the boundary cells plus one probe per gap between them, and a
    /// cleared mark byte per cell of the block.
    ///
    /// 1. **boundary** — each edge walks the rows of its cell range. In a
    ///    row whose y-band `[y0, y1]` its closed y-range misses, it
    ///    touches no cell (both quick tests of `intersects_rect` fail).
    ///    Otherwise the edge's x-extent within the band, `[sx0, sx1]`
    ///    (computed at the band-clamped parameters), decides each cell of
    ///    the row within ±1 column of it from the cell's x-range
    ///    `[x0, x1]` and a margin `m`:
    ///    * a certain **miss** when `x1 < sx0 − m` or `x0 > sx1 + m`;
    ///    * a certain **hit** when a span end lies in `[x0 + m, x1 − m]`,
    ///      or when `sx0 < x0 − m` and `sx1 > x1 + m`;
    ///    * `intersects_rect` only inside the margin — a few cells per
    ///      edge and row, where a span end is within `m` of a cell side.
    ///
    ///    Each newly marked cell pushes its [`hilbert_index`].
    /// 2. **gaps** — the sorted ids form the PARTIAL runs. Consecutive
    ///    Hilbert cells share a side, so a gap between runs (or before the
    ///    first, or after the last up to `4^bits`), which no edge touches,
    ///    lies wholly inside or wholly outside the region, and its first
    ///    cell ([`hilbert_cell`]) decides it. Outside the block, the gap is
    ///    empty. Inside, it is FULL when the cell centre's even–odd parity
    ///    is odd: the count of the row's crossings strictly left of the
    ///    centre, over one scanline through the row centre (half-open
    ///    rule, as in the point-in-polygon test), built on the row's first
    ///    probe. An unmarked cell's centre is never on the boundary (the
    ///    edge would intersect the cell), so the parity is exact.
    ///
    ///    "No edge touches" needs every cell an edge touches inside the
    ///    edge's cell range: where the boundary passes between the centres
    ///    of two neighbours, the cell holding the crossing point is in the
    ///    range of the edge through it, is walked and is marked. So
    ///    [`RasterGrid::cell_range`] puts a coordinate in the cell that
    ///    [`RasterGrid::cell_rect`]'s sides put it in, not where the
    ///    quotient rounds it. Otherwise an edge an ulp above a row line
    ///    that the quotient puts below it marks no cell, and a gap runs
    ///    from inside the region across it (out of the block above a top
    ///    edge, into the hole below a hole's top edge). The same argument
    ///    keeps a FULL gap inside the block: a cell beyond the block has
    ///    its centre outside the MBR. Within a row, the walk's quotient
    ///    columns `±1` still reach every cell the edge can touch.
    ///
    /// **The margin.** `m = 64ε · X`, with `ε = f64::EPSILON` and `X` the
    /// largest `|x|` of the region's MBR and of the block's cell lines
    /// (`|x|` of every edge endpoint and cell side is at most `X`):
    ///
    /// * A span end is within `7ε · X` of the exact x of the edge at its
    ///   band-clamped parameter: four roundings make `t` (the difference,
    ///   the edge's `dy`, its reciprocal and the product; the clamp only
    ///   narrows the error), three more `a.x + t · (b.x − a.x)`, and
    ///   `|b.x − a.x| ≤ 2X`.
    /// * `orient2d` has the right sign whenever it is not `Collinear`, and
    ///   is `Collinear` only when the exact determinant is at most
    ///   `3ε · (|dl| + |dr|)` (its threshold plus its own rounding). For a
    ///   cell corner `c` inside the edge's bounding box, or on a row line
    ///   the edge crosses, that puts `c` within `12ε · X` horizontally of
    ///   the edge's line at `c.y`: the horizontal offset is
    ///   `|det| / |dy|`, and `|c.y − a.y| ≤ |dy|`, `|c.x − a.x| ≤ 2X`.
    ///   Corner tests against the axis-parallel cell sides, and all of a
    ///   horizontal edge's, are exact.
    ///
    /// So with `m ≥ 7εX + 12εX` plus the rounding of the comparisons
    /// (64 leaves room):
    ///
    /// * **miss** — the exact span is more than `12ε · X` outside the
    ///   cell's x-range, so no endpoint is in the cell, no side is crossed
    ///   properly, and no corner in the edge's box is `Collinear`:
    ///   `intersects_rect` is `false`.
    /// * **hit by a span end** — the exact end is at least `12ε · X` inside
    ///   the x-range: either an edge endpoint lies in the cell, or the
    ///   edge crosses the row's bottom or top line properly there, with
    ///   both corners of that side correctly signed on either side of it.
    /// * **hit by cover** — the edge crosses the cell's left side
    ///   properly: its endpoints are strictly on either side, and a corner
    ///   of that side is correctly signed or `Collinear` and inside the
    ///   edge's box. A corner outside the box lies at least
    ///   `(m − 7εX) · |slope|` above or below the edge's line, against a
    ///   `Collinear` band of at most `12ε · X · |slope|` there.
    pub fn append(
        &mut self,
        grid: &RasterGrid,
        region: &PolygonWithHoles,
        all: &mut Vec<CellRun>,
        full: &mut Vec<CellRun>,
    ) {
        let Rasterizer {
            marked,
            ids,
            edges,
            rows,
            crossings,
        } = self;
        let mbr = region.mbr();
        let (cx0, cy0, cx1, cy1) = grid.cell_range(&mbr);
        let (w, h) = ((cx1 - cx0 + 1) as usize, (cy1 - cy0 + 1) as usize);
        marked.clear();
        marked.resize(w * h, false);
        ids.clear();
        edges.clear();
        edges.extend(region.edges());
        let (left, right) = (
            grid.cell_rect(cx0, cy0).xmin(),
            grid.cell_rect(cx1, cy0).xmax(),
        );
        let m = MARGIN
            * mbr
                .xmin()
                .abs()
                .max(mbr.xmax().abs())
                .max(left.abs())
                .max(right.abs());

        // Pass 1: boundary cells, decided by margin from each row's span.
        for edge in edges.iter() {
            let (ex0, ey0, ex1, ey1) = grid.cell_range(&edge.mbr());
            let (ylo, yhi) = (edge.a.y.min(edge.b.y), edge.a.y.max(edge.b.y));
            let (dx, inv_dy) = (edge.b.x - edge.a.x, 1.0 / (edge.b.y - edge.a.y));
            for cy in ey0.max(cy0)..=ey1.min(cy1) {
                let band = grid.cell_rect(ex0, cy);
                if yhi < band.ymin() || ylo > band.ymax() {
                    continue;
                }
                // The span ends within this row's y-band; x is linear in
                // t, so clamping t to the band endpoints bounds it.
                let (x0, x1) = if edge.a.y == edge.b.y {
                    (edge.a.x.min(edge.b.x), edge.a.x.max(edge.b.x))
                } else {
                    let t0 = ((band.ymin() - edge.a.y) * inv_dy).clamp(0.0, 1.0);
                    let t1 = ((band.ymax() - edge.a.y) * inv_dy).clamp(0.0, 1.0);
                    (edge.a.x + t0 * dx, edge.a.x + t1 * dx)
                };
                let (sx0, sx1) = (x0.min(x1), x0.max(x1));
                let lo = grid.col(sx0).saturating_sub(1).max(ex0.max(cx0));
                let hi = (grid.col(sx1) + 1).min(ex1.min(cx1));
                let row = &mut marked[(cy - cy0) as usize * w..][..w];
                for cx in lo..=hi {
                    let slot = &mut row[(cx - cx0) as usize];
                    if *slot {
                        continue;
                    }
                    let cell = grid.cell_rect(cx, cy);
                    let (lx, rx) = (cell.xmin(), cell.xmax());
                    let inside = |x: f64| lx + m <= x && x <= rx - m;
                    let hit = if rx < sx0 - m || lx > sx1 + m {
                        false
                    } else if inside(x0) || inside(x1) || (sx0 < lx - m && sx1 > rx + m) {
                        true
                    } else {
                        edge.intersects_rect(&cell)
                    };
                    if hit {
                        *slot = true;
                        ids.push(hilbert_index(grid.bits, cx, cy));
                    }
                }
            }
        }

        // Pass 2: the PARTIAL runs, and between them the gaps, each
        // decided by its first cell.
        ids.sort_unstable();
        rows.clear();
        rows.resize(h, None);
        crossings.clear();
        let mut gap_is_full = |d: u32| {
            let (cx, cy) = hilbert_cell(grid.bits, d);
            if !((cx0..=cx1).contains(&cx) && (cy0..=cy1).contains(&cy)) {
                return false;
            }
            let centre = grid.cell_rect(cx, cy).center();
            let (start, end) = *rows[(cy - cy0) as usize].get_or_insert_with(|| {
                let (y, start) = (centre.y, crossings.len());
                for e in edges.iter() {
                    if (e.a.y > y) != (e.b.y > y) {
                        crossings.push(e.a.x + (y - e.a.y) / (e.b.y - e.a.y) * (e.b.x - e.a.x));
                    }
                }
                crossings[start..].sort_unstable_by(f64::total_cmp);
                (start, crossings.len())
            });
            crossings[start..end].partition_point(|&c| c < centre.x) % 2 == 1
        };
        let (bases, cells) = ((all.len(), full.len()), 1 << (2 * grid.bits));
        // `gap` is the first cell after the last PARTIAL cell seen.
        let mut gap = 0;
        for d in ids.iter().copied().chain([cells]) {
            if gap < d && gap_is_full(gap) {
                push_run(all, bases.0, gap, d);
                push_run(full, bases.1, gap, d);
            }
            if d < cells {
                push_run(all, bases.0, d, d + 1);
            }
            gap = d + 1;
        }
    }
}

/// Appends `start..end` to one object's list, which begins at `base` in
/// the arena `list`: the run extends the object's last run when it
/// touches it, never the previous object's.
#[inline]
fn push_run(list: &mut Vec<CellRun>, base: usize, start: u32, end: u32) {
    let own = list.len() > base;
    match list.last_mut() {
        Some(last) if own && last.end == start => last.end = end,
        _ => list.push(CellRun { start, end }),
    }
}

/// Rasterizes one region on `grid` into its `(A, F)` run lists: every
/// cell intersecting the closed region is in A, every cell inside it in
/// F, both in canonical Hilbert-order form.
pub fn rasterize(grid: &RasterGrid, region: &PolygonWithHoles) -> (Vec<CellRun>, Vec<CellRun>) {
    let (mut all, mut full) = (Vec::new(), Vec::new());
    Rasterizer::default().append(grid, region, &mut all, &mut full);
    (all, full)
}

/// One run list per object in columnar layout: a flat run arena plus a
/// per-object offset table (`len + 1` entries).
#[derive(Debug, Clone)]
struct RunColumn {
    offsets: Vec<u32>,
    runs: Vec<CellRun>,
}

impl RunColumn {
    fn new() -> Self {
        let (offsets, runs) = (vec![0], Vec::new());
        RunColumn { offsets, runs }
    }

    /// Closes the current object's list at the arena's end.
    fn seal(&mut self) {
        self.offsets
            .push(u32::try_from(self.runs.len()).expect("run arena exceeds u32 offsets"));
    }

    #[inline]
    fn list(&self, i: usize) -> &[CellRun] {
        &self.runs[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The counted offset table, then the arena as counted
    /// `(start, end)` word pairs.
    fn encode(&self, e: &mut Enc) {
        e.u32s(&self.offsets);
        e.count(2 * self.runs.len());
        for run in &self.runs {
            e.u32(run.start);
            e.u32(run.end);
        }
    }

    /// Lifts a column back out of its image, refusing any per-object
    /// list that is not canonical on a grid of `cells` cells — the
    /// searches of [`raster_decide`] silently mis-decide on anything else.
    fn decode(d: &mut Dec<'_>, cells: u32) -> DecResult<Self> {
        let offsets = d.u32s()?.to_vec();
        let words = d.u32s()?;
        if !words.len().is_multiple_of(2) {
            return Err("raster run arena truncated");
        }
        let runs: Vec<CellRun> = (0..words.len() / 2)
            .map(|i| CellRun {
                start: words.get(2 * i),
                end: words.get(2 * i + 1),
            })
            .collect();
        if offsets.first() != Some(&0)
            || offsets.last().map(|&o| o as usize) != Some(runs.len())
            || offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err("raster offset table malformed");
        }
        let column = RunColumn { offsets, runs };
        for i in 0..column.offsets.len() - 1 {
            // Lowest start the next run may have: one past its
            // predecessor's end, so runs neither overlap nor touch.
            let mut floor = 0u32;
            for run in column.list(i) {
                if !(floor <= run.start && run.start < run.end && run.end <= cells) {
                    return Err("raster run list not canonical");
                }
                floor = run.end + 1;
            }
        }
        Ok(column)
    }
}

/// Per-relation raster signatures in columnar layout: an A column and an
/// F column over the same objects. Built once in Step 0 and shared
/// read-only across all workers.
#[derive(Debug, Clone)]
pub struct RasterStore {
    grid: RasterGrid,
    all: RunColumn,
    full: RunColumn,
}

impl RasterStore {
    /// Rasterizes every object of `relation` on `grid`.
    pub fn build(grid: &RasterGrid, relation: &Relation) -> Self {
        let (mut all, mut full) = (RunColumn::new(), RunColumn::new());
        let mut rasterizer = Rasterizer::default();
        for o in relation.iter() {
            rasterizer.append(grid, &o.region, &mut all.runs, &mut full.runs);
            all.seal();
            full.seal();
        }
        let grid = *grid;
        RasterStore { grid, all, full }
    }

    /// The grid all signatures of this store live on.
    #[inline]
    pub fn grid(&self) -> &RasterGrid {
        &self.grid
    }

    /// The signature of object `id` (borrow-only view into the arenas).
    #[inline]
    pub fn signature(&self, id: ObjectId) -> RasterSignature<'_> {
        RasterSignature {
            all: self.all.list(id as usize),
            full: self.full.list(id as usize),
        }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.all.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total runs across all objects, A + F (the arena lengths — 8 bytes
    /// each, the storage cost of the stage).
    pub fn interval_count(&self) -> usize {
        self.all.runs.len() + self.full.runs.len()
    }

    /// The store as its persistent image: the grid geometry as raw scalars
    /// (`origin.x`, `origin.y`, `cell_w`, `cell_h` as `f64`, `bits: u32`),
    /// then the A column and the F column, each a counted offset table
    /// (`len + 1` entries) and its arena as counted `(start, end)` word
    /// pairs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let words = self.all.offsets.len() + self.full.offsets.len() + 2 * self.interval_count();
        let mut e = Enc::with_capacity(68 + 4 * words);
        let g = &self.grid;
        e.f64x([g.origin.x, g.origin.y, g.cell_w, g.cell_h]);
        e.u32(g.bits);
        self.all.encode(&mut e);
        self.full.encode(&mut e);
        e.into_bytes()
    }

    /// Adopts a [`RasterStore::to_bytes`] image without re-rasterizing.
    /// The grid is restored verbatim (no re-clamping — the stored values
    /// came from a validly constructed grid), so the result re-encodes to
    /// the same image. Everything the Step-2a
    /// searches rely on is checked first: both columns canonical, over the
    /// same objects, and every F list inside its A list.
    pub fn from_bytes(bytes: &[u8]) -> DecResult<Self> {
        let mut d = Dec::new(bytes);
        let origin = Point::new(d.f64()?, d.f64()?);
        let (cell_w, cell_h) = (d.f64()?, d.f64()?);
        let bits = d.u32()?;
        if !(MIN_GRID_BITS..=MAX_GRID_BITS).contains(&bits) {
            return Err("raster grid bits out of range");
        }
        let positive = |cell: f64| cell > 0.0 && cell.is_finite();
        if !(positive(cell_w) && positive(cell_h) && origin.is_finite()) {
            return Err("raster grid geometry malformed");
        }
        let all = RunColumn::decode(&mut d, 1 << (2 * bits))?;
        let full = RunColumn::decode(&mut d, 1 << (2 * bits))?;
        d.finish()?;
        if all.offsets.len() != full.offsets.len() {
            return Err("raster A and F columns differ in object count");
        }
        for i in 0..all.offsets.len() - 1 {
            let mut cover = all.list(i);
            for f in full.list(i) {
                cover = &cover[cover.partition_point(|a| a.end <= f.start)..];
                if !cover
                    .first()
                    .is_some_and(|a| a.start <= f.start && f.end <= a.end)
                {
                    return Err("raster F list not inside its A list");
                }
            }
        }
        let grid = RasterGrid {
            origin,
            cell_w,
            cell_h,
            bits,
        };
        Ok(RasterStore { grid, all, full })
    }
}

/// Auto-sizes `grid_bits` from the workload, following the §5 cost-model
/// tradeoff: finer grids decide more candidates (fewer exact-geometry
/// object accesses) but signature storage and Step-0 build cost grow with
/// `4^bits`. Sizing the cell near a quarter of the *mean object extent*
/// puts ~4 cells across an average object — enough for most objects to
/// own FULL cells (the progressive signal) while signatures stay a few
/// intervals long. Returns a value in
/// [`MIN_GRID_BITS`]`..=`[`MAX_GRID_BITS`].
pub fn auto_grid_bits(rel_a: &Relation, rel_b: &Relation) -> u32 {
    let Some(workspace) = join_workspace(rel_a, rel_b) else {
        return MIN_GRID_BITS;
    };
    let n = rel_a.len() + rel_b.len();
    if n == 0 {
        return MIN_GRID_BITS;
    }
    let mean_extent: f64 = rel_a
        .iter()
        .chain(rel_b.iter())
        .map(|o| o.mbr().width().max(o.mbr().height()))
        .sum::<f64>()
        / n as f64;
    // Geometric-mean workspace extent (degenerate axes padded like the
    // grid constructor pads them).
    let extent = (pad_extent(workspace.width()) * pad_extent(workspace.height())).sqrt();
    if mean_extent <= 0.0 || !mean_extent.is_finite() {
        return MIN_GRID_BITS;
    }
    // cell ≈ mean_extent / 4  ⇒  bits ≈ log2(workspace / mean_extent) + 2.
    let bits = (extent / mean_extent).log2().ceil() as i64 + 2;
    (bits.clamp(MIN_GRID_BITS as i64, MAX_GRID_BITS as i64)) as u32
}

/// The joint workspace rectangle of a join (`None` when both relations
/// are empty).
fn join_workspace(rel_a: &Relation, rel_b: &Relation) -> Option<Rect> {
    Rect::bounding_rects(rel_a.iter().chain(rel_b.iter()).map(|o| o.mbr()))
}

/// A positive, finite extent (zero/degenerate axes padded to a unit
/// span, matching [`RasterGrid::new`]).
fn pad_extent(e: f64) -> f64 {
    if e > 0.0 && e.is_finite() {
        e
    } else {
        1.0
    }
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

    fn rel(regions: Vec<PolygonWithHoles>) -> Relation {
        Relation::from_regions(regions)
    }

    /// Oracle for `cell ⊆ region`: no boundary edge enters the cell's
    /// *interior* (grazing contact along the cell boundary is fine — the
    /// closed region still covers it) and the closed cell's corners and
    /// center are inside.
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

    /// Expands a signature back into `(cx, cy, is_full)` cells.
    fn cells_of(grid: &RasterGrid, sig: RasterSignature<'_>) -> Vec<(u32, u32, bool)> {
        let n = grid.cells_per_axis();
        let mut map = std::collections::HashMap::new();
        for cy in 0..n {
            for cx in 0..n {
                map.insert(hilbert_index(grid.bits(), cx, cy), (cx, cy));
            }
        }
        let is_full = |d: u32| sig.full().iter().any(|r| r.start <= d && d < r.end);
        let mut out = Vec::new();
        for run in sig.all() {
            for d in run.start..run.end {
                let (cx, cy) = map[&d];
                out.push((cx, cy, is_full(d)));
            }
        }
        out
    }

    fn runs(list: &[(u32, u32)]) -> Vec<CellRun> {
        list.iter()
            .map(|&(start, end)| CellRun { start, end })
            .collect()
    }

    #[test]
    fn hilbert_is_a_bijection_with_unit_steps() {
        for bits in [1u32, 2, 3, 4] {
            let n = 1u32 << bits;
            let mut seen = vec![false; (n * n) as usize];
            for y in 0..n {
                for x in 0..n {
                    let d = hilbert_index(bits, x, y);
                    assert!(d < n * n, "index out of range");
                    assert!(!seen[d as usize], "duplicate index {d}");
                    seen[d as usize] = true;
                }
            }
            // Consecutive indexes are grid neighbors (the defining
            // property that makes interval runs spatially coherent).
            let mut pos = vec![(0u32, 0u32); (n * n) as usize];
            for y in 0..n {
                for x in 0..n {
                    pos[hilbert_index(bits, x, y) as usize] = (x, y);
                }
            }
            for d in 1..(n * n) as usize {
                let (x0, y0) = pos[d - 1];
                let (x1, y1) = pos[d];
                assert_eq!(
                    x0.abs_diff(x1) + y0.abs_diff(y1),
                    1,
                    "bits {bits}: step {d} not a neighbor"
                );
            }
        }
    }

    /// The classic `xy2d` loop, the reference for the table-driven
    /// [`hilbert_index`].
    fn xy2d(bits: u32, mut x: u32, mut y: u32) -> u32 {
        let n = 1u32 << bits;
        let (mut d, mut s) = (0u32, n >> 1);
        while s > 0 {
            let rx = u32::from(x & s > 0);
            let ry = u32::from(y & s > 0);
            d += s * s * ((3 * rx) ^ ry);
            if ry == 0 {
                if rx == 1 {
                    x = n.wrapping_sub(1).wrapping_sub(x);
                    y = n.wrapping_sub(1).wrapping_sub(y);
                }
                std::mem::swap(&mut x, &mut y);
            }
            s >>= 1;
        }
        d
    }

    /// At every supported order, `hilbert_index` is the classic curve and
    /// `hilbert_cell` inverts it: on every cell up to 10 bits, on every
    /// 61st row beyond.
    #[test]
    fn hilbert_cell_inverts_hilbert_index() {
        for bits in 1..=MAX_GRID_BITS {
            for y in (0..1u32 << bits).step_by(if bits <= 10 { 1 } else { 61 }) {
                for x in 0..1u32 << bits {
                    let d = hilbert_index(bits, x, y);
                    assert_eq!(d, xy2d(bits, x, y), "bits {bits}, cell ({x}, {y})");
                    assert_eq!(hilbert_cell(bits, d), (x, y), "bits {bits}, index {d}");
                }
            }
        }
    }

    #[test]
    fn square_rasterizes_to_full_interior_and_partial_rim() {
        let region = poly(&[(0.0, 0.0), (8.0, 0.0), (8.0, 8.0), (0.0, 8.0)]);
        let grid = RasterGrid::new(Rect::from_bounds(0.0, 0.0, 8.0, 8.0), 3);
        let (all, full) = rasterize(&grid, &region);
        let store = RasterStore::build(&grid, &rel(vec![region.clone()]));
        assert_eq!(store.signature(0).all(), &all[..]);
        assert_eq!(store.signature(0).full(), &full[..]);
        // The square covers the whole workspace: A is the whole curve.
        assert_eq!(all, runs(&[(0, 64)]));
        let cells = cells_of(&grid, store.signature(0));
        assert_eq!(cells.len(), 64);
        for (cx, cy, full) in cells {
            if full {
                assert!(
                    cell_inside(&region, &grid.cell_rect(cx, cy)),
                    "cell ({cx},{cy}) marked FULL but not inside"
                );
            } else {
                // PARTIAL is exactly the boundary rim here.
                assert!(
                    cx == 0 || cx == 7 || cy == 0 || cy == 7,
                    "interior cell ({cx},{cy}) downgraded to PARTIAL"
                );
            }
        }
    }

    #[test]
    fn hole_interior_is_not_covered() {
        let outer = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(8.0, 0.0),
            Point::new(8.0, 8.0),
            Point::new(0.0, 8.0),
        ])
        .unwrap();
        let hole = Polygon::new(vec![
            Point::new(2.0, 2.0),
            Point::new(6.0, 2.0),
            Point::new(6.0, 6.0),
            Point::new(2.0, 6.0),
        ])
        .unwrap();
        let region = PolygonWithHoles::new(outer, vec![hole]);
        let grid = RasterGrid::new(Rect::from_bounds(0.0, 0.0, 8.0, 8.0), 3);
        let cells = cells_of(
            &grid,
            RasterStore::build(&grid, &rel(vec![region.clone()])).signature(0),
        );
        // Cells strictly inside the hole (3..5 × 3..5 at cell size 1)
        // must not appear at all.
        for (cx, cy, _) in &cells {
            assert!(
                !(((3..5).contains(cx)) && ((3..5).contains(cy))),
                "hole-interior cell ({cx},{cy}) stored"
            );
        }
        // FULL cells are truly inside the holed region.
        for (cx, cy, full) in cells {
            if full {
                assert!(cell_inside(&region, &grid.cell_rect(cx, cy)));
            }
        }
    }

    #[test]
    fn decide_hit_drop_inconclusive() {
        let grid = RasterGrid::new(Rect::from_bounds(0.0, 0.0, 16.0, 16.0), 4);
        let store = RasterStore::build(
            &grid,
            &rel(vec![
                // Fat square owning FULL cells.
                poly(&[(1.0, 1.0), (7.0, 1.0), (7.0, 7.0), (1.0, 7.0)]),
                // Overlapping fat square.
                poly(&[(4.0, 4.0), (10.0, 4.0), (10.0, 10.0), (4.0, 10.0)]),
                // Far-away square: disjoint cells.
                poly(&[(12.0, 12.0), (15.0, 12.0), (15.0, 15.0), (12.0, 15.0)]),
            ]),
        );
        assert_eq!(
            raster_decide(store.signature(0), store.signature(1)),
            RasterDecision::Hit
        );
        assert_eq!(
            raster_decide(store.signature(0), store.signature(2)),
            RasterDecision::Drop
        );
        // Two thin diagonals crossing: PARTIAL everywhere on a coarse
        // grid → inconclusive.
        let thin = RasterStore::build(
            &grid,
            &rel(vec![
                poly(&[(0.0, 0.1), (16.0, 15.9), (16.0, 16.0), (0.0, 0.2)]),
                poly(&[(0.0, 15.9), (16.0, 0.1), (16.0, 0.2), (0.0, 16.0)]),
            ]),
        );
        assert!(thin.signature(0).full().is_empty());
        assert_eq!(
            raster_decide(thin.signature(0), thin.signature(1)),
            RasterDecision::Inconclusive
        );
    }

    #[test]
    fn runs_overlap_handles_touching_empty_and_far_cursors() {
        let long: Vec<CellRun> = (0..1000)
            .map(|k| CellRun {
                start: 4 * k,
                end: 4 * k + 2,
            })
            .collect();
        for (probe, expect) in [
            (vec![], false),
            (runs(&[(2, 4)]), false), // touches both neighbors, overlaps neither
            (runs(&[(2, 5)]), true),  // one cell into the next run
            (runs(&[(3998, 3999)]), false), // the last gap
            (runs(&[(3997, 3998)]), true), // only the last run of the long list
            (runs(&[(2, 3), (6, 8), (3994, 3996), (3997, 4000)]), true),
            (runs(&[(4000, 4010)]), false), // past the end
        ] {
            assert_eq!(runs_overlap(&probe, &long), expect, "{probe:?}");
            assert_eq!(runs_overlap(&long, &probe), expect, "{probe:?} swapped");
        }
    }

    #[test]
    fn lists_are_canonical_and_full_sits_inside_all() {
        let region = poly(&[(0.5, 0.5), (11.0, 2.0), (9.0, 10.5), (2.0, 9.0)]);
        let grid = RasterGrid::new(Rect::from_bounds(0.0, 0.0, 12.0, 12.0), 5);
        let (all, full) = rasterize(&grid, &region);
        assert!(!all.is_empty() && !full.is_empty());
        for list in [&all, &full] {
            assert!(list.iter().all(|r| r.start < r.end));
            for pair in list.windows(2) {
                assert!(pair[0].end < pair[1].start, "unsorted or unmerged runs");
            }
        }
        for f in &full {
            assert!(
                all.iter().any(|a| a.start <= f.start && f.end <= a.end),
                "FULL run {f:?} outside A"
            );
        }
    }

    #[test]
    fn auto_bits_are_bounded_and_scale_with_density() {
        let coarse = rel(vec![poly(&[
            (0.0, 0.0),
            (8.0, 0.0),
            (8.0, 8.0),
            (0.0, 8.0),
        ])]);
        let b = auto_grid_bits(&coarse, &coarse.clone());
        assert!((MIN_GRID_BITS..=MAX_GRID_BITS).contains(&b));
        // Many small objects in a big workspace → finer grid than one
        // object filling the workspace.
        let dense = Relation::from_regions((0..64).map(|i| {
            let x = (i % 8) as f64 * 16.0;
            let y = (i / 8) as f64 * 16.0;
            poly(&[(x, y), (x + 1.0, y), (x + 1.0, y + 1.0), (x, y + 1.0)])
        }));
        let fine = auto_grid_bits(&dense, &dense.clone());
        assert!(
            fine > b,
            "denser workload must refine the grid ({fine} vs {b})"
        );
        assert!(fine <= MAX_GRID_BITS);
        // Empty relations fall back to the floor.
        assert_eq!(
            auto_grid_bits(&Relation::default(), &Relation::default()),
            MIN_GRID_BITS
        );
    }

    fn two_object_store() -> RasterStore {
        let a = rel(vec![
            poly(&[(0.0, 0.0), (6.0, 0.0), (6.0, 5.0), (0.0, 5.0)]),
            poly(&[(7.0, 1.0), (11.0, 2.0), (8.0, 9.0)]),
        ]);
        let grid = RasterGrid::new(Rect::from_bounds(0.0, 0.0, 12.0, 12.0), 4);
        RasterStore::build(&grid, &a)
    }

    #[test]
    fn image_round_trips_grid_and_signatures() {
        let store = two_object_store();
        let bytes = store.to_bytes();
        let back = RasterStore::from_bytes(&bytes).expect("own image decodes");
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.grid(), store.grid());
        assert_eq!(
            (back.len(), back.interval_count()),
            (2, store.interval_count())
        );
        let mut no_grid = bytes.clone();
        no_grid[32..36].copy_from_slice(&(MAX_GRID_BITS + 1).to_le_bytes());
        assert_eq!(
            RasterStore::from_bytes(&no_grid).err(),
            Some("raster grid bits out of range")
        );
        // Infinite cell sizes (bytes 16..32) are as malformed as zero.
        for at in [16, 24] {
            let mut infinite = bytes.clone();
            infinite[at..at + 8].copy_from_slice(&f64::INFINITY.to_le_bytes());
            assert_eq!(
                RasterStore::from_bytes(&infinite).err(),
                Some("raster grid geometry malformed")
            );
        }
        let empty = RasterStore::build(store.grid(), &Relation::default());
        assert!(RasterStore::from_bytes(&empty.to_bytes())
            .unwrap()
            .is_empty());
    }

    /// A checksum-valid image is still untrusted: every way a list can
    /// break the searches' preconditions must be refused by name.
    #[test]
    fn image_with_non_canonical_lists_is_refused() {
        let store = two_object_store();
        let refused = |edit: &dyn Fn(&mut RasterStore)| {
            let mut bad = store.clone();
            edit(&mut bad);
            RasterStore::from_bytes(&bad.to_bytes()).err()
        };
        assert!(store.all.list(0).len() >= 2 && !store.full.list(0).is_empty());
        let canonical = Some("raster run list not canonical");
        // Unsorted: the first two runs of object 0 swapped.
        assert_eq!(refused(&|s| s.all.runs.swap(0, 1)), canonical);
        // Touching: a run stretched to its successor's start.
        assert_eq!(
            refused(&|s| s.all.runs[0].end = s.all.runs[1].start),
            canonical
        );
        // Overlapping.
        assert_eq!(
            refused(&|s| s.all.runs[0].end = s.all.runs[1].start + 1),
            canonical
        );
        // Empty and inverted runs.
        assert_eq!(
            refused(&|s| s.full.runs[0].end = s.full.runs[0].start),
            canonical
        );
        // Past the end of the curve (4^bits cells).
        assert_eq!(
            refused(&|s| s.all.runs.last_mut().unwrap().end = 257),
            canonical
        );
        // F outside A: object 0's first FULL run loses its first cell
        // from A (the A run that held it now starts one cell later).
        assert_eq!(
            refused(&|s| {
                let f = s.full.runs[0];
                let a = s.all.runs.iter_mut().find(|a| a.end >= f.end).unwrap();
                assert!(a.start <= f.start && f.start + 1 < a.end);
                a.start = f.start + 1;
            }),
            Some("raster F list not inside its A list")
        );
        // Columns over different object counts.
        assert_eq!(
            refused(&|s| {
                let end = *s.full.offsets.last().unwrap();
                s.full.offsets.push(end);
            }),
            Some("raster A and F columns differ in object count")
        );
    }

    #[test]
    fn grid_covering_unions_both_relations() {
        let a = rel(vec![poly(&[
            (0.0, 0.0),
            (2.0, 0.0),
            (2.0, 2.0),
            (0.0, 2.0),
        ])]);
        let b = rel(vec![poly(&[
            (10.0, 10.0),
            (12.0, 10.0),
            (12.0, 12.0),
            (10.0, 12.0),
        ])]);
        let g = RasterGrid::covering(&a, &b, 4).expect("workspace");
        let (cx0, cy0, cx1, cy1) = g.cell_range(&Rect::from_bounds(0.0, 0.0, 12.0, 12.0));
        assert_eq!((cx0, cy0), (0, 0));
        assert_eq!((cx1, cy1), (g.cells_per_axis() - 1, g.cells_per_axis() - 1));
        assert!(RasterGrid::covering(&Relation::default(), &Relation::default(), 4).is_none());
        // A width that overflows to infinity has no grid either.
        let far = rel(vec![poly(&[
            (1e308 - 2e300, 0.0),
            (1e308 - 1e300, 0.0),
            (1e308 - 1e300, 1e300),
            (1e308 - 2e300, 1e300),
        ])]);
        let near = rel(vec![poly(&[
            (-1e308, 0.0),
            (-1e308 + 1e300, 0.0),
            (-1e308 + 1e300, 1e300),
            (-1e308, 1e300),
        ])]);
        assert!(RasterGrid::covering(&near, &far, 4).is_none());
    }
}

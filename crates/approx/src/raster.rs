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
//! The classified cells are stored as **sorted Hilbert-order cell-ID
//! intervals** with a per-interval class bit, one flat interval arena plus
//! a per-object offset table (the same struct-of-arrays discipline as
//! [`crate::store`]). Two signatures are compared by a merge-intersect of
//! their sorted interval lists ([`raster_decide`]):
//!
//! * an overlapping cell run where either side is FULL proves the objects
//!   **intersect** (FULL ∩ any ≠ ∅: the cell is covered by one object and
//!   touched by the other);
//! * an empty intersection proves the objects are **disjoint** (the cell
//!   sets cover the objects entirely);
//! * PARTIAL-only overlap is **inconclusive** and falls through to the
//!   conservative/progressive chain.
//!
//! This is the raster-interval technique of Georgiadis, Tzirita
//! Zacharatou & Mamoulis ("Raster Interval Object Approximations for
//! Spatial Intersection Joins"), adapted to this workspace's columnar
//! stores and batch protocol.

use msj_geom::bytes::{Dec, DecResult, Enc};
use msj_geom::{KernelDispatch, ObjectId, Point, PolygonWithHoles, Rect, Relation, Segment};

/// Smallest sensible grid resolution (`2^2 = 4` cells per axis).
pub const MIN_GRID_BITS: u32 = 2;
/// Largest supported grid resolution (`2^12 = 4096` cells per axis; the
/// Hilbert index then spans 24 bits, leaving the class bit and headroom
/// in a `u32`).
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
    /// are empty (no workspace to cover).
    pub fn covering(rel_a: &Relation, rel_b: &Relation, bits: u32) -> Option<Self> {
        Some(RasterGrid::new(join_workspace(rel_a, rel_b)?, bits))
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

    /// The cell column of coordinate `x`, clamped to the grid.
    #[inline]
    fn col(&self, x: f64) -> u32 {
        let n = self.cells_per_axis();
        let i = ((x - self.origin.x) / self.cell_w).floor();
        (i.max(0.0) as u32).min(n - 1)
    }

    /// The cell row of coordinate `y`, clamped to the grid.
    #[inline]
    fn row(&self, y: f64) -> u32 {
        let n = self.cells_per_axis();
        let i = ((y - self.origin.y) / self.cell_h).floor();
        (i.max(0.0) as u32).min(n - 1)
    }

    /// Inclusive cell range `(cx0, cy0, cx1, cy1)` covering `r`.
    #[inline]
    pub fn cell_range(&self, r: &Rect) -> (u32, u32, u32, u32) {
        (
            self.col(r.xmin()),
            self.row(r.ymin()),
            self.col(r.xmax()),
            self.row(r.ymax()),
        )
    }
}

/// Maps cell coordinates to their index on the Hilbert curve of order
/// `bits` (the classic `xy2d` construction). Hilbert order keeps
/// spatially adjacent cells numerically adjacent, so contiguous object
/// areas collapse into few intervals.
pub fn hilbert_index(bits: u32, mut x: u32, mut y: u32) -> u32 {
    let n = 1u32 << bits;
    let mut d = 0u32;
    let mut s = n >> 1;
    while s > 0 {
        let rx = u32::from(x & s > 0);
        let ry = u32::from(y & s > 0);
        d += s * s * ((3 * rx) ^ ry);
        // Rotate the quadrant so the curve connects.
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

/// Class of a rasterized cell (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellClass {
    /// Cell entirely inside the closed region.
    Full,
    /// The region boundary passes through the cell.
    Partial,
}

/// One run of consecutive Hilbert cell IDs sharing a class, packed into
/// 8 bytes: the class bit lives in the top bit of the exclusive end
/// (Hilbert indexes use at most `2 * MAX_GRID_BITS = 24` bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct RasterInterval {
    start: u32,
    end_class: u32,
}

const FULL_BIT: u32 = 1 << 31;

impl RasterInterval {
    /// An interval covering cells `start..end` of class `class`.
    #[inline]
    pub fn new(start: u32, end: u32, class: CellClass) -> Self {
        debug_assert!(start < end && end < FULL_BIT);
        RasterInterval {
            start,
            end_class: end
                | if class == CellClass::Full {
                    FULL_BIT
                } else {
                    0
                },
        }
    }

    /// First covered Hilbert cell ID.
    #[inline]
    pub fn start(&self) -> u32 {
        self.start
    }

    /// One past the last covered Hilbert cell ID.
    #[inline]
    pub fn end(&self) -> u32 {
        self.end_class & !FULL_BIT
    }

    /// Whether every cell of the interval is FULL.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.end_class & FULL_BIT != 0
    }
}

/// Borrow-only view of one object's signature: its sorted,
/// non-overlapping intervals in the flat arena.
#[derive(Debug, Clone, Copy)]
pub struct RasterSignature<'a> {
    intervals: &'a [RasterInterval],
}

impl<'a> RasterSignature<'a> {
    /// A view over an externally held interval slice — must be sorted
    /// and non-overlapping, as produced by [`rasterize`].
    pub fn from_intervals(intervals: &'a [RasterInterval]) -> Self {
        RasterSignature { intervals }
    }

    /// The sorted interval run.
    #[inline]
    pub fn intervals(&self) -> &'a [RasterInterval] {
        self.intervals
    }

    /// Number of intervals (0 for an object that rasterized to nothing —
    /// cannot happen for constructed polygons, which have positive area).
    #[inline]
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
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

/// Merge-intersect of two sorted interval lists: the whole Step-2a test,
/// branch-light and allocation-free. This is the scalar reference;
/// [`raster_decide_with`] selects a wide path that evaluates the same
/// decision predicate four interval endpoints at a time.
pub fn raster_decide(a: RasterSignature<'_>, b: RasterSignature<'_>) -> RasterDecision {
    let (xs, ys) = (a.intervals, b.intervals);
    let (mut i, mut j) = (0usize, 0usize);
    let mut overlapped = false;
    while i < xs.len() && j < ys.len() {
        let x = xs[i];
        let y = ys[j];
        let lo = x.start().max(y.start());
        let hi = x.end().min(y.end());
        if lo < hi {
            if x.is_full() || y.is_full() {
                return RasterDecision::Hit;
            }
            overlapped = true;
        }
        // Advance whichever run ends first.
        if x.end() <= y.end() {
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

/// [`raster_decide`] under an explicit [`KernelDispatch`]: the decision
/// is a pure existential predicate over overlapping interval pairs
/// (*any* overlap with a FULL side → `Hit`; *any* overlap → at least
/// `Inconclusive`; none → `Drop`), so evaluation order cannot change the
/// outcome and the wide paths are decision-identical to the scalar
/// merge by construction (and by test).
///
/// The wide paths walk the shorter-signature side `x` and scan the
/// partner's candidate window four intervals at a time: a
/// `#[repr(C)]` [`RasterInterval`] is a `(start, end|class)` `u32`
/// pair, so a 4-interval block is eight lanes deinterleaved into a
/// start vector and an end vector; the FULL class bit (bit 31) is an
/// arithmetic-shift mask applied vectorwise, and all compares are
/// signed 32-bit (Hilbert indexes use at most 24 bits).
pub fn raster_decide_with(
    d: KernelDispatch,
    a: RasterSignature<'_>,
    b: RasterSignature<'_>,
) -> RasterDecision {
    match d {
        KernelDispatch::Scalar => raster_decide(a, b),
        #[cfg(target_arch = "x86_64")]
        KernelDispatch::Sse2 | KernelDispatch::Avx2 => raster_decide_wide(a, b),
        #[cfg(not(target_arch = "x86_64"))]
        _ => raster_decide(a, b),
    }
}

/// Block-scanning evaluation of the Step-2a predicate (see
/// [`raster_decide_with`]). Outer loop over `a`'s intervals with a
/// rolling lower bound into `b`; the 4-wide SSE2 inner block test works
/// on every x86-64 (SSE2 is baseline), so both wide dispatch paths
/// share it.
#[cfg(target_arch = "x86_64")]
fn raster_decide_wide(a: RasterSignature<'_>, b: RasterSignature<'_>) -> RasterDecision {
    use std::arch::x86_64::*;
    let (xs, ys) = (a.intervals, b.intervals);
    if xs.is_empty() || ys.is_empty() {
        return RasterDecision::Drop;
    }
    let mut overlapped = false;
    // Rolling start of y's candidate window: ys are sorted and
    // non-overlapping, and xs only move right, so the window start is
    // monotone.
    let mut j0 = 0usize;
    unsafe {
        for x in xs {
            let (x_start, x_end, x_full) = (x.start() as i32, x.end() as i32, x.is_full());
            while j0 < ys.len() && (ys[j0].end() as i32) <= x_start {
                j0 += 1;
            }
            if j0 == ys.len() {
                break;
            }
            let xs_start = _mm_set1_epi32(x_start);
            let xs_end = _mm_set1_epi32(x_end);
            let mut j = j0;
            loop {
                if j + 4 <= ys.len() {
                    // Deinterleave 4 intervals: [s0 e0 s1 e1 | s2 e2 s3 e3]
                    // → starts [s0..s3], raw ends [e0..e3].
                    let v0 = _mm_loadu_si128(ys.as_ptr().add(j) as *const __m128i);
                    let v1 = _mm_loadu_si128(ys.as_ptr().add(j + 2) as *const __m128i);
                    let p0 = _mm_shuffle_epi32::<0b11_01_10_00>(v0);
                    let p1 = _mm_shuffle_epi32::<0b11_01_10_00>(v1);
                    let starts = _mm_unpacklo_epi64(p0, p1);
                    let ends_raw = _mm_unpackhi_epi64(p0, p1);
                    // FULL lanes: the class bit is bit 31, so an
                    // arithmetic shift turns it into an all-ones mask.
                    let full = _mm_srai_epi32::<31>(ends_raw);
                    let ends = _mm_andnot_si128(_mm_set1_epi32(i32::MIN), ends_raw);
                    // Overlap of non-empty runs: y.start < x.end  ∧
                    // x.start < y.end.
                    let ov = _mm_and_si128(
                        _mm_cmplt_epi32(starts, xs_end),
                        _mm_cmpgt_epi32(ends, xs_start),
                    );
                    let ov_bits = _mm_movemask_epi8(ov);
                    if ov_bits != 0 {
                        if x_full || _mm_movemask_epi8(_mm_and_si128(ov, full)) != 0 {
                            return RasterDecision::Hit;
                        }
                        overlapped = true;
                    }
                    // Every later y starts at or beyond this block's last
                    // start; if that is already past x, x is done.
                    if ys[j + 3].start() as i32 >= x_end {
                        break;
                    }
                    j += 4;
                } else {
                    // Scalar tail of the window.
                    while j < ys.len() {
                        let y = ys[j];
                        if y.start() as i32 >= x_end {
                            break;
                        }
                        if (y.end() as i32) > x_start {
                            if x_full || y.is_full() {
                                return RasterDecision::Hit;
                            }
                            overlapped = true;
                        }
                        j += 1;
                    }
                    break;
                }
            }
        }
    }
    if overlapped {
        RasterDecision::Inconclusive
    } else {
        RasterDecision::Drop
    }
}

/// Rasterizes one region on `grid`: every cell intersecting the closed
/// region appears in the result, classified FULL or PARTIAL, merged into
/// sorted Hilbert-order intervals.
///
/// Two passes over the cell block of the region's MBR:
///
/// 1. **boundary** — each edge walks its cell rows and, per row, only
///    the columns its segment's y-band clip can touch (±1 column of
///    float slack; the closed segment-rectangle test remains the
///    arbiter), marking intersected cells PARTIAL — the cost tracks the
///    cells the boundary actually crosses, not the edge-MBR block area
///    (a diagonal needle visits O(cells per axis) cells, not their
///    square);
/// 2. **interior** — per cell row, one even–odd scanline through the row
///    center collects the crossings of all rings; unmarked cells with an
///    interior center are FULL. A cell untouched by any edge is entirely
///    inside or entirely outside, so the center decides exactly.
pub fn rasterize(grid: &RasterGrid, region: &PolygonWithHoles) -> Vec<RasterInterval> {
    let (cx0, cy0, cx1, cy1) = grid.cell_range(&region.mbr());
    let w = (cx1 - cx0 + 1) as usize;
    let h = (cy1 - cy0 + 1) as usize;
    // 0 = outside, 1 = PARTIAL, 2 = FULL.
    let mut classes = vec![0u8; w * h];

    // Pass 1: boundary cells, by per-row band clipping of each edge.
    for edge in region.edges() {
        let (ex0, ey0, ex1, ey1) = grid.cell_range(&edge.mbr());
        for cy in ey0.max(cy0)..=ey1.min(cy1) {
            // The x-extent of the segment within this row's y-band; x is
            // linear in t, so clamping t to the band endpoints bounds it.
            let band = grid.cell_rect(ex0, cy);
            let (sx0, sx1) = if edge.a.y == edge.b.y {
                (edge.a.x.min(edge.b.x), edge.a.x.max(edge.b.x))
            } else {
                let t0 = ((band.ymin() - edge.a.y) / (edge.b.y - edge.a.y)).clamp(0.0, 1.0);
                let t1 = ((band.ymax() - edge.a.y) / (edge.b.y - edge.a.y)).clamp(0.0, 1.0);
                let x0 = edge.a.x + t0 * (edge.b.x - edge.a.x);
                let x1 = edge.a.x + t1 * (edge.b.x - edge.a.x);
                (x0.min(x1), x0.max(x1))
            };
            let lo = grid.col(sx0).saturating_sub(1).max(ex0.max(cx0));
            let hi = (grid.col(sx1) + 1).min(ex1.min(cx1));
            for cx in lo..=hi {
                let slot = &mut classes[(cy - cy0) as usize * w + (cx - cx0) as usize];
                if *slot == 0 && edge.intersects_rect(&grid.cell_rect(cx, cy)) {
                    *slot = 1;
                }
            }
        }
    }

    // Pass 2: interior fill by scanline parity at row centers.
    let mut crossings: Vec<f64> = Vec::new();
    let edges: Vec<Segment> = region.edges().collect();
    for cy in cy0..=cy1 {
        let row = (cy - cy0) as usize;
        if classes[row * w..(row + 1) * w].iter().all(|&c| c != 0) {
            continue; // fully boundary-marked row
        }
        let y = grid.cell_rect(cx0, cy).center().y;
        crossings.clear();
        for e in &edges {
            // Half-open rule, identical to the point-in-polygon test.
            if (e.a.y > y) != (e.b.y > y) {
                crossings.push(e.a.x + (y - e.a.y) / (e.b.y - e.a.y) * (e.b.x - e.a.x));
            }
        }
        crossings.sort_unstable_by(f64::total_cmp);
        // Walk the row once; parity = crossings strictly left of the
        // center. An unmarked cell's center is never on the boundary
        // (the edge would intersect the cell), so the parity is exact.
        let mut k = 0usize;
        for cx in cx0..=cx1 {
            let slot = &mut classes[row * w + (cx - cx0) as usize];
            let x = grid.cell_rect(cx, cy).center().x;
            while k < crossings.len() && crossings[k] < x {
                k += 1;
            }
            if *slot == 0 && k % 2 == 1 {
                *slot = 2;
            }
        }
    }

    // Collect classified cells in Hilbert order and merge runs.
    let mut cells: Vec<(u32, CellClass)> = Vec::new();
    for cy in cy0..=cy1 {
        for cx in cx0..=cx1 {
            match classes[(cy - cy0) as usize * w + (cx - cx0) as usize] {
                0 => {}
                1 => cells.push((hilbert_index(grid.bits, cx, cy), CellClass::Partial)),
                _ => cells.push((hilbert_index(grid.bits, cx, cy), CellClass::Full)),
            }
        }
    }
    cells.sort_unstable_by_key(|&(d, _)| d);
    let mut intervals: Vec<RasterInterval> = Vec::new();
    for (d, class) in cells {
        match intervals.last_mut() {
            Some(last) if last.end() == d && last.is_full() == (class == CellClass::Full) => {
                *last = RasterInterval::new(last.start(), d + 1, class);
            }
            _ => intervals.push(RasterInterval::new(d, d + 1, class)),
        }
    }
    intervals
}

/// Per-relation raster signatures in columnar layout: one flat interval
/// arena plus a per-object offset table. Built once in Step 0 and shared
/// read-only across all workers.
#[derive(Debug, Clone)]
pub struct RasterStore {
    grid: RasterGrid,
    offsets: Vec<u32>,
    intervals: Vec<RasterInterval>,
}

impl RasterStore {
    /// Rasterizes every object of `relation` on `grid`.
    pub fn build(grid: &RasterGrid, relation: &Relation) -> Self {
        let mut offsets = Vec::with_capacity(relation.len() + 1);
        let mut intervals = Vec::new();
        offsets.push(0u32);
        for o in relation.iter() {
            intervals.extend(rasterize(grid, &o.region));
            offsets
                .push(u32::try_from(intervals.len()).expect("interval arena exceeds u32 offsets"));
        }
        RasterStore {
            grid: *grid,
            offsets,
            intervals,
        }
    }

    /// The grid all signatures of this store live on.
    #[inline]
    pub fn grid(&self) -> &RasterGrid {
        &self.grid
    }

    /// The signature of object `id` (borrow-only view into the arena).
    #[inline]
    pub fn signature(&self, id: ObjectId) -> RasterSignature<'_> {
        let i = id as usize;
        RasterSignature {
            intervals: &self.intervals[self.offsets[i] as usize..self.offsets[i + 1] as usize],
        }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total intervals across all objects (the arena length — 8 bytes
    /// each, the storage cost of the stage).
    pub fn interval_count(&self) -> usize {
        self.intervals.len()
    }

    /// FNV-1a checksum over the whole store — grid geometry, offset
    /// table, and interval arena. Recorded when the store is built and
    /// re-verified before a join trusts the Step-2a pre-filter; a
    /// mismatch means corrupted signatures, and the engine falls back to
    /// the filter-only path rather than risk wrong join answers.
    pub fn checksum(&self) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mut byte = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        };
        for word in [self.grid.bits() as u64, self.offsets.len() as u64] {
            for b in word.to_le_bytes() {
                byte(b);
            }
        }
        for &off in &self.offsets {
            for b in off.to_le_bytes() {
                byte(b);
            }
        }
        for iv in &self.intervals {
            for b in iv.start().to_le_bytes() {
                byte(b);
            }
            for b in iv.end().to_le_bytes() {
                byte(b);
            }
            byte(iv.is_full() as u8);
        }
        h
    }

    /// The store as its persistent image: the grid geometry as raw scalars
    /// (`origin.x`, `origin.y`, `cell_w`, `cell_h` as `f64`, `bits: u32`),
    /// the counted offset table (`len + 1` entries) and the interval arena
    /// as counted `(start, end_class)` word pairs — the packed class bit
    /// included, so signatures round-trip bit-exactly.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(52 + 4 * self.offsets.len() + 8 * self.intervals.len());
        e.f64(self.grid.origin.x);
        e.f64(self.grid.origin.y);
        e.f64(self.grid.cell_w);
        e.f64(self.grid.cell_h);
        e.u32(self.grid.bits);
        e.u32s(&self.offsets);
        e.count(2 * self.intervals.len());
        for iv in &self.intervals {
            e.u32(iv.start);
            e.u32(iv.end_class);
        }
        e.into_bytes()
    }

    /// Adopts a [`RasterStore::to_bytes`] image without re-rasterizing.
    /// The grid is restored verbatim (no re-clamping — the stored values
    /// came from a validly constructed grid), so [`RasterStore::checksum`]
    /// of the result equals the written store's.
    pub fn from_bytes(bytes: &[u8]) -> DecResult<Self> {
        let mut d = Dec::new(bytes);
        let origin = Point::new(d.f64()?, d.f64()?);
        let (cell_w, cell_h) = (d.f64()?, d.f64()?);
        let bits = d.u32()?;
        let offsets = d.u32s()?.to_vec();
        let words = d.u32s()?;
        d.finish()?;
        if !(MIN_GRID_BITS..=MAX_GRID_BITS).contains(&bits) {
            return Err("raster grid bits out of range");
        }
        if !(cell_w > 0.0 && cell_h > 0.0 && origin.is_finite()) {
            return Err("raster grid geometry malformed");
        }
        if !words.len().is_multiple_of(2) {
            return Err("raster interval arena truncated");
        }
        let count = words.len() / 2;
        if offsets.first() != Some(&0)
            || offsets.last().map(|&o| o as usize) != Some(count)
            || offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err("raster offset table malformed");
        }
        let intervals = (0..count)
            .map(|i| RasterInterval {
                start: words.get(2 * i),
                end_class: words.get(2 * i + 1),
            })
            .collect();
        Ok(RasterStore {
            grid: RasterGrid {
                origin,
                cell_w,
                cell_h,
                bits,
            },
            offsets,
            intervals,
        })
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

    /// Expands a signature back into `(cx, cy, class)` cells.
    fn cells_of(grid: &RasterGrid, sig: RasterSignature<'_>) -> Vec<(u32, u32, CellClass)> {
        let n = grid.cells_per_axis();
        let mut map = std::collections::HashMap::new();
        for cy in 0..n {
            for cx in 0..n {
                map.insert(hilbert_index(grid.bits(), cx, cy), (cx, cy));
            }
        }
        let mut out = Vec::new();
        for iv in sig.intervals() {
            for d in iv.start()..iv.end() {
                let (cx, cy) = map[&d];
                let class = if iv.is_full() {
                    CellClass::Full
                } else {
                    CellClass::Partial
                };
                out.push((cx, cy, class));
            }
        }
        out
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

    #[test]
    fn square_rasterizes_to_full_interior_and_partial_rim() {
        let region = poly(&[(0.0, 0.0), (8.0, 0.0), (8.0, 8.0), (0.0, 8.0)]);
        let grid = RasterGrid::new(Rect::from_bounds(0.0, 0.0, 8.0, 8.0), 3);
        let sig_intervals = rasterize(&grid, &region);
        let store = RasterStore::build(&grid, &rel(vec![region.clone()]));
        assert_eq!(store.signature(0).intervals(), &sig_intervals[..]);
        let cells = cells_of(&grid, store.signature(0));
        // The square covers the whole workspace: all 64 cells appear.
        assert_eq!(cells.len(), 64);
        for (cx, cy, class) in cells {
            if class == CellClass::Full {
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
        for (cx, cy, class) in cells {
            if class == CellClass::Full {
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
        assert!(thin.signature(0).intervals().iter().all(|i| !i.is_full()));
        assert_eq!(
            raster_decide(thin.signature(0), thin.signature(1)),
            RasterDecision::Inconclusive
        );
    }

    /// The wide merge-intersect must produce the identical decision as
    /// the scalar two-pointer reference on every signature pair —
    /// including interval counts at every lane boundary (len % 4 ∈
    /// {0,1,2,3}) and hand-built adversarial lists.
    #[test]
    fn raster_decide_with_matches_scalar_reference() {
        // Real signatures from rasterized workloads.
        let grid = RasterGrid::new(Rect::from_bounds(0.0, 0.0, 32.0, 32.0), 6);
        let rel_a = msj_datagen::small_carto(40, 30.0, 9301);
        let rel_b = msj_datagen::skewed_carto(40, 30.0, 9302);
        let sa = RasterStore::build(&grid, &rel_a);
        let sb = RasterStore::build(&grid, &rel_b);
        for d in KernelDispatch::all_available() {
            for i in 0..rel_a.len() as u32 {
                for j in 0..rel_b.len() as u32 {
                    assert_eq!(
                        raster_decide_with(d, sa.signature(i), sb.signature(j)),
                        raster_decide(sa.signature(i), sb.signature(j)),
                        "{d:?} diverged on pair ({i},{j})"
                    );
                }
            }
        }
        // Synthetic lists at every block length and class mix.
        let mk = |runs: &[(u32, u32, bool)]| -> Vec<RasterInterval> {
            runs.iter()
                .map(|&(s, e, full)| {
                    RasterInterval::new(
                        s,
                        e,
                        if full {
                            CellClass::Full
                        } else {
                            CellClass::Partial
                        },
                    )
                })
                .collect()
        };
        let mut lists: Vec<Vec<RasterInterval>> = vec![
            vec![],
            mk(&[(0, 1, false)]),
            mk(&[(5, 9, true)]),
            mk(&[(0, 2, false), (4, 6, true), (8, 10, false)]),
        ];
        // Lengths 1..=9 alternating classes, gapped and adjacent runs.
        for n in 1..=9u32 {
            lists.push(
                (0..n)
                    .map(|k| {
                        RasterInterval::new(
                            3 * k,
                            3 * k + 2,
                            if k % 2 == 0 {
                                CellClass::Partial
                            } else {
                                CellClass::Full
                            },
                        )
                    })
                    .collect(),
            );
            lists.push(
                (0..n)
                    .map(|k| RasterInterval::new(2 * k + 1, 2 * k + 2, CellClass::Partial))
                    .collect(),
            );
        }
        for d in KernelDispatch::all_available() {
            for xs in &lists {
                for ys in &lists {
                    let a = RasterSignature::from_intervals(xs);
                    let b = RasterSignature::from_intervals(ys);
                    assert_eq!(
                        raster_decide_with(d, a, b),
                        raster_decide(a, b),
                        "{d:?} diverged on {xs:?} vs {ys:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn interval_packing_round_trips() {
        let iv = RasterInterval::new(17, 42, CellClass::Full);
        assert_eq!(iv.start(), 17);
        assert_eq!(iv.end(), 42);
        assert!(iv.is_full());
        let iv = RasterInterval::new(0, 1, CellClass::Partial);
        assert!(!iv.is_full());
        assert_eq!((iv.start(), iv.end()), (0, 1));
        assert_eq!(std::mem::size_of::<RasterInterval>(), 8);
    }

    #[test]
    fn signatures_are_sorted_and_disjoint() {
        let region = poly(&[(0.5, 0.5), (11.0, 2.0), (9.0, 10.5), (2.0, 9.0)]);
        let grid = RasterGrid::new(Rect::from_bounds(0.0, 0.0, 12.0, 12.0), 5);
        let ivs = rasterize(&grid, &region);
        assert!(!ivs.is_empty());
        for pair in ivs.windows(2) {
            assert!(pair[0].end() <= pair[1].start(), "unsorted/overlapping");
            // Adjacent same-class runs must have been merged.
            assert!(
                pair[0].end() < pair[1].start() || pair[0].is_full() != pair[1].is_full(),
                "unmerged adjacent runs"
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

    #[test]
    fn image_round_trips_grid_signatures_and_checksum() {
        let a = rel(vec![
            poly(&[(0.0, 0.0), (6.0, 0.0), (6.0, 5.0), (0.0, 5.0)]),
            poly(&[(7.0, 1.0), (11.0, 2.0), (8.0, 9.0)]),
        ]);
        let grid = RasterGrid::new(Rect::from_bounds(0.0, 0.0, 12.0, 12.0), 4);
        let store = RasterStore::build(&grid, &a);
        let bytes = store.to_bytes();
        let back = RasterStore::from_bytes(&bytes).expect("own image decodes");
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.grid(), store.grid());
        assert_eq!(back.checksum(), store.checksum());
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
        let empty = RasterStore::build(&grid, &Relation::default());
        assert!(RasterStore::from_bytes(&empty.to_bytes())
            .unwrap()
            .is_empty());
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
    }
}

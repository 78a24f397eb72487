//! The uniform grid: tile addressing, MBR-to-tile assignment, and the
//! single-relation [`GridIndex`] for selection queries.

use msj_geom::{ObjectId, Point, Rect};

/// A uniform `n × n` tiling of a bounding universe.
///
/// Tiles are half-open on their upper edges (the last row/column closes
/// the universe boundary), so every point of the universe belongs to
/// exactly one tile — the property the reference-point deduplication
/// relies on.
#[derive(Debug, Clone, Copy)]
pub struct Grid {
    universe: Rect,
    tiles_per_axis: usize,
}

impl Grid {
    /// A grid over `universe` with `tiles_per_axis ≥ 1` tiles per side.
    pub fn new(universe: Rect, tiles_per_axis: usize) -> Self {
        Grid {
            universe,
            tiles_per_axis: tiles_per_axis.max(1),
        }
    }

    /// The grid covering the MBRs of both inputs; `None` when both are
    /// empty.
    pub fn covering(
        a: &[(Rect, ObjectId)],
        b: &[(Rect, ObjectId)],
        tiles_per_axis: usize,
    ) -> Option<Self> {
        let universe = a
            .iter()
            .chain(b.iter())
            .map(|(r, _)| *r)
            .reduce(|u, r| u.union(&r))?;
        Some(Grid::new(universe, tiles_per_axis))
    }

    pub fn tiles_per_axis(&self) -> usize {
        self.tiles_per_axis
    }

    /// Total number of tiles (`n²`).
    pub fn tile_count(&self) -> usize {
        self.tiles_per_axis * self.tiles_per_axis
    }

    pub fn universe(&self) -> Rect {
        self.universe
    }

    /// Column index of an x coordinate, clamped into the grid.
    #[inline]
    fn column(&self, x: f64) -> usize {
        let w = self.universe.width();
        if w <= 0.0 {
            return 0;
        }
        let t = (x - self.universe.xmin()) / w * self.tiles_per_axis as f64;
        (t.floor() as i64).clamp(0, self.tiles_per_axis as i64 - 1) as usize
    }

    /// Row index of a y coordinate, clamped into the grid.
    #[inline]
    fn row(&self, y: f64) -> usize {
        let h = self.universe.height();
        if h <= 0.0 {
            return 0;
        }
        let t = (y - self.universe.ymin()) / h * self.tiles_per_axis as f64;
        (t.floor() as i64).clamp(0, self.tiles_per_axis as i64 - 1) as usize
    }

    /// The tile containing a point (clamped into the universe).
    #[inline]
    pub fn tile_of(&self, p: Point) -> usize {
        self.row(p.y) * self.tiles_per_axis + self.column(p.x)
    }

    /// The inclusive `(col_lo, col_hi, row_lo, row_hi)` tile span of a
    /// rectangle.
    #[inline]
    pub fn tile_span(&self, r: &Rect) -> (usize, usize, usize, usize) {
        (
            self.column(r.xmin()),
            self.column(r.xmax()),
            self.row(r.ymin()),
            self.row(r.ymax()),
        )
    }

    /// All tiles a rectangle overlaps, in row-major order.
    pub fn tiles_of(&self, r: &Rect) -> impl Iterator<Item = usize> + '_ {
        let (c0, c1, r0, r1) = self.tile_span(r);
        (r0..=r1).flat_map(move |row| (c0..=c1).map(move |col| row * self.tiles_per_axis + col))
    }

    /// The reference point of an intersecting pair: the lower-left corner
    /// of the MBR intersection. Each pair has exactly one, in exactly one
    /// tile.
    #[inline]
    pub fn reference_tile(&self, a: &Rect, b: &Rect) -> usize {
        self.tile_of(Point::new(a.xmin().max(b.xmin()), a.ymin().max(b.ymin())))
    }

    /// Distributes `(rect, id)` items into per-tile buckets with
    /// replication; returns the buckets plus the total assignment count.
    pub fn assign(&self, items: &[(Rect, ObjectId)]) -> (Vec<Vec<(Rect, ObjectId)>>, u64) {
        let mut buckets: Vec<Vec<(Rect, ObjectId)>> = vec![Vec::new(); self.tile_count()];
        let mut assignments = 0u64;
        for &(rect, id) in items {
            for tile in self.tiles_of(&rect) {
                buckets[tile].push((rect, id));
                assignments += 1;
            }
        }
        (buckets, assignments)
    }
}

/// A grid over one relation's MBRs: the Step-1 candidate index for
/// selection (point / window) queries.
///
/// Candidates are MBR hits exactly as with the R*-tree; the multi-step
/// filter and exact steps downstream are unchanged.
#[derive(Debug, Clone)]
pub struct GridIndex {
    grid: Option<Grid>,
    buckets: Vec<Vec<(Rect, ObjectId)>>,
    /// Total tile assignments (≥ item count; the excess is replication).
    pub assignments: u64,
    len: usize,
}

impl GridIndex {
    /// Builds the index with `tiles_per_axis` tiles per side.
    pub fn build(items: &[(Rect, ObjectId)], tiles_per_axis: usize) -> Self {
        let Some(grid) = Grid::covering(items, &[], tiles_per_axis) else {
            return GridIndex {
                grid: None,
                buckets: Vec::new(),
                assignments: 0,
                len: 0,
            };
        };
        let (buckets, assignments) = grid.assign(items);
        GridIndex {
            grid: Some(grid),
            buckets,
            assignments,
            len: items.len(),
        }
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ids whose MBR contains `p`. Exactly one tile is probed (a point
    /// lies in one tile), so no deduplication is needed.
    pub fn point_candidates(&self, p: Point, out: &mut Vec<ObjectId>) -> u64 {
        let Some(grid) = &self.grid else { return 0 };
        if !grid.universe().contains_point(p) {
            return 0;
        }
        let mut tests = 0u64;
        for (rect, id) in &self.buckets[grid.tile_of(p)] {
            tests += 1;
            if rect.contains_point(p) {
                out.push(*id);
            }
        }
        tests
    }

    /// Ids whose MBR intersects `window`, each with whether the window
    /// provably meets its object ([`Rect::covers_an_extent_of`]) pushed
    /// onto `proved`. Every overlapping tile is probed; a replicated
    /// rectangle is counted only in the tile holding the reference point
    /// of its intersection with the window.
    pub fn window_candidates(
        &self,
        window: Rect,
        out: &mut Vec<ObjectId>,
        proved: &mut Vec<bool>,
    ) -> u64 {
        let Some(grid) = &self.grid else { return 0 };
        let Some(clipped) = grid.universe().intersection(&window) else {
            return 0;
        };
        let mut tests = 0u64;
        for tile in grid.tiles_of(&clipped) {
            for (rect, id) in &self.buckets[tile] {
                tests += 1;
                if rect.intersects(&window) && grid.reference_tile(rect, &window) == tile {
                    out.push(*id);
                    proved.push(window.covers_an_extent_of(rect));
                }
            }
        }
        tests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items() -> Vec<(Rect, ObjectId)> {
        let mut v = Vec::new();
        let mut id = 0;
        for i in 0..10 {
            for j in 0..10 {
                let x = i as f64 * 7.0;
                let y = j as f64 * 7.0;
                v.push((Rect::from_bounds(x, y, x + 9.5, y + 9.5), id));
                id += 1;
            }
        }
        v
    }

    #[test]
    fn every_point_lies_in_exactly_one_tile() {
        let grid = Grid::new(Rect::from_bounds(0.0, 0.0, 10.0, 10.0), 4);
        for i in 0..=40 {
            for j in 0..=40 {
                let p = Point::new(i as f64 * 0.25, j as f64 * 0.25);
                let t = grid.tile_of(p);
                assert!(t < grid.tile_count());
                // The tile of p must be among the tiles of any rect
                // containing p.
                let r = Rect::from_bounds(p.x, p.y, p.x, p.y);
                let covering: Vec<usize> = grid.tiles_of(&r).collect();
                assert_eq!(covering, vec![t]);
            }
        }
    }

    #[test]
    fn replication_assigns_to_all_overlapping_tiles() {
        let grid = Grid::new(Rect::from_bounds(0.0, 0.0, 100.0, 100.0), 4);
        // Spans two columns, one row.
        let r = Rect::from_bounds(20.0, 5.0, 30.0, 10.0);
        let tiles: Vec<usize> = grid.tiles_of(&r).collect();
        assert_eq!(tiles, vec![0, 1]);
        // Spans the whole grid.
        let all: Vec<usize> = grid
            .tiles_of(&Rect::from_bounds(0.0, 0.0, 100.0, 100.0))
            .collect();
        assert_eq!(all.len(), 16);
    }

    #[test]
    fn degenerate_universe_uses_single_tile() {
        let grid = Grid::new(Rect::from_bounds(5.0, 5.0, 5.0, 5.0), 8);
        assert_eq!(grid.tile_of(Point::new(5.0, 5.0)), 0);
        let tiles: Vec<usize> = grid
            .tiles_of(&Rect::from_bounds(5.0, 5.0, 5.0, 5.0))
            .collect();
        assert_eq!(tiles, vec![0]);
    }

    #[test]
    fn point_candidates_match_linear_scan() {
        let items = items();
        let index = GridIndex::build(&items, 5);
        for i in 0..30 {
            let p = Point::new((i as f64 * 3.7) % 75.0, (i as f64 * 5.3) % 75.0);
            let mut got = Vec::new();
            index.point_candidates(p, &mut got);
            got.sort_unstable();
            let mut expect: Vec<ObjectId> = items
                .iter()
                .filter(|(r, _)| r.contains_point(p))
                .map(|(_, id)| *id)
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "point {p:?}");
        }
    }

    #[test]
    fn window_candidates_match_linear_scan_without_duplicates() {
        let items = items();
        for tiles in [1, 3, 8] {
            let index = GridIndex::build(&items, tiles);
            for i in 0..25 {
                let x = (i as f64 * 6.1) % 60.0;
                let y = (i as f64 * 4.3) % 60.0;
                let w = Rect::from_bounds(x, y, x + 14.0, y + 11.0);
                let (mut got, mut proved) = (Vec::new(), Vec::new());
                index.window_candidates(w, &mut got, &mut proved);
                let mut deduped = got.clone();
                deduped.sort_unstable();
                deduped.dedup();
                assert_eq!(got.len(), deduped.len(), "duplicates at tiles={tiles}");
                let mut got: Vec<(ObjectId, bool)> = got.into_iter().zip(proved).collect();
                got.sort_unstable();
                let mut expect: Vec<(ObjectId, bool)> = items
                    .iter()
                    .filter(|(r, _)| r.intersects(&w))
                    .map(|(r, id)| (*id, w.covers_an_extent_of(r)))
                    .collect();
                expect.sort_unstable();
                assert_eq!(got, expect, "window {w:?} tiles {tiles}");
            }
        }
    }

    #[test]
    fn empty_index_returns_nothing() {
        let index = GridIndex::build(&[], 4);
        assert!(index.is_empty());
        let (mut out, mut proved) = (Vec::new(), Vec::new());
        assert_eq!(index.point_candidates(Point::new(0.0, 0.0), &mut out), 0);
        assert_eq!(
            index.window_candidates(Rect::from_bounds(0.0, 0.0, 1.0, 1.0), &mut out, &mut proved),
            0
        );
        assert!(proved.is_empty());
        assert!(out.is_empty());
    }
}

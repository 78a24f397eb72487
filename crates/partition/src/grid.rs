//! The uniform grid: tile addressing and MBR-to-tile assignment.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}

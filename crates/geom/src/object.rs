//! The spatial object and spatial relation model (§2.2).
//!
//! A spatial relation is a collection of spatial objects; for the
//! intersection join only the geometric attribute matters, so an object is
//! an identifier plus a polygonal region.

use crate::bytes::{Dec, DecResult, Enc};
use crate::point::Point;
use crate::polygon::{is_ccw, Polygon, PolygonWithHoles};
use crate::rect::Rect;

/// Identifier of a spatial object within its relation.
pub type ObjectId = u32;

/// A spatial object: identifier plus polygonal region (possibly with
/// holes). The MBR comes precomputed from the region.
#[derive(Debug, Clone)]
pub struct SpatialObject {
    pub id: ObjectId,
    pub region: PolygonWithHoles,
}

impl SpatialObject {
    pub fn new(id: ObjectId, region: PolygonWithHoles) -> Self {
        SpatialObject { id, region }
    }

    /// The object's minimum bounding rectangle.
    #[inline]
    pub fn mbr(&self) -> Rect {
        self.region.mbr()
    }

    /// Number of vertices — the complexity measure `m` of the paper.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.region.num_vertices()
    }

    /// Region area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.region.area()
    }
}

/// A spatial relation: a vector of spatial objects indexed by their id.
/// An object's id is its position: every per-object column, index and
/// kernel gather downstream is addressed by id.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    objects: Vec<SpatialObject>,
}

/// The first position whose object carries another id.
fn misplaced_id(ids: impl Iterator<Item = ObjectId>) -> Option<usize> {
    ids.enumerate().position(|(at, id)| id as usize != at)
}

impl Relation {
    /// A relation over `objects`. Panics, naming the first offending
    /// position, unless every object's id is its position.
    pub fn new(objects: Vec<SpatialObject>) -> Self {
        if let Some(at) = misplaced_id(objects.iter().map(|o| o.id)) {
            panic!(
                "relation object at position {at} has id {}; ids must equal positions",
                objects[at].id
            );
        }
        Relation { objects }
    }

    /// Builds a relation from regions, assigning sequential ids.
    pub fn from_regions<I: IntoIterator<Item = PolygonWithHoles>>(regions: I) -> Self {
        Relation {
            objects: regions
                .into_iter()
                .enumerate()
                .map(|(i, r)| SpatialObject::new(i as ObjectId, r))
                .collect(),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Object lookup by id (`None` when out of range).
    #[inline]
    pub fn get(&self, id: ObjectId) -> Option<&SpatialObject> {
        self.objects.get(id as usize)
    }

    /// Object lookup by id; panics when out of range.
    #[inline]
    pub fn object(&self, id: ObjectId) -> &SpatialObject {
        &self.objects[id as usize]
    }

    pub fn iter(&self) -> impl Iterator<Item = &SpatialObject> {
        self.objects.iter()
    }

    /// Vertex-count statistics `(mean, min, max)` — the `m∅`, `mmin`,
    /// `mmax` columns of the paper's Figure 2.
    pub fn vertex_stats(&self) -> (f64, usize, usize) {
        let mut sum = 0usize;
        let mut min = usize::MAX;
        let mut max = 0usize;
        for o in &self.objects {
            let m = o.num_vertices();
            sum += m;
            min = min.min(m);
            max = max.max(m);
        }
        if self.objects.is_empty() {
            (0.0, 0, 0)
        } else {
            (sum as f64 / self.objects.len() as f64, min, max)
        }
    }

    /// The MBR of the whole relation (the data space extent actually used).
    pub fn bounding_rect(&self) -> Option<Rect> {
        let mut it = self.objects.iter();
        let first = it.next()?.mbr();
        Some(it.fold(first, |acc, o| acc.union(&o.mbr())))
    }

    /// Sum of all object areas (used by generation strategy B).
    pub fn total_area(&self) -> f64 {
        self.objects.iter().map(|o| o.area()).sum()
    }
}

/// The rings of a region in image order: the outer ring, then the holes.
fn rings(region: &PolygonWithHoles) -> impl Iterator<Item = &Polygon> {
    std::iter::once(region.outer()).chain(region.holes())
}

impl Relation {
    /// The relation as its persistent image — four counted columns: the
    /// object ids, per-object ring offsets (`len + 1`, in rings), per-ring
    /// point offsets (`rings + 1`, in points) and the point arena as
    /// `x, y` scalars. An object's first ring is its outer ring, the rest
    /// are its holes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let total_rings: usize = self.iter().map(|o| 1 + o.region.holes().len()).sum();
        let total_points: usize = self.iter().map(|o| o.num_vertices()).sum();
        let mut e =
            Enc::with_capacity(4 * 8 + 4 * (2 * self.len() + total_rings + 2) + 16 * total_points);
        e.count(self.len());
        for o in self.iter() {
            e.u32(o.id);
        }
        e.count(self.len() + 1);
        let mut rings_so_far = 0u32;
        e.u32(0);
        for o in self.iter() {
            rings_so_far += 1 + o.region.holes().len() as u32;
            e.u32(rings_so_far);
        }
        e.count(total_rings + 1);
        let mut points_so_far = 0u32;
        e.u32(0);
        for ring in self.iter().flat_map(|o| rings(&o.region)) {
            points_so_far += ring.len() as u32;
            e.u32(points_so_far);
        }
        e.count(2 * total_points);
        for ring in self.iter().flat_map(|o| rings(&o.region)) {
            for p in ring.vertices() {
                e.f64x([p.x, p.y]);
            }
        }
        e.into_bytes()
    }

    /// Adopts a [`Relation::to_bytes`] image. Every id must be its
    /// position, and every ring goes through [`Polygon::new`]'s validation
    /// and must already be counter-clockwise (the only order `to_bytes`
    /// writes), so an accepted image re-encodes to the same bytes.
    pub fn from_bytes(bytes: &[u8]) -> DecResult<Self> {
        let mut d = Dec::new(bytes);
        let ids = d.u32s()?;
        let ring_offsets = d.u32s()?;
        let point_offsets = d.u32s()?;
        let points = d.f64s()?;
        d.finish()?;
        if misplaced_id(ids.iter()).is_some() {
            return Err("relation ids are not their positions");
        }
        let n = ids.len();
        if ring_offsets.len() != n + 1 || ring_offsets.get(0) != 0 {
            return Err("relation ring offsets malformed");
        }
        let total_rings = ring_offsets.get(n) as usize;
        if point_offsets.len() != total_rings + 1 || point_offsets.get(0) != 0 {
            return Err("relation point offsets malformed");
        }
        if point_offsets.get(total_rings) as usize * 2 != points.len() {
            return Err("relation point arena length mismatch");
        }
        let ring = |r: usize| -> DecResult<Polygon> {
            let lo = point_offsets.get(r) as usize;
            let hi = point_offsets.get(r + 1) as usize;
            if lo > hi || hi * 2 > points.len() {
                return Err("relation point offsets not monotonic");
            }
            let vertices: Vec<Point> = (lo..hi)
                .map(|i| Point::new(points.get(2 * i), points.get(2 * i + 1)))
                .collect();
            if !is_ccw(&vertices) {
                return Err("relation ring is not counter-clockwise");
            }
            Polygon::new(vertices).map_err(|_| "relation ring fails polygon validation")
        };
        let mut objects = Vec::with_capacity(n);
        let mut next_ring = 0;
        for (i, id) in ids.iter().enumerate() {
            let r_hi = ring_offsets.get(i + 1) as usize;
            if next_ring >= r_hi || r_hi > total_rings {
                return Err("relation object has no rings");
            }
            let outer = ring(next_ring)?;
            let holes = (next_ring + 1..r_hi)
                .map(ring)
                .collect::<DecResult<Vec<_>>>()?;
            objects.push(SpatialObject::new(id, PolygonWithHoles::new(outer, holes)));
            next_ring = r_hi;
        }
        Ok(Relation::new(objects))
    }
}

impl std::ops::Index<ObjectId> for Relation {
    type Output = SpatialObject;
    fn index(&self, id: ObjectId) -> &SpatialObject {
        &self.objects[id as usize]
    }
}

/// A relation either borrowed for the duration of one scoped execution or
/// co-owned behind [`Arc`](std::sync::Arc) for resident, shareable state.
///
/// Every prepared component (candidate sources, exact processors, query
/// state) stores its relations through this handle, so the same code path
/// serves both the classic borrow-based API
/// (`RelHandle::from(&relation)`, lifetime `'a`) and the resident engine
/// (`RelHandle::from(arc)`, lifetime `'static` — the shape an owned
/// `PreparedJoin` needs to be cached and shared across threads).
#[derive(Debug, Clone)]
pub enum RelHandle<'a> {
    /// Borrowed for a scoped execution.
    Borrowed(&'a Relation),
    /// Co-owned, resident state (the engine's registered datasets).
    Shared(std::sync::Arc<Relation>),
}

impl std::ops::Deref for RelHandle<'_> {
    type Target = Relation;

    #[inline]
    fn deref(&self) -> &Relation {
        match self {
            RelHandle::Borrowed(r) => r,
            RelHandle::Shared(r) => r,
        }
    }
}

impl<'a> From<&'a Relation> for RelHandle<'a> {
    fn from(relation: &'a Relation) -> Self {
        RelHandle::Borrowed(relation)
    }
}

impl From<std::sync::Arc<Relation>> for RelHandle<'static> {
    fn from(relation: std::sync::Arc<Relation>) -> Self {
        RelHandle::Shared(relation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use crate::polygon::Polygon;

    fn sq(x: f64, y: f64, s: f64) -> PolygonWithHoles {
        Polygon::new(vec![
            Point::new(x, y),
            Point::new(x + s, y),
            Point::new(x + s, y + s),
            Point::new(x, y + s),
        ])
        .unwrap()
        .into()
    }

    #[test]
    fn relation_from_regions_assigns_ids() {
        let rel = Relation::from_regions(vec![sq(0.0, 0.0, 1.0), sq(2.0, 0.0, 2.0)]);
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.object(0).id, 0);
        assert_eq!(rel.object(1).id, 1);
        assert_eq!(rel[1].area(), 4.0);
        assert!(rel.get(2).is_none());
    }

    #[test]
    fn vertex_stats_and_bounds() {
        let rel = Relation::from_regions(vec![sq(0.0, 0.0, 1.0), sq(2.0, 0.0, 2.0)]);
        let (mean, min, max) = rel.vertex_stats();
        assert_eq!(mean, 4.0);
        assert_eq!((min, max), (4, 4));
        assert_eq!(
            rel.bounding_rect().unwrap(),
            Rect::from_bounds(0.0, 0.0, 4.0, 2.0)
        );
        assert_eq!(rel.total_area(), 5.0);
    }

    #[test]
    fn image_round_trips_rings_ids_and_holes() {
        let outer = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ])
        .unwrap();
        let hole = sq(4.0, 4.0, 2.0).outer().clone();
        let rel = Relation::new(vec![
            SpatialObject::new(0, PolygonWithHoles::new(outer, vec![hole])),
            SpatialObject::new(1, sq(20.0, 0.0, 1.0)),
        ]);
        let bytes = rel.to_bytes();
        let back = Relation::from_bytes(&bytes).expect("own image decodes");
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.len(), 2);
        for (a, b) in rel.iter().zip(back.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.region.outer().vertices(), b.region.outer().vertices());
            assert_eq!(a.region.holes().len(), b.region.holes().len());
            assert_eq!(a.mbr(), b.mbr());
        }
        let empty = Relation::default();
        assert!(Relation::from_bytes(&empty.to_bytes()).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "relation object at position 1 has id 3")]
    fn relation_with_an_id_off_its_position_panics() {
        Relation::new(vec![
            SpatialObject::new(0, sq(0.0, 0.0, 1.0)),
            SpatialObject::new(3, sq(2.0, 0.0, 1.0)),
        ]);
    }

    #[test]
    fn image_with_an_id_off_its_position_is_refused() {
        let rel = Relation::from_regions(vec![sq(0.0, 0.0, 1.0), sq(2.0, 0.0, 1.0)]);
        let mut bytes = rel.to_bytes();
        // The id column follows its 8-byte count: make object 1's id 0.
        bytes[12..16].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            Relation::from_bytes(&bytes).err(),
            Some("relation ids are not their positions")
        );
    }

    #[test]
    fn clockwise_ring_is_refused_not_silently_reversed() {
        let rel = Relation::from_regions(vec![sq(0.0, 0.0, 1.0)]);
        let mut bytes = rel.to_bytes();
        // Swap vertices 1 and 3 of the only ring: same square, clockwise.
        let points = bytes.len() - 4 * 16;
        let (v1, v3) = (points + 16, points + 48);
        for k in 0..16 {
            bytes.swap(v1 + k, v3 + k);
        }
        assert_eq!(
            Relation::from_bytes(&bytes).err(),
            Some("relation ring is not counter-clockwise")
        );
    }

    #[test]
    fn empty_relation() {
        let rel = Relation::default();
        assert!(rel.is_empty());
        assert!(rel.bounding_rect().is_none());
        assert_eq!(rel.vertex_stats(), (0.0, 0, 0));
    }
}

//! The spatial object and spatial relation model (§2.2).
//!
//! A spatial relation is a collection of spatial objects; for the
//! intersection join only the geometric attribute matters, so an object is
//! an identifier plus a polygonal region.

use crate::bytes::{Col, Dec, DecResult, Enc, SharedBytes};
use crate::point::Point;
use crate::polygon::{Polygon, PolygonWithHoles};
use crate::rect::Rect;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

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
    ///
    /// This is [`Relation::validate_image`] followed by the build, which
    /// cannot fail after it: the two passes share one ring check, so
    /// exactly the images `validate_image` accepts decode.
    pub fn from_bytes(bytes: &[u8]) -> DecResult<Self> {
        let image = Image::parse(bytes)?;
        image.check()?;
        Ok(image.build())
    }

    /// The validating pass of [`Relation::from_bytes`] alone: it reads
    /// the image where it lies, allocates nothing, and returns the number
    /// of objects of every image `from_bytes` accepts — and an error for
    /// every image it refuses.
    pub fn validate_image(bytes: &[u8]) -> DecResult<usize> {
        let image = Image::parse(bytes)?;
        image.check()?;
        Ok(image.ids.len())
    }
}

/// The four columns of a relation image, borrowed where they lie, with
/// the offset tables checked against each other and the point arena.
struct Image<'a> {
    ids: Col<'a, u32>,
    ring_offsets: Col<'a, u32>,
    point_offsets: Col<'a, u32>,
    points: Col<'a, f64>,
}

impl<'a> Image<'a> {
    /// The four columns where they lie, unchecked against each other.
    fn columns(bytes: &'a [u8]) -> DecResult<Self> {
        let mut d = Dec::new(bytes);
        let image = Image {
            ids: d.u32s()?,
            ring_offsets: d.u32s()?,
            point_offsets: d.u32s()?,
            points: d.f64s()?,
        };
        d.finish()?;
        Ok(image)
    }

    fn parse(bytes: &'a [u8]) -> DecResult<Self> {
        let image = Image::columns(bytes)?;
        let Image {
            ids,
            ring_offsets,
            point_offsets,
            points,
        } = &image;
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
        Ok(image)
    }

    fn point(&self, i: usize) -> Point {
        Point::new(self.points.get(2 * i), self.points.get(2 * i + 1))
    }

    /// Every object owns at least one ring, in order, and every ring
    /// passes [`Image::ring`].
    fn check(&self) -> DecResult<()> {
        let total_rings = self.point_offsets.len() - 1;
        let mut next_ring = 0;
        for i in 0..self.ids.len() {
            let r_hi = self.ring_offsets.get(i + 1) as usize;
            if next_ring >= r_hi || r_hi > total_rings {
                return Err("relation object has no rings");
            }
            for r in next_ring..r_hi {
                self.ring(r)?;
            }
            next_ring = r_hi;
        }
        Ok(())
    }

    /// The point range of ring `r` — the one ring check of both passes:
    /// counter-clockwise (so of positive area), then [`Polygon::new`]'s
    /// vertex count and finiteness, in [`Relation::from_bytes`]' order.
    fn ring(&self, r: usize) -> DecResult<std::ops::Range<usize>> {
        let lo = self.point_offsets.get(r) as usize;
        let hi = self.point_offsets.get(r + 1) as usize;
        if lo > hi || hi * 2 > self.points.len() {
            return Err("relation point offsets not monotonic");
        }
        // One read of each vertex: the shoelace sum of `Polygon::new`, the
        // same products in the same order, and the finiteness check.
        let n = hi - lo;
        let (mut area2, mut finite) = (0.0, true);
        if n > 0 {
            let mut at = self.point(lo);
            for i in 0..n {
                let next = self.point(lo + (i + 1) % n);
                area2 += at.cross(next);
                finite &= at.is_finite();
                at = next;
            }
        }
        if area2.is_nan() || area2 <= 0.0 {
            return Err("relation ring is not counter-clockwise");
        }
        if n < 3 || !finite {
            return Err("relation ring fails polygon validation");
        }
        Ok(lo..hi)
    }

    /// The relation of an image [`Image::check`] accepted.
    fn build(&self) -> Relation {
        let polygon = |r: usize| {
            let span = self.point_offsets.get(r) as usize..self.point_offsets.get(r + 1) as usize;
            Polygon::from_ccw(span.map(|i| self.point(i)).collect())
        };
        let objects = (0..self.ids.len())
            .map(|i| {
                let rings =
                    self.ring_offsets.get(i) as usize..self.ring_offsets.get(i + 1) as usize;
                let outer = polygon(rings.start);
                let holes = (rings.start + 1..rings.end).map(polygon).collect();
                SpatialObject::new(i as ObjectId, PolygonWithHoles::new(outer, holes))
            })
            .collect();
        Relation { objects }
    }
}

/// A dataset's relation as a store open leaves it: the verified section
/// image, decoded into a [`Relation`] once, on first [`LazyRelation::get`],
/// which then lets the image go — or a relation resident from the start.
/// Its object count is known either way.
pub struct LazyRelation {
    len: usize,
    /// Until the decode.
    image: Mutex<Option<SharedBytes>>,
    decoded: OnceLock<Arc<Relation>>,
    /// Told the decode's wall-clock in nanoseconds.
    on_decode: Option<DecodeHook>,
}

/// What a [`LazyRelation`] tells the nanoseconds of its decode.
pub type DecodeHook = Box<dyn Fn(u64) + Send + Sync>;

impl LazyRelation {
    /// A relation that is already decoded.
    pub fn resident(relation: Arc<Relation>) -> Self {
        LazyRelation {
            len: relation.len(),
            image: Mutex::new(None),
            decoded: OnceLock::from(relation),
            on_decode: None,
        }
    }

    /// Keeps `image` after [`Relation::validate_image`] accepts it; the
    /// decode waits for the first [`LazyRelation::get`] and is reported
    /// to `on_decode`.
    pub fn from_image(image: SharedBytes, on_decode: Option<DecodeHook>) -> DecResult<Self> {
        Ok(LazyRelation {
            len: Relation::validate_image(&image)?,
            image: Mutex::new(Some(image)),
            decoded: OnceLock::new(),
            on_decode,
        })
    }

    /// Objects in the relation, decoded or not.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the relation has been decoded (or was resident).
    pub fn is_decoded(&self) -> bool {
        self.decoded.get().is_some()
    }

    /// The image, while the relation is not decoded.
    fn image(&self) -> Option<SharedBytes> {
        self.image.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The relation, decoded from the image on the first call, which
    /// drops the image.
    pub fn get(&self) -> &Arc<Relation> {
        self.decoded.get_or_init(|| {
            let image = self.image().expect("an undecoded relation has its image");
            let start = self.on_decode.as_ref().map(|_| Instant::now());
            let image = Image::parse(&image).expect("the image was validated");
            let relation = Arc::new(image.build());
            if let (Some(hook), Some(start)) = (&self.on_decode, start) {
                hook(start.elapsed().as_nanos() as u64);
            }
            *self.image.lock().unwrap_or_else(|e| e.into_inner()) = None;
            relation
        })
    }
}

impl std::fmt::Debug for LazyRelation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyRelation")
            .field("len", &self.len)
            .field("decoded", &self.is_decoded())
            .finish()
    }
}

impl std::ops::Index<ObjectId> for Relation {
    type Output = SpatialObject;
    fn index(&self, id: ObjectId) -> &SpatialObject {
        &self.objects[id as usize]
    }
}

/// A relation either borrowed for the duration of one scoped execution or
/// co-owned behind [`Arc`] for resident, shareable state.
///
/// Every prepared component (candidate sources, exact processors, query
/// state) stores its relations through this handle, so the same code path
/// serves both the classic borrow-based API
/// (`RelHandle::from(&relation)`, lifetime `'a`) and the resident engine
/// (`RelHandle::from(arc)`, lifetime `'static` — the shape an owned
/// `PreparedJoin` needs to be cached and shared across threads). A
/// [`LazyRelation`] handle decodes its relation on the first dereference,
/// so a component that never reads it never decodes it.
#[derive(Debug, Clone)]
pub enum RelHandle<'a> {
    /// Borrowed for a scoped execution.
    Borrowed(&'a Relation),
    /// Co-owned: resident, or decoded on first use (an opened store's
    /// datasets).
    Lazy(Arc<LazyRelation>),
}

impl std::ops::Deref for RelHandle<'_> {
    type Target = Relation;

    #[inline]
    fn deref(&self) -> &Relation {
        match self {
            RelHandle::Borrowed(r) => r,
            RelHandle::Lazy(r) => r.get(),
        }
    }
}

impl<'a> From<&'a Relation> for RelHandle<'a> {
    fn from(relation: &'a Relation) -> Self {
        RelHandle::Borrowed(relation)
    }
}

impl From<Arc<Relation>> for RelHandle<'static> {
    fn from(relation: Arc<Relation>) -> Self {
        RelHandle::Lazy(Arc::new(LazyRelation::resident(relation)))
    }
}

impl From<Arc<LazyRelation>> for RelHandle<'static> {
    fn from(relation: Arc<LazyRelation>) -> Self {
        RelHandle::Lazy(relation)
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
    fn validation_accepts_exactly_what_decodes() {
        let outer = sq(0.0, 0.0, 10.0).outer().clone();
        let hole = sq(4.0, 4.0, 2.0).outer().clone();
        let rel = Relation::new(vec![
            SpatialObject::new(0, PolygonWithHoles::new(outer, vec![hole])),
            SpatialObject::new(1, sq(20.0, 0.0, 1.0)),
        ]);
        let bytes = rel.to_bytes();
        let points = bytes.len() - 12 * 16;
        let mut hostile = vec![bytes[..bytes.len() - 1].to_vec(), bytes[..40].to_vec()];
        for (at, v) in [(points, f64::NAN), (points + 8, f64::INFINITY)] {
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&v.to_le_bytes());
            hostile.push(bad);
        }
        let mut clockwise = bytes.clone();
        for k in 0..16 {
            clockwise.swap(points + 64 + 16 + k, points + 64 + 48 + k);
        }
        hostile.push(clockwise);
        // One object whose only ring has no points, over an empty arena.
        let mut image = Relation::from_regions(vec![sq(0.0, 0.0, 1.0)]).to_bytes();
        image[40..44].copy_from_slice(&0u32.to_le_bytes()); // point offsets [0, 0]
        image[44..52].copy_from_slice(&0u64.to_le_bytes()); // no points
        image.truncate(52);
        hostile.push(image);
        assert_eq!(Relation::validate_image(&bytes), Ok(2));
        for (i, image) in hostile.iter().enumerate() {
            let decoded = Relation::from_bytes(image).map(|r| r.len());
            assert!(decoded.is_err(), "hostile image {i} decodes");
            assert_eq!(Relation::validate_image(image), decoded, "image {i}");
        }
    }

    #[test]
    fn a_lazy_relation_decodes_once_on_first_use() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let rel = Relation::from_regions(vec![sq(0.0, 0.0, 1.0), sq(2.0, 0.0, 1.0)]);
        let bytes = rel.to_bytes();
        let decodes = Arc::new(AtomicU64::new(0));
        let seen = decodes.clone();
        let hook: DecodeHook = Box::new(move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        let lazy = LazyRelation::from_image(SharedBytes::copy_of(&bytes), Some(hook)).unwrap();
        assert_eq!((lazy.len(), lazy.is_decoded()), (2, false));
        let handle = RelHandle::from(Arc::new(lazy));
        assert_eq!(handle.to_bytes(), bytes);
        assert_eq!(handle.object(1).mbr(), rel.object(1).mbr());
        assert_eq!(decodes.load(Ordering::Relaxed), 1);
        let RelHandle::Lazy(lazy) = handle else {
            unreachable!()
        };
        assert!(
            lazy.is_decoded() && lazy.image().is_none(),
            "the decode drops the image"
        );
        let broken = SharedBytes::copy_of(&bytes[..bytes.len() - 8]);
        assert!(LazyRelation::from_image(broken, None).is_err());
        assert!(LazyRelation::resident(Arc::new(rel)).is_decoded());
    }

    #[test]
    fn empty_relation() {
        let rel = Relation::default();
        assert!(rel.is_empty());
        assert!(rel.bounding_rect().is_none());
        assert_eq!(rel.vertex_stats(), (0.0, 0, 0));
    }
}

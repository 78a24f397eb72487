//! Section payload encodings — one encode/decode pair per Step-0
//! artifact kind.
//!
//! Payloads are pure column streams over the artifact crates' flat
//! export images ([`TreeExport`], [`ConsExport`], [`ProgExport`],
//! [`RasterExport`]) plus the relation geometry itself. The TR*
//! section has no codec here: `msj_exact::TrStarStore` is its own
//! persistent image (`to_bytes` / `from_bytes`). Decoding is a linear
//! repack of arrays — no hull, MER, trapezoid or STR recomputation —
//! which is what makes a store load an mmap-style cold start instead of
//! a rebuild. Structural validation
//! lives in the artifact crates' `from_export` constructors; this module
//! only guarantees well-formed byte streams.

use crate::codec::{Dec, DecResult, Enc};
use msj_approx::{ConsExport, ConservativeKind, ProgExport, ProgressiveKind, RasterExport};
use msj_geom::{Point, Polygon, PolygonWithHoles, Relation, SpatialObject};

pub fn encode_relation(relation: &Relation) -> Vec<u8> {
    let mut ids = Vec::with_capacity(relation.len());
    let mut ring_offsets = Vec::with_capacity(relation.len() + 1);
    let mut point_offsets = vec![0u32];
    let mut points: Vec<f64> = Vec::new();
    ring_offsets.push(0);
    let mut rings = 0u32;
    for o in relation.iter() {
        ids.push(o.id);
        for ring in std::iter::once(o.region.outer()).chain(o.region.holes().iter()) {
            for p in ring.vertices() {
                points.push(p.x);
                points.push(p.y);
            }
            rings += 1;
            point_offsets.push((points.len() / 2) as u32);
        }
        ring_offsets.push(rings);
    }
    let mut e = Enc::new();
    e.u32s(&ids);
    e.u32s(&ring_offsets);
    e.u32s(&point_offsets);
    e.f64s(&points);
    e.into_bytes()
}

pub fn decode_relation(bytes: &[u8]) -> DecResult<Relation> {
    let mut d = Dec::new(bytes);
    let ids = d.u32s()?;
    let ring_offsets = d.u32s()?;
    let point_offsets = d.u32s()?;
    let points = d.f64s()?;
    d.finish()?;
    let n = ids.len();
    if ring_offsets.len() != n + 1 || ring_offsets[0] != 0 {
        return Err("relation ring offsets malformed");
    }
    let total_rings = ring_offsets[n] as usize;
    if point_offsets.len() != total_rings + 1 || point_offsets[0] != 0 {
        return Err("relation point offsets malformed");
    }
    if point_offsets[total_rings] as usize * 2 != points.len() {
        return Err("relation point arena length mismatch");
    }
    let ring = |r: usize| -> DecResult<Polygon> {
        let lo = point_offsets[r] as usize;
        let hi = point_offsets[r + 1] as usize;
        if lo > hi || hi * 2 > points.len() {
            return Err("relation point offsets not monotonic");
        }
        let verts = (lo..hi)
            .map(|i| Point::new(points[2 * i], points[2 * i + 1]))
            .collect();
        Polygon::new(verts).map_err(|_| "relation ring fails polygon validation")
    };
    let mut objects = Vec::with_capacity(n);
    for (i, &id) in ids.iter().enumerate() {
        let r_lo = ring_offsets[i] as usize;
        let r_hi = ring_offsets[i + 1] as usize;
        if r_lo >= r_hi || r_hi > total_rings {
            return Err("relation object has no rings");
        }
        let outer = ring(r_lo)?;
        let holes = (r_lo + 1..r_hi).map(ring).collect::<DecResult<Vec<_>>>()?;
        objects.push(SpatialObject::new(id, PolygonWithHoles::new(outer, holes)));
    }
    Ok(Relation::new(objects))
}

pub fn encode_tree(t: &msj_sam::TreeExport) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(t.page_size);
    e.u64(t.leaf_entry_bytes);
    e.u64(t.dir_entry_bytes);
    e.u32(t.root);
    e.u64(t.len);
    e.u32s(&t.node_levels);
    e.f64s(&t.node_rects);
    e.u32s(&t.entry_offsets);
    e.f64s(&t.entry_rects);
    e.u32s(&t.entry_vals);
    e.into_bytes()
}

pub fn decode_tree(bytes: &[u8]) -> DecResult<msj_sam::TreeExport> {
    let mut d = Dec::new(bytes);
    let t = msj_sam::TreeExport {
        page_size: d.u64()?,
        leaf_entry_bytes: d.u64()?,
        dir_entry_bytes: d.u64()?,
        root: d.u32()?,
        len: d.u64()?,
        node_levels: d.u32s()?,
        node_rects: d.f64s()?,
        entry_offsets: d.u32s()?,
        entry_rects: d.f64s()?,
        entry_vals: d.u32s()?,
    };
    d.finish()?;
    Ok(t)
}

pub fn encode_conservative(c: &ConsExport) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(c.kind.code() as u32);
    e.u64(c.total_bytes);
    e.u32s(&c.offsets);
    e.f64s(&c.scalars);
    e.f64s(&c.false_area);
    e.into_bytes()
}

pub fn decode_conservative(bytes: &[u8]) -> DecResult<ConsExport> {
    let mut d = Dec::new(bytes);
    let code = d.u32()?;
    let kind = u8::try_from(code)
        .ok()
        .and_then(ConservativeKind::from_code)
        .ok_or("unknown conservative kind code")?;
    let c = ConsExport {
        kind,
        total_bytes: d.u64()?,
        offsets: d.u32s()?,
        scalars: d.f64s()?,
        false_area: d.f64s()?,
    };
    d.finish()?;
    Ok(c)
}

pub fn encode_progressive(p: &ProgExport) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(p.kind.code() as u32);
    e.f64s(&p.scalars);
    e.into_bytes()
}

pub fn decode_progressive(bytes: &[u8]) -> DecResult<ProgExport> {
    let mut d = Dec::new(bytes);
    let code = d.u32()?;
    let kind = u8::try_from(code)
        .ok()
        .and_then(ProgressiveKind::from_code)
        .ok_or("unknown progressive kind code")?;
    let p = ProgExport {
        kind,
        scalars: d.f64s()?,
    };
    d.finish()?;
    Ok(p)
}

pub fn encode_raster(r: &RasterExport) -> Vec<u8> {
    let mut e = Enc::new();
    e.f64(r.origin_x);
    e.f64(r.origin_y);
    e.f64(r.cell_w);
    e.f64(r.cell_h);
    e.u32(r.bits);
    e.u32s(&r.offsets);
    e.u32s(&r.intervals);
    e.into_bytes()
}

pub fn decode_raster(bytes: &[u8]) -> DecResult<RasterExport> {
    let mut d = Dec::new(bytes);
    let r = RasterExport {
        origin_x: d.f64()?,
        origin_y: d.f64()?,
        cell_w: d.f64()?,
        cell_h: d.f64()?,
        bits: d.u32()?,
        offsets: d.u32s()?,
        intervals: d.u32s()?,
    };
    d.finish()?;
    Ok(r)
}

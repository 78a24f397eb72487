//! Property tests for the WKT parser/serializer: roundtrip fidelity on
//! arbitrary generated polygons, no-panic robustness on junk input, and a
//! seeded sweep of every prefix and single-byte flip of a relation
//! document.

use msj_geom::{
    parse_polygon, parse_regions, read_relation, to_wkt, write_relation, Point, Polygon,
    PolygonWithHoles, Relation,
};
use proptest::prelude::*;

/// Star-shaped polygon from radii around `(cx, cy)` (valid and simple
/// unless degenerate).
fn star(radii: &[f64], cx: f64, cy: f64) -> Option<Polygon> {
    let n = radii.len();
    Polygon::new(
        radii
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let t = i as f64 / n as f64 * std::f64::consts::TAU;
                Point::new(cx + r * t.cos(), cy + r * t.sin())
            })
            .collect(),
    )
    .ok()
}

fn star_polygon_strategy() -> impl Strategy<Value = Polygon> {
    (
        proptest::collection::vec(0.2f64..10.0, 3..24),
        -1000.0f64..1000.0,
        -1000.0f64..1000.0,
    )
        .prop_filter_map("degenerate", |(radii, cx, cy)| star(&radii, cx, cy))
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small relation document: three seeded stars and one holed square,
/// as `write_relation` writes it.
fn relation_document() -> Vec<u8> {
    let mut rng = 0x3417_u64;
    let mut unit = || (splitmix64(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
    let mut regions: Vec<PolygonWithHoles> = (0..3)
        .map(|i| {
            let n = 3 + (unit() * 9.0) as usize;
            let radii: Vec<f64> = (0..n).map(|_| 0.2 + 9.8 * unit()).collect();
            let (cx, cy) = (-1000.0 + 2000.0 * unit(), 30.0 * i as f64 - 7.5);
            star(&radii, cx, cy).expect("seeded star").into()
        })
        .collect();
    let square = |x: f64, y: f64, side: f64| {
        let corners = [(0.0, 0.0), (side, 0.0), (side, side), (0.0, side)];
        Polygon::new(corners.map(|(dx, dy)| Point::new(x + dx, y + dy)).to_vec()).unwrap()
    };
    regions.push(PolygonWithHoles::new(
        square(-4.25, 100.0, 20.0),
        vec![square(1.5, 105.0, 6.125)],
    ));
    let mut doc = Vec::new();
    write_relation(&mut doc, &Relation::from_regions(regions)).unwrap();
    doc
}

/// Every vertex of every ring of every object, as raw bits.
fn vertex_bits(relation: &Relation) -> Vec<Vec<(u64, u64)>> {
    relation
        .iter()
        .flat_map(|o| std::iter::once(o.region.outer()).chain(o.region.holes()))
        .map(|ring| {
            let bits = ring
                .vertices()
                .iter()
                .map(|p| (p.x.to_bits(), p.y.to_bits()));
            bits.collect()
        })
        .collect()
}

/// `read_relation` either refuses `doc` or returns a relation that
/// survives `write_relation` → `read_relation` with identical vertices.
fn assert_refused_or_faithful(doc: &[u8], what: &str) -> bool {
    let Ok(relation) = read_relation(doc) else {
        return false;
    };
    let mut text = Vec::new();
    write_relation(&mut text, &relation).unwrap();
    let back = read_relation(&text[..])
        .unwrap_or_else(|err| panic!("{what}: accepted, but its own text is refused: {err}"));
    assert_eq!(vertex_bits(&back), vertex_bits(&relation), "{what}");
    true
}

#[test]
fn every_prefix_and_single_byte_flip_is_refused_or_round_trips() {
    let doc = relation_document();
    assert!(assert_refused_or_faithful(&doc, "the untouched document"));
    assert_eq!(read_relation(&doc[..]).unwrap().len(), 4);
    let mut accepted = 0;
    for cut in 0..doc.len() {
        accepted += assert_refused_or_faithful(&doc[..cut], &format!("{cut}-byte prefix")) as usize;
    }
    let mut flipped = doc.clone();
    for at in 0..doc.len() {
        for mask in [0x01, 0x20] {
            flipped[at] = doc[at] ^ mask;
            let what = format!("byte {at} ^ {mask:#04x}");
            accepted += assert_refused_or_faithful(&flipped, &what) as usize;
        }
        flipped[at] = doc[at];
    }
    // Whole-line prefixes and most digit flips are valid documents.
    assert!(accepted > 0, "nothing decoded — is the sweep wired up?");
}

proptest! {
    #[test]
    fn roundtrip_preserves_vertices_exactly(poly in star_polygon_strategy()) {
        let region: PolygonWithHoles = poly.into();
        let wkt = to_wkt(&region);
        let back = parse_polygon(&wkt).expect("roundtrip parse");
        // `{}` float formatting is lossless for f64, and orientation
        // normalization is idempotent, so vertices match bit for bit.
        prop_assert_eq!(region.outer().vertices(), back.outer().vertices());
    }

    #[test]
    fn parser_never_panics_on_junk(s in "\\PC{0,120}") {
        let _ = parse_polygon(&s);
        let _ = parse_regions(&s);
    }

    #[test]
    fn parser_never_panics_on_wkt_like_junk(
        body in proptest::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 0..8),
        garbage in "[(), ]{0,16}",
    ) {
        let coords: Vec<String> = body.iter().map(|(x, y)| format!("{x} {y}")).collect();
        let s = format!("POLYGON (({})){garbage}", coords.join(", "));
        let _ = parse_polygon(&s);
    }

    #[test]
    fn multipolygon_roundtrip_counts(polys in proptest::collection::vec(star_polygon_strategy(), 1..5)) {
        let parts: Vec<String> = polys
            .iter()
            .map(|p| {
                let w = to_wkt(&PolygonWithHoles::simple(p.clone()));
                w.strip_prefix("POLYGON ").unwrap().to_string()
            })
            .collect();
        let multi = format!("MULTIPOLYGON ({})", parts.join(", "));
        let regions = parse_regions(&multi).expect("multipolygon parse");
        prop_assert_eq!(regions.len(), polys.len());
        for (r, p) in regions.iter().zip(&polys) {
            prop_assert!((r.area() - p.area()).abs() <= 1e-9 * p.area().max(1.0));
        }
    }
}

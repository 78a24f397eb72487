//! Failure injection: pathological inputs that stress degenerate paths —
//! identical keys, zero-extent rectangles, huge coordinate magnitudes,
//! needle polygons — must neither panic nor violate invariants.

use msj::core::{ground_truth_join, JoinConfig, MultiStepJoin};
use msj::geom::{Point, Polygon, Rect, Relation, SpatialObject};
use msj::sam::{LruBuffer, PageLayout, RStarTree};

/// The query results as a fresh `Vec`.
fn point_hits(tree: &RStarTree, p: Point, buffer: &mut LruBuffer) -> Vec<u32> {
    let mut out = Vec::new();
    tree.point_query(p, buffer, &mut out);
    out
}

fn window_hits(tree: &RStarTree, window: Rect, buffer: &mut LruBuffer) -> Vec<u32> {
    let mut out = Vec::new();
    tree.window_query(window, buffer, &mut out);
    out
}

#[test]
fn rstar_with_all_identical_rectangles() {
    // Every key identical: packing cannot separate by geometry at all.
    let rect = Rect::from_bounds(5.0, 5.0, 6.0, 6.0);
    let layout = PageLayout {
        page_size: 256,
        leaf_entry_bytes: 48,
        dir_entry_bytes: 20,
    };
    let tree = RStarTree::bulk_load(layout, (0..200u32).map(|id| (rect, id)));
    tree.check_invariants()
        .expect("invariants with identical keys");
    let mut buffer = LruBuffer::new(1 << 12);
    let hits = point_hits(&tree, Point::new(5.5, 5.5), &mut buffer);
    assert_eq!(hits.len(), 200);
    // Every key ties in every sort: the image still round-trips.
    let back = RStarTree::from_bytes(&tree.to_bytes()).expect("own image");
    back.check_invariants()
        .expect("invariants of the adopted image");
    assert_eq!(point_hits(&back, Point::new(5.5, 5.5), &mut buffer), hits);
}

#[test]
fn rstar_with_zero_extent_rectangles() {
    // Point-like keys (degenerate MBRs of point objects).
    let layout = PageLayout {
        page_size: 256,
        leaf_entry_bytes: 48,
        dir_entry_bytes: 20,
    };
    let items: Vec<(Rect, u32)> = (0..150)
        .map(|i| {
            let p = Point::new((i % 15) as f64, (i / 15) as f64);
            (Rect::new(p, p), i as u32)
        })
        .collect();
    let tree = RStarTree::bulk_load(layout, items.iter().copied());
    tree.check_invariants().expect("invariants with point keys");
    let mut buffer = LruBuffer::new(1 << 12);
    let hits = point_hits(&tree, Point::new(3.0, 4.0), &mut buffer);
    assert_eq!(hits, vec![63]);
}

#[test]
fn rstar_with_huge_coordinates() {
    let layout = PageLayout::baseline(512);
    let scale = 1e12;
    let items: Vec<(Rect, u32)> = (0..100)
        .map(|i| {
            let x = (i % 10) as f64 * scale;
            let y = (i / 10) as f64 * scale;
            (
                Rect::from_bounds(x, y, x + 0.5 * scale, y + 0.5 * scale),
                i as u32,
            )
        })
        .collect();
    let tree = RStarTree::bulk_load(layout, items.iter().copied());
    tree.check_invariants().expect("invariants at 1e12 scale");
    let mut buffer = LruBuffer::new(1 << 12);
    let w = Rect::from_bounds(0.0, 0.0, 2.0 * scale, 2.0 * scale);
    let mut got = window_hits(&tree, w, &mut buffer);
    got.sort_unstable();
    let mut expect: Vec<u32> = items
        .iter()
        .filter(|(r, _)| r.intersects(&w))
        .map(|&(_, id)| id)
        .collect();
    expect.sort_unstable();
    assert_eq!(got, expect);
}

#[test]
fn needle_polygons_join_correctly() {
    // Extremely thin slivers: MBR filtering is useless, exact tests and
    // approximations must still agree with the ground truth.
    let needle = |x0: f64, y0: f64, dx: f64, dy: f64| -> SpatialObject {
        let along = Point::new(dx, dy);
        let across = along.perp().normalized().unwrap() * 1e-3;
        SpatialObject::new(
            0,
            Polygon::new(vec![
                Point::new(x0, y0),
                Point::new(x0 + along.x, y0 + along.y),
                Point::new(x0 + along.x + across.x, y0 + along.y + across.y),
                Point::new(x0 + across.x, y0 + across.y),
            ])
            .unwrap()
            .into(),
        )
    };
    // A star of 8 needles from the origin vs a ring of crossing needles.
    let a = Relation::from_regions((0..8).map(|i| {
        let t = i as f64 / 8.0 * std::f64::consts::TAU;
        needle(0.0, 0.0, 10.0 * t.cos(), 10.0 * t.sin()).region
    }));
    let b = Relation::from_regions((0..8).map(|i| {
        let t = (i as f64 + 0.5) / 8.0 * std::f64::consts::TAU;
        needle(
            5.0 * t.cos(),
            5.0 * t.sin(),
            -10.0 * t.sin(),
            10.0 * t.cos(),
        )
        .region
    }));
    let expect = {
        let mut v = ground_truth_join(&a, &b);
        v.sort_unstable();
        v
    };
    for config in [JoinConfig::version1(), JoinConfig::version3()] {
        let mut got = MultiStepJoin::new(config).execute(&a, &b).pairs;
        got.sort_unstable();
        assert_eq!(got, expect, "{config:?}");
    }
}

#[test]
fn single_object_relations() {
    let sq = Polygon::new(vec![
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(1.0, 1.0),
        Point::new(0.0, 1.0),
    ])
    .unwrap();
    let a = Relation::from_regions(vec![sq.clone().into()]);
    let b = Relation::from_regions(vec![sq.translated(Point::new(0.5, 0.5)).into()]);
    let r = MultiStepJoin::new(JoinConfig::default()).execute(&a, &b);
    assert_eq!(r.pairs, vec![(0, 0)]);
    // Disjoint singletons.
    let c = Relation::from_regions(vec![sq.translated(Point::new(10.0, 10.0)).into()]);
    let r2 = MultiStepJoin::new(JoinConfig::default()).execute(&a, &c);
    assert!(r2.pairs.is_empty());
}

#[test]
fn polygon_constructor_rejects_bad_inputs() {
    use msj::geom::PolygonError;
    // NaN, infinity, too-few, zero-area: every rejection path.
    assert_eq!(
        Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]),
        Err(PolygonError::TooFewVertices)
    );
    assert_eq!(
        Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(f64::INFINITY, 0.0),
            Point::new(1.0, 1.0),
        ]),
        Err(PolygonError::NonFiniteVertex)
    );
    assert_eq!(
        Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.5, 0.5),
        ]),
        Err(PolygonError::ZeroArea)
    );
}

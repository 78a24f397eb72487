//! Property tests for the STR-packed R*-tree: queries and the tree join
//! must agree with linear-scan references (`nested_loops_join` for the
//! join) on arbitrary rectangle sets, and the structural invariants —
//! sweep order included — must hold for any input.

use msj_geom::{ObjectId, Point, Rect};
use msj_sam::{nested_loops_join, tree_join, LruBuffer, PageLayout, RStarTree};
use proptest::prelude::*;

/// The query results as a fresh `Vec`.
fn point_hits(tree: &RStarTree, p: Point, buffer: &mut LruBuffer) -> Vec<ObjectId> {
    let mut out = Vec::new();
    tree.point_query(p, buffer, &mut out);
    out
}

fn window_hits(tree: &RStarTree, window: Rect, buffer: &mut LruBuffer) -> Vec<ObjectId> {
    let mut out = Vec::new();
    tree.window_query(window, buffer, &mut out);
    out
}

fn rect_strategy() -> impl Strategy<Value = Rect> {
    (
        -100.0f64..100.0,
        -100.0f64..100.0,
        0.1f64..30.0,
        0.1f64..30.0,
    )
        .prop_map(|(x, y, w, h)| Rect::from_bounds(x, y, x + w, y + h))
}

fn items_strategy(max: usize) -> impl Strategy<Value = Vec<(Rect, ObjectId)>> {
    proptest::collection::vec(rect_strategy(), 1..max).prop_map(|rects| {
        rects
            .into_iter()
            .enumerate()
            .map(|(i, r)| (r, i as u32))
            .collect()
    })
}

fn layout_strategy() -> impl Strategy<Value = PageLayout> {
    (256usize..2048, 48usize..128).prop_map(|(page, leaf)| PageLayout {
        page_size: page,
        leaf_entry_bytes: leaf,
        dir_entry_bytes: 20,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn window_query_equals_linear_scan(
        items in items_strategy(200),
        layout in layout_strategy(),
        window in rect_strategy(),
    ) {
        let tree = RStarTree::bulk_load(layout, items.iter().copied());
        let mut buffer = LruBuffer::new(1 << 16);
        let mut got = window_hits(&tree, window, &mut buffer);
        got.sort_unstable();
        let mut expect: Vec<ObjectId> = items
            .iter()
            .filter(|(r, _)| r.intersects(&window))
            .map(|(_, id)| *id)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn point_query_equals_linear_scan(
        items in items_strategy(200),
        layout in layout_strategy(),
        x in -110.0f64..140.0,
        y in -110.0f64..140.0,
    ) {
        let tree = RStarTree::bulk_load(layout, items.iter().copied());
        let mut buffer = LruBuffer::new(1 << 16);
        let p = Point::new(x, y);
        let mut got = point_hits(&tree, p, &mut buffer);
        got.sort_unstable();
        let mut expect: Vec<ObjectId> = items
            .iter()
            .filter(|(r, _)| r.contains_point(p))
            .map(|(_, id)| *id)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn tree_join_equals_nested_loops(
        items_a in items_strategy(120),
        items_b in items_strategy(120),
        layout_a in layout_strategy(),
        layout_b in layout_strategy(),
    ) {
        let ta = RStarTree::bulk_load(layout_a, items_a.iter().copied());
        let tb = RStarTree::bulk_load(layout_b, items_b.iter().copied());
        let mut buffer = LruBuffer::new(1 << 16);
        let mut got = Vec::new();
        tree_join(&ta, &tb, &mut buffer, |a, b| got.push((a, b)));
        let mut expect = Vec::new();
        nested_loops_join(&items_a, &items_b, |a, b| expect.push((a, b)));
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn bulk_load_invariants_hold_for_any_input(
        items in items_strategy(300),
        layout in layout_strategy(),
    ) {
        let tree = RStarTree::bulk_load(layout, items.iter().copied());
        prop_assert_eq!(tree.len(), items.len());
        tree.check_invariants().map_err(TestCaseError::fail)?;
        // STR packs pages: exactly ⌈N / cap⌉ leaves hold the N keys.
        let cap = layout.max_leaf_entries();
        let leaves = items.len().div_ceil(cap);
        let keys = tree.avg_leaf_fill() * (leaves * cap) as f64;
        prop_assert_eq!(keys.round() as usize, items.len());
        let image = tree.to_bytes();
        let back = RStarTree::from_bytes(&image).map_err(TestCaseError::fail)?;
        prop_assert_eq!(back.to_bytes(), image);
    }

    #[test]
    fn join_candidates_are_symmetric(
        items_a in items_strategy(80),
        items_b in items_strategy(80),
    ) {
        let layout = PageLayout::baseline(512);
        let ta = RStarTree::bulk_load(layout, items_a.iter().copied());
        let tb = RStarTree::bulk_load(layout, items_b.iter().copied());
        let mut buffer = LruBuffer::new(1 << 16);
        let mut ab = Vec::new();
        tree_join(&ta, &tb, &mut buffer, |a, b| ab.push((a, b)));
        let mut ba = Vec::new();
        tree_join(&tb, &ta, &mut buffer, |b, a| ba.push((a, b)));
        ab.sort_unstable();
        ba.sort_unstable();
        prop_assert_eq!(ab, ba);
    }
}

//! Deletion tests: the R*-tree must stay structurally valid and
//! query-correct through arbitrary interleavings of inserts and deletes.

use msj_geom::{ObjectId, Point, Rect};
use msj_sam::{LruBuffer, PageLayout, RStarTree};
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

fn grid_items(n_side: usize) -> Vec<(Rect, ObjectId)> {
    let mut items = Vec::new();
    for i in 0..n_side {
        for j in 0..n_side {
            let x = i as f64 * 10.0;
            let y = j as f64 * 10.0;
            items.push((
                Rect::from_bounds(x, y, x + 8.0, y + 8.0),
                (i * n_side + j) as u32,
            ));
        }
    }
    items
}

#[test]
fn delete_removes_exactly_the_entry() {
    let items = grid_items(10);
    let layout = PageLayout {
        page_size: 256,
        leaf_entry_bytes: 48,
        dir_entry_bytes: 20,
    };
    let mut tree = RStarTree::insert_all(layout, items.iter().copied());
    let (rect, id) = items[37];
    assert!(tree.delete(rect, id));
    assert_eq!(tree.len(), 99);
    tree.check_invariants().unwrap();
    let mut buffer = LruBuffer::new(1024);
    let hits = point_hits(&tree, rect.center(), &mut buffer);
    assert!(!hits.contains(&id));
    // Deleting again fails.
    assert!(!tree.delete(rect, id));
    assert_eq!(tree.len(), 99);
}

#[test]
fn delete_everything_empties_the_tree() {
    let items = grid_items(8);
    let layout = PageLayout {
        page_size: 256,
        leaf_entry_bytes: 48,
        dir_entry_bytes: 20,
    };
    let mut tree = RStarTree::insert_all(layout, items.iter().copied());
    for &(rect, id) in &items {
        assert!(tree.delete(rect, id), "missing ({rect:?}, {id})");
        tree.check_invariants().unwrap();
    }
    assert!(tree.is_empty());
    assert_eq!(tree.height(), 1);
    // The empty tree accepts fresh inserts.
    tree.insert(Rect::from_bounds(0.0, 0.0, 1.0, 1.0), 7);
    let mut buffer = LruBuffer::new(64);
    assert_eq!(
        point_hits(&tree, Point::new(0.5, 0.5), &mut buffer),
        vec![7]
    );
}

#[test]
fn delete_missing_entry_is_noop() {
    let items = grid_items(5);
    let mut tree = RStarTree::insert_all(PageLayout::baseline(512), items.iter().copied());
    assert!(!tree.delete(Rect::from_bounds(500.0, 500.0, 501.0, 501.0), 0));
    // Same rect, wrong id.
    assert!(!tree.delete(items[0].0, 9999));
    assert_eq!(tree.len(), 25);
    tree.check_invariants().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random interleavings of inserts and deletes keep the tree valid
    /// and equivalent to a HashMap model.
    #[test]
    fn insert_delete_model_equivalence(
        ops in proptest::collection::vec(
            (any::<bool>(), 0u32..60, -50.0f64..50.0, -50.0f64..50.0, 0.5f64..15.0, 0.5f64..15.0),
            1..120,
        ),
    ) {
        let layout = PageLayout { page_size: 384, leaf_entry_bytes: 48, dir_entry_bytes: 20 };
        let mut tree = RStarTree::new(layout);
        let mut model: Vec<(Rect, ObjectId)> = Vec::new();
        for (is_insert, id, x, y, w, h) in ops {
            let rect = Rect::from_bounds(x, y, x + w, y + h);
            if is_insert {
                tree.insert(rect, id);
                model.push((rect, id));
            } else if let Some(pos) = model.iter().position(|&(_, i)| i == id) {
                let (r, i) = model.swap_remove(pos);
                prop_assert!(tree.delete(r, i));
            } else {
                // Nothing with this id in the model; tree must agree
                // unless another id shares the rect (ids are not unique
                // keys in this model, so just skip).
            }
        }
        prop_assert_eq!(tree.len(), model.len());
        tree.check_invariants().map_err(TestCaseError::fail)?;
        // Window query equivalence over the whole space.
        let mut buffer = LruBuffer::new(1 << 14);
        let mut got = window_hits(&tree, Rect::from_bounds(-100.0, -100.0, 100.0, 100.0), &mut buffer);
        let mut expect: Vec<ObjectId> = model.iter().map(|&(_, i)| i).collect();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}

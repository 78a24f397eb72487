//! Step 3 of a selection — a point or window query over one dataset.
//!
//! §4.2 builds a TR*-tree per object so that the exact step never walks
//! an object's edges. [`SelectionRefiner`] descends that tree where it
//! proves the answer ([`SelectMargin`](crate::SelectMargin)) and the
//! object's trapezoids tile its region ([`decomposes_exactly`]), and runs
//! the region test everywhere else — so its answers are the region
//! test's, and a dataset without TR* gets the region test alone.

use crate::cost::OpCounts;
use crate::trapezoid::decomposes_exactly;
use crate::trstar::{TrStarStore, TrStarView};
use crate::window::{region_contains_point, region_intersects_rect};
use msj_geom::{ObjectId, Point, PolygonWithHoles, Rect, RelHandle};
use std::sync::{Arc, OnceLock};

/// A selection probe: a point or a closed window.
pub trait SelectProbe {
    /// The three-way descent of an object's tree: `None` where it cannot
    /// tell.
    fn classify(&self, tree: TrStarView<'_>, counts: &mut OpCounts) -> Option<bool>;

    /// The region test (closed semantics).
    fn meets_region(&self, region: &PolygonWithHoles, counts: &mut OpCounts) -> bool;
}

impl SelectProbe for Point {
    fn classify(&self, tree: TrStarView<'_>, counts: &mut OpCounts) -> Option<bool> {
        tree.classify_point(*self, counts)
    }

    fn meets_region(&self, region: &PolygonWithHoles, counts: &mut OpCounts) -> bool {
        region_contains_point(region, *self, counts)
    }
}

impl SelectProbe for Rect {
    fn classify(&self, tree: TrStarView<'_>, counts: &mut OpCounts) -> Option<bool> {
        tree.classify_rect(self, counts)
    }

    fn meets_region(&self, region: &PolygonWithHoles, counts: &mut OpCounts) -> bool {
        region_intersects_rect(region, self, counts)
    }
}

/// Step 3 of one dataset's selections: its relation and, when the
/// configuration builds them, its TR*-trees.
///
/// An object is asked on its tree only when [`decomposes_exactly`]
/// accepts its vertex y's — checked for every object on the first
/// probe, in one pass that reads a lazy relation's image without decoding
/// it. The region is read (and a lazy relation decoded) only for the
/// probes the trees leave.
pub struct SelectionRefiner {
    relation: RelHandle<'static>,
    trees: Option<Arc<TrStarStore>>,
    /// The objects whose trapezoids do not tile them, ascending.
    untiled: OnceLock<Vec<ObjectId>>,
}

impl SelectionRefiner {
    pub fn new(relation: RelHandle<'static>, trees: Option<Arc<TrStarStore>>) -> Self {
        SelectionRefiner {
            relation,
            trees,
            untiled: OnceLock::new(),
        }
    }

    /// Whether `probe` meets object `id`'s closed region.
    pub fn meets(&self, id: ObjectId, probe: &impl SelectProbe, counts: &mut OpCounts) -> bool {
        let decided = self.classify(id, probe, counts);
        decided.unwrap_or_else(|| probe.meets_region(&self.relation.object(id).region, counts))
    }

    /// The trees' answer alone: `None` without trees, for an object its
    /// trapezoids do not tile, and for a probe within the margin.
    pub fn classify(
        &self,
        id: ObjectId,
        probe: &impl SelectProbe,
        counts: &mut OpCounts,
    ) -> Option<bool> {
        self.tree(id).and_then(|tree| probe.classify(tree, counts))
    }

    /// Object `id`'s tree, when there are trees and its trapezoids tile it.
    fn tree(&self, id: ObjectId) -> Option<TrStarView<'_>> {
        let trees = self.trees.as_deref()?;
        let untiled = self.untiled.get_or_init(|| {
            let mut untiled = Vec::new();
            self.relation.for_each_vertex_ys(|id, ys| {
                untiled.extend((!decomposes_exactly(ys)).then_some(id));
            });
            untiled
        });
        untiled.binary_search(&id).is_err().then(|| trees.get(id))
    }
}

//! Step 3 of a selection — a point or window query over one dataset.
//!
//! §4.2 builds a TR*-tree per object so that the exact step never walks
//! an object's edges. [`SelectionRefiner`] descends that tree where it
//! proves the answer ([`SelectMargin`](crate::SelectMargin)), which it
//! may since an object's trapezoids tile its region, and runs the region
//! test everywhere else — so its answers are the region test's, and a
//! dataset without TR* gets the region test alone.

use crate::cost::OpCounts;
use crate::trstar::{TrStarStore, TrStarView};
use crate::window::{region_contains_point, region_intersects_rect};
use msj_geom::{ObjectId, Point, PolygonWithHoles, Rect, RelHandle};
use std::sync::Arc;

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
/// The region is read (and a lazy relation decoded) only for the probes
/// the trees leave.
pub struct SelectionRefiner {
    relation: RelHandle<'static>,
    trees: Option<Arc<TrStarStore>>,
}

impl SelectionRefiner {
    pub fn new(relation: RelHandle<'static>, trees: Option<Arc<TrStarStore>>) -> Self {
        SelectionRefiner { relation, trees }
    }

    /// Whether `probe` meets object `id`'s closed region.
    pub fn meets(&self, id: ObjectId, probe: &impl SelectProbe, counts: &mut OpCounts) -> bool {
        let decided = self.classify(id, probe, counts);
        decided.unwrap_or_else(|| probe.meets_region(&self.relation.object(id).region, counts))
    }

    /// The trees' answer alone: `None` without trees and for a probe
    /// within the margin.
    pub fn classify(
        &self,
        id: ObjectId,
        probe: &impl SelectProbe,
        counts: &mut OpCounts,
    ) -> Option<bool> {
        let tree = self.trees.as_deref()?.get(id);
        probe.classify(tree, counts)
    }
}

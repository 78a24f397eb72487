//! The insertion-based R*-style builder behind the TR*-tree arena.
//!
//! One object at a time: trapezoids are inserted with the R* heuristics
//! (choose-subtree by overlap/area enlargement, forced reinsert at the
//! leaf level, margin/overlap split), then [`TreeBuilder::freeze_into`]
//! appends the finished tree to the arena in breadth-first order. The
//! builder never leaves this module.
//!
//! Construction allocates nothing per node or per split: node fields are
//! columns, every node owns a fixed run of `M + 1` child slots in one
//! pool (`M + 1` because a node overflows by one entry before it
//! splits), and the split and reinsert working sets are scratch vectors.
//! One builder serves every object of a store, so after the largest
//! object its columns never grow again.

use super::{Built, NodeHeader};
use crate::trapezoid::Trapezoid;
use msj_geom::Rect;

/// Parent of the root.
const NO_PARENT: u32 = u32::MAX;

pub(super) struct TreeBuilder {
    max_entries: usize,
    min_entries: usize,
    // Node columns. Children are node indices, or trapezoid indices in
    // a leaf; node `n` owns `children[n * (M + 1)..][..counts[n]]`.
    rects: Vec<Rect>,
    /// Height above the leaves (0 = leaf).
    levels: Vec<u32>,
    counts: Vec<u32>,
    /// Parent pointers (construction bookkeeping only).
    parents: Vec<u32>,
    children: Vec<u32>,
    root: u32,
    traps: Vec<Trapezoid>,
    trap_rects: Vec<Rect>,
    // Scratch, empty between uses.
    split_children: Vec<u32>,
    split_rects: Vec<Rect>,
    /// Entry positions sorted along x, then along y.
    split_order: [Vec<usize>; 2],
    reinserted: Vec<u32>,
    bfs: Vec<u32>,
}

/// The distribution [`TreeBuilder::best_split`] chose: entries
/// `split_order[axis][..k]` go left with MBR `rect_l`, the rest right.
struct Split {
    axis: usize,
    k: usize,
    rect_l: Rect,
    rect_r: Rect,
}

impl TreeBuilder {
    /// A builder for trees of node capacity `max_entries` (already
    /// clamped by the arena).
    pub(super) fn new(max_entries: usize) -> Self {
        TreeBuilder {
            max_entries,
            min_entries: (max_entries / 2).max(1),
            rects: Vec::new(),
            levels: Vec::new(),
            counts: Vec::new(),
            parents: Vec::new(),
            children: Vec::new(),
            root: 0,
            traps: Vec::new(),
            trap_rects: Vec::new(),
            split_children: Vec::new(),
            split_rects: Vec::new(),
            split_order: [Vec::new(), Vec::new()],
            reinserted: Vec::new(),
            bfs: Vec::new(),
        }
    }

    /// Builds the tree over `traps`, replacing the previous object's.
    pub(super) fn build(&mut self, traps: Vec<Trapezoid>) {
        self.rects.clear();
        self.levels.clear();
        self.counts.clear();
        self.parents.clear();
        self.children.clear();
        self.trap_rects.clear();
        self.trap_rects.extend(traps.iter().map(Trapezoid::mbr));
        self.traps = traps;
        // An empty leaf root; the first entry initializes its rect.
        self.root = self.new_node(Rect::from_bounds(0.0, 0.0, 0.0, 0.0), 0, NO_PARENT);
        for t in 0..self.traps.len() {
            self.place_trapezoid(t as u32, true);
        }
    }

    /// Appends the tree to `arena` as one object. Nodes go out in
    /// breadth-first order from the root, so the root is the object's
    /// node 0 and every node's children — directory nodes and leaf
    /// trapezoids alike — occupy one contiguous run in the order the
    /// builder held them; the dual traversal therefore visits exactly
    /// the sequence the pointer tree would.
    pub(super) fn freeze_into(&mut self, arena: &mut Built) {
        let trap_base = arena.traps.len();
        let mut order = std::mem::take(&mut self.bfs);
        order.push(self.root);
        let mut next = 0;
        while let Some(&old) = order.get(next) {
            next += 1;
            let kids = self.kids(old);
            let level = self.levels[old as usize];
            let first = if level == 0 {
                let first = arena.traps.len() - trap_base;
                arena
                    .traps
                    .extend(kids.iter().map(|&t| self.traps[t as usize]));
                first
            } else {
                let first = order.len();
                order.extend_from_slice(kids);
                first
            };
            arena.nodes.push(NodeHeader {
                rect: self.rects[old as usize],
                first: u32::try_from(first).expect("object-local index fits u32"),
                level: u16::try_from(level).expect("TR*-tree height fits u16"),
                count: kids.len() as u16, // ≤ max_entries ≤ u16::MAX
            });
        }
        order.clear();
        self.bfs = order;
        arena.close_object();
    }

    fn stride(&self) -> usize {
        self.max_entries + 1
    }

    fn kids(&self, node: u32) -> &[u32] {
        let base = node as usize * self.stride();
        &self.children[base..base + self.counts[node as usize] as usize]
    }

    fn push_child(&mut self, node: u32, child: u32) {
        let at = node as usize * self.stride() + self.counts[node as usize] as usize;
        self.children[at] = child;
        self.counts[node as usize] += 1;
    }

    fn set_kids(&mut self, node: u32, kids: impl Iterator<Item = u32>) {
        let base = node as usize * self.stride();
        let mut count = 0;
        for child in kids {
            self.children[base + count] = child;
            count += 1;
        }
        self.counts[node as usize] = count as u32;
    }

    fn new_node(&mut self, rect: Rect, level: u32, parent: u32) -> u32 {
        let idx = self.rects.len() as u32;
        self.rects.push(rect);
        self.levels.push(level);
        self.counts.push(0);
        self.parents.push(parent);
        self.children.resize(self.children.len() + self.stride(), 0);
        idx
    }

    /// Routes a trapezoid into a leaf. On overflow the R* *forced
    /// reinsert* runs once per insertion (leaf level only, as in the
    /// original heuristic's dominant case); afterwards the node splits.
    fn place_trapezoid(&mut self, trap_idx: u32, allow_reinsert: bool) {
        let rect = self.trap_rects[trap_idx as usize];
        let leaf = self.choose_leaf(rect);
        self.push_child(leaf, trap_idx);
        self.rects[leaf as usize] = if self.counts[leaf as usize] == 1 {
            rect
        } else {
            self.rects[leaf as usize].union(&rect)
        };
        self.adjust_upward(leaf, rect);
        if self.counts[leaf as usize] as usize > self.max_entries {
            if allow_reinsert && leaf != self.root {
                self.forced_reinsert(leaf);
            } else {
                self.split(leaf);
            }
        }
    }

    /// Removes the 30 % of the leaf's trapezoids farthest from its center
    /// and re-routes them (far-first), shrinking the node's region before
    /// a split becomes necessary.
    fn forced_reinsert(&mut self, leaf: u32) {
        let center = self.rects[leaf as usize].center();
        let base = leaf as usize * self.stride();
        let count = self.counts[leaf as usize] as usize;
        let trap_rects = &self.trap_rects;
        self.children[base..base + count].sort_by(|&a, &b| {
            let da = trap_rects[a as usize].center().dist_sq(center);
            let db = trap_rects[b as usize].center().dist_sq(center);
            db.partial_cmp(&da).expect("finite")
        });
        let p = (count * 3 / 10).max(1);
        let mut removed = std::mem::take(&mut self.reinserted);
        removed.extend_from_slice(&self.children[base..base + p]);
        self.children.copy_within(base + p..base + count, base);
        self.counts[leaf as usize] = (count - p) as u32;
        self.recompute_rects_upward(leaf);
        for &trap_idx in &removed {
            self.place_trapezoid(trap_idx, false);
        }
        removed.clear();
        self.reinserted = removed;
    }

    /// Recomputes this node's rectangle from its children and propagates
    /// the (possibly shrunken) rectangles to the root.
    fn recompute_rects_upward(&mut self, node: u32) {
        let mut current = node;
        while current != NO_PARENT {
            let level = self.levels[current as usize];
            let rect = self
                .kids(current)
                .iter()
                .map(|&c| self.child_rect(level, c))
                .reduce(|a, b| a.union(&b));
            if let Some(rect) = rect {
                self.rects[current as usize] = rect;
            }
            current = self.parents[current as usize];
        }
    }

    /// R* choose-subtree: descend minimizing overlap enlargement at the
    /// level above the leaves and area enlargement elsewhere.
    fn choose_leaf(&self, rect: Rect) -> u32 {
        let mut node = self.root;
        loop {
            let level = self.levels[node as usize];
            if level == 0 {
                return node;
            }
            let kids = self.kids(node);
            let mut best_child = kids[0];
            let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
            for &c in kids {
                let crect = self.rects[c as usize];
                let enlargement = crect.enlargement(&rect);
                let overlap_delta = if level == 1 {
                    // Overlap enlargement against siblings.
                    let grown = crect.union(&rect);
                    let mut before = 0.0;
                    let mut after = 0.0;
                    for &s in kids {
                        if s == c {
                            continue;
                        }
                        let srect = self.rects[s as usize];
                        before += crect.intersection_area(&srect);
                        after += grown.intersection_area(&srect);
                    }
                    after - before
                } else {
                    0.0
                };
                let key = (overlap_delta, enlargement, crect.area());
                if key < best_key {
                    best_key = key;
                    best_child = c;
                }
            }
            node = best_child;
        }
    }

    /// Grows ancestor rectangles after an insertion into `node`.
    fn adjust_upward(&mut self, node: u32, rect: Rect) {
        let mut current = self.parents[node as usize];
        while current != NO_PARENT {
            self.rects[current as usize] = self.rects[current as usize].union(&rect);
            current = self.parents[current as usize];
        }
    }

    /// Points the parent pointers of `node`'s direct child nodes at it.
    fn reparent_children(&mut self, node: u32) {
        if self.levels[node as usize] == 0 {
            return; // leaf children are trapezoid indices
        }
        let base = node as usize * self.stride();
        let count = self.counts[node as usize] as usize;
        for &c in &self.children[base..base + count] {
            self.parents[c as usize] = node;
        }
    }

    /// R*-style split: choose the axis with minimal margin sum, then the
    /// distribution with minimal overlap (ties: minimal total area).
    fn split(&mut self, node: u32) {
        let level = self.levels[node as usize];
        let mut entries = std::mem::take(&mut self.split_children);
        let mut rects = std::mem::take(&mut self.split_rects);
        entries.extend_from_slice(self.kids(node));
        rects.extend(entries.iter().map(|&c| self.child_rect(level, c)));

        let Split {
            axis,
            k,
            rect_l,
            rect_r,
        } = self.best_split(&rects);
        let order = std::mem::take(&mut self.split_order[axis]);
        let group_a = order[..k].iter().map(|&i| entries[i]);
        let group_b = order[k..].iter().map(|&i| entries[i]);

        let parent = if node == self.root {
            // Grow the tree: new root above two fresh nodes.
            let a_idx = self.new_node(rect_l, level, node);
            self.set_kids(a_idx, group_a);
            let b_idx = self.new_node(rect_r, level, node);
            self.set_kids(b_idx, group_b);
            self.rects[node as usize] = rect_l.union(&rect_r);
            self.levels[node as usize] = level + 1;
            self.set_kids(node, [a_idx, b_idx].into_iter());
            self.reparent_children(a_idx);
            self.reparent_children(b_idx);
            NO_PARENT
        } else {
            let parent = self.parents[node as usize];
            self.rects[node as usize] = rect_l;
            self.set_kids(node, group_a);
            let b_idx = self.new_node(rect_r, level, parent);
            self.set_kids(b_idx, group_b);
            self.reparent_children(b_idx);
            self.push_child(parent, b_idx);
            // Parent rect unchanged (children cover the same entries).
            parent
        };

        entries.clear();
        rects.clear();
        self.split_children = entries;
        self.split_rects = rects;
        self.split_order[axis] = order;
        if parent != NO_PARENT && self.counts[parent as usize] as usize > self.max_entries {
            self.split(parent);
        }
    }

    /// MBR of a child reference: a trapezoid for leaves, a node otherwise.
    fn child_rect(&self, level: u32, child: u32) -> Rect {
        if level == 0 {
            self.trap_rects[child as usize]
        } else {
            self.rects[child as usize]
        }
    }

    /// Chooses the split distribution (R* axis + index selection,
    /// simplified to the m..M-m prefix distributions on both axes) and
    /// leaves the entry positions sorted along each axis in
    /// `split_order`.
    fn best_split(&mut self, rects: &[Rect]) -> Split {
        let m = self.min_entries;
        let n = rects.len();
        let union_of = |positions: &[usize]| -> Rect {
            positions
                .iter()
                .map(|&i| rects[i])
                .reduce(|a, b| a.union(&b))
                .expect("non-empty split group")
        };
        let mut best: Option<(f64, f64, Split)> = None;

        for axis in 0..2 {
            let order = &mut self.split_order[axis];
            order.clear();
            order.extend(0..n);
            order.sort_by(|&i, &j| {
                let (ki, kj) = if axis == 0 {
                    (
                        (rects[i].xmin(), rects[i].xmax()),
                        (rects[j].xmin(), rects[j].xmax()),
                    )
                } else {
                    (
                        (rects[i].ymin(), rects[i].ymax()),
                        (rects[j].ymin(), rects[j].ymax()),
                    )
                };
                ki.partial_cmp(&kj).expect("finite")
            });
            for k in m..=(n - m) {
                let rect_l = union_of(&order[..k]);
                let rect_r = union_of(&order[k..]);
                let overlap = rect_l.intersection_area(&rect_r);
                let area = rect_l.area() + rect_r.area();
                if best
                    .as_ref()
                    .is_none_or(|(bo, ba, _)| (overlap, area) < (*bo, *ba))
                {
                    best = Some((
                        overlap,
                        area,
                        Split {
                            axis,
                            k,
                            rect_l,
                            rect_r,
                        },
                    ));
                }
            }
        }
        best.expect("at least one distribution").2
    }
}

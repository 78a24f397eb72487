//! The insertion-based R*-style builder behind the TR*-tree arena.
//!
//! One object at a time: trapezoids are inserted with the R* heuristics
//! (choose-subtree by overlap/area enlargement, forced reinsert at the
//! leaf level, margin/overlap split), then [`TreeBuilder::freeze_into`]
//! appends the finished tree to the arena in breadth-first order and
//! the pointer nodes are dropped. The builder never leaves this module:
//! per-node `Vec`s and parent pointers exist for one object only.

use super::{NodeHeader, TrStarStore};
use crate::trapezoid::Trapezoid;
use msj_geom::Rect;

/// A node under construction. Children are indices into the builder's
/// node list; leaves hold trapezoid indices.
struct Node {
    rect: Rect,
    /// Height above the leaves (0 = leaf).
    level: u32,
    children: Vec<u32>,
}

pub(super) struct TreeBuilder {
    nodes: Vec<Node>,
    traps: Vec<Trapezoid>,
    /// Parent pointers (construction bookkeeping only).
    parents: Vec<Option<u32>>,
    root: u32,
    max_entries: usize,
    min_entries: usize,
}

impl TreeBuilder {
    /// Builds the tree over `traps` with node capacity `max_entries`
    /// (already clamped by the arena).
    pub(super) fn new(traps: Vec<Trapezoid>, max_entries: usize) -> Self {
        let mut tree = TreeBuilder {
            nodes: vec![Node {
                rect: Rect::from_bounds(0.0, 0.0, 0.0, 0.0),
                level: 0,
                children: Vec::new(),
            }],
            traps: Vec::with_capacity(traps.len()),
            parents: vec![None],
            root: 0,
            max_entries,
            min_entries: (max_entries / 2).max(1),
        };
        for t in traps {
            tree.insert(t);
        }
        tree
    }

    /// Appends the tree to `arena` as one object. Nodes go out in
    /// breadth-first order from the root, so the root is the object's
    /// node 0 and every node's children — directory nodes and leaf
    /// trapezoids alike — occupy one contiguous run in the order the
    /// builder held them; the dual traversal therefore visits exactly
    /// the sequence the pointer tree would.
    pub(super) fn freeze_into(&self, arena: &mut TrStarStore) {
        let trap_base = arena.traps.len();
        let mut order: Vec<u32> = Vec::with_capacity(self.nodes.len());
        order.push(self.root);
        let mut next = 0;
        while let Some(&old) = order.get(next) {
            next += 1;
            let node = &self.nodes[old as usize];
            let first = if node.level == 0 {
                let first = arena.traps.len() - trap_base;
                arena
                    .traps
                    .extend(node.children.iter().map(|&t| self.traps[t as usize]));
                first
            } else {
                let first = order.len();
                order.extend_from_slice(&node.children);
                first
            };
            arena.nodes.push(NodeHeader {
                rect: node.rect,
                first: u32::try_from(first).expect("object-local index fits u32"),
                level: u16::try_from(node.level).expect("TR*-tree height fits u16"),
                count: node.children.len() as u16, // ≤ max_entries ≤ u16::MAX
            });
        }
        arena.close_object();
    }

    fn insert(&mut self, t: Trapezoid) {
        let trap_idx = self.traps.len() as u32;
        let rect = t.mbr();
        self.traps.push(t);
        if self.traps.len() == 1 {
            // First entry initializes the root rect.
            self.nodes[self.root as usize].rect = rect;
        }
        self.place_trapezoid(trap_idx, rect, true);
    }

    /// Routes a trapezoid into a leaf. On overflow the R* *forced
    /// reinsert* runs once per insertion (leaf level only, as in the
    /// original heuristic's dominant case); afterwards the node splits.
    fn place_trapezoid(&mut self, trap_idx: u32, rect: Rect, allow_reinsert: bool) {
        let leaf = self.choose_leaf(rect);
        self.nodes[leaf as usize].children.push(trap_idx);
        self.nodes[leaf as usize].rect = if self.nodes[leaf as usize].children.len() == 1 {
            rect
        } else {
            self.nodes[leaf as usize].rect.union(&rect)
        };
        self.adjust_upward(leaf, rect);
        if self.nodes[leaf as usize].children.len() > self.max_entries {
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
        let center = self.nodes[leaf as usize].rect.center();
        let mut entries = std::mem::take(&mut self.nodes[leaf as usize].children);
        entries.sort_by(|&a, &b| {
            let da = self.traps[a as usize].mbr().center().dist_sq(center);
            let db = self.traps[b as usize].mbr().center().dist_sq(center);
            db.partial_cmp(&da).expect("finite")
        });
        let p = (entries.len() * 3 / 10).max(1);
        let removed: Vec<u32> = entries.drain(..p).collect();
        self.nodes[leaf as usize].children = entries;
        self.recompute_rects_upward(leaf);
        for trap_idx in removed {
            let rect = self.traps[trap_idx as usize].mbr();
            self.place_trapezoid(trap_idx, rect, false);
        }
    }

    /// Recomputes this node's rectangle from its children and propagates
    /// the (possibly shrunken) rectangles to the root.
    fn recompute_rects_upward(&mut self, node: u32) {
        let mut current = node;
        loop {
            let n = &self.nodes[current as usize];
            let rect = if n.level == 0 {
                n.children
                    .iter()
                    .map(|&t| self.traps[t as usize].mbr())
                    .reduce(|a, b| a.union(&b))
            } else {
                n.children
                    .iter()
                    .map(|&c| self.nodes[c as usize].rect)
                    .reduce(|a, b| a.union(&b))
            };
            if let Some(rect) = rect {
                self.nodes[current as usize].rect = rect;
            }
            match self.parent_of(current) {
                Some(p) => current = p,
                None => break,
            }
        }
    }

    /// R* choose-subtree: descend minimizing overlap enlargement at the
    /// level above the leaves and area enlargement elsewhere.
    fn choose_leaf(&self, rect: Rect) -> u32 {
        let mut node = self.root;
        loop {
            let n = &self.nodes[node as usize];
            if n.level == 0 {
                return node;
            }
            let mut best_child = n.children[0];
            let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
            for &c in &n.children {
                let crect = self.nodes[c as usize].rect;
                let enlargement = crect.enlargement(&rect);
                let overlap_delta = if n.level == 1 {
                    // Overlap enlargement against siblings.
                    let grown = crect.union(&rect);
                    let mut before = 0.0;
                    let mut after = 0.0;
                    for &s in &n.children {
                        if s == c {
                            continue;
                        }
                        let srect = self.nodes[s as usize].rect;
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

    /// Recomputes ancestor rectangles after an insertion into `node`.
    fn adjust_upward(&mut self, node: u32, rect: Rect) {
        let mut current = node;
        while let Some(parent) = self.parent_of(current) {
            self.nodes[parent as usize].rect = self.nodes[parent as usize].rect.union(&rect);
            current = parent;
        }
    }

    /// Parent lookup via the maintained in-memory pointer.
    fn parent_of(&self, node: u32) -> Option<u32> {
        self.parents[node as usize]
    }

    /// Points the parent pointers of `node`'s direct child nodes at it.
    fn reparent_children(&mut self, node: u32) {
        if self.nodes[node as usize].level == 0 {
            return; // leaf children are trapezoid indices
        }
        let children = self.nodes[node as usize].children.clone();
        for c in children {
            self.parents[c as usize] = Some(node);
        }
    }

    /// R*-style split: choose the axis with minimal margin sum, then the
    /// distribution with minimal overlap (ties: minimal total area).
    fn split(&mut self, node: u32) {
        let level = self.nodes[node as usize].level;
        let children = std::mem::take(&mut self.nodes[node as usize].children);
        let rects: Vec<Rect> = children
            .iter()
            .map(|&c| self.child_rect(level, c))
            .collect();

        let (group_a, group_b) = self.best_split(&children, &rects);

        let rect_of = |group: &[u32], this: &TreeBuilder| -> Rect {
            group
                .iter()
                .map(|&c| this.child_rect(level, c))
                .reduce(|a, b| a.union(&b))
                .expect("non-empty split group")
        };
        let rect_a = rect_of(&group_a, self);
        let rect_b = rect_of(&group_b, self);

        if node == self.root {
            // Grow the tree: new root above two fresh nodes.
            let a_idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                rect: rect_a,
                level,
                children: group_a,
            });
            self.parents.push(Some(node));
            let b_idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                rect: rect_b,
                level,
                children: group_b,
            });
            self.parents.push(Some(node));
            let root_rect = rect_a.union(&rect_b);
            self.nodes[node as usize] = Node {
                rect: root_rect,
                level: level + 1,
                children: vec![a_idx, b_idx],
            };
            self.reparent_children(a_idx);
            self.reparent_children(b_idx);
        } else {
            let parent = self.parent_of(node).expect("non-root has a parent");
            self.nodes[node as usize].rect = rect_a;
            self.nodes[node as usize].children = group_a;
            let b_idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                rect: rect_b,
                level,
                children: group_b,
            });
            self.parents.push(Some(parent));
            self.reparent_children(node);
            self.reparent_children(b_idx);
            self.nodes[parent as usize].children.push(b_idx);
            // Parent rect unchanged (children cover the same entries).
            if self.nodes[parent as usize].children.len() > self.max_entries {
                self.split(parent);
            }
        }
    }

    /// MBR of a child reference: a trapezoid for leaves, a node otherwise.
    fn child_rect(&self, level: u32, child: u32) -> Rect {
        if level == 0 {
            self.traps[child as usize].mbr()
        } else {
            self.nodes[child as usize].rect
        }
    }

    /// Chooses the split distribution (R* axis + index selection,
    /// simplified to the m..M-m prefix distributions on both axes).
    fn best_split(&self, children: &[u32], rects: &[Rect]) -> (Vec<u32>, Vec<u32>) {
        let m = self.min_entries;
        let n = children.len();
        let mut best: Option<(f64, f64, Vec<u32>, Vec<u32>)> = None;

        for axis in 0..2 {
            let mut order: Vec<usize> = (0..n).collect();
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
                let left: Vec<usize> = order[..k].to_vec();
                let right: Vec<usize> = order[k..].to_vec();
                let rect_l = left
                    .iter()
                    .map(|&i| rects[i])
                    .reduce(|a, b| a.union(&b))
                    .unwrap();
                let rect_r = right
                    .iter()
                    .map(|&i| rects[i])
                    .reduce(|a, b| a.union(&b))
                    .unwrap();
                let overlap = rect_l.intersection_area(&rect_r);
                let area = rect_l.area() + rect_r.area();
                if best
                    .as_ref()
                    .is_none_or(|(bo, ba, _, _)| (overlap, area) < (*bo, *ba))
                {
                    best = Some((
                        overlap,
                        area,
                        left.iter().map(|&i| children[i]).collect(),
                        right.iter().map(|&i| children[i]).collect(),
                    ));
                }
            }
        }
        let (_, _, a, b) = best.expect("at least one distribution");
        (a, b)
    }
}

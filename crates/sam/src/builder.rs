//! The insertion path of the R*-tree ([BKSS 90]): overlap-minimizing
//! subtree choice at the leaf level, margin-driven split-axis selection,
//! forced reinsert, and [Gut 84] deletion with underflow reinsertion.
//!
//! Only this module sees nodes as growable entry vectors with parent
//! pointers. A frozen [`RStarTree`] is [`thaw`](TreeBuilder::thaw)ed into
//! a builder, mutated, and [`freeze`](TreeBuilder::freeze)d back into the
//! column arena every traversal reads — nodes keep their numbers, so a
//! tree built here has the image the per-insert tree always had.

use crate::rstar::{empty_rect, PageLayout, RStarTree};
use msj_geom::Rect;

/// A rectangle with its object id (level 0) or child node (above): the
/// owning node's level says which, as in the image.
type Entry = (Rect, u32);

#[derive(Debug, Clone)]
struct Node {
    level: u32,
    rect: Rect,
    entries: Vec<Entry>,
}

impl Node {
    fn recompute_rect(&mut self) {
        self.rect = group_rect(&self.entries).unwrap_or_else(empty_rect);
    }
}

pub(crate) struct TreeBuilder {
    layout: PageLayout,
    nodes: Vec<Node>,
    /// Parent pointers (bookkeeping only — not part of the simulated page
    /// content; real pages do not store them either).
    parents: Vec<Option<u32>>,
    root: u32,
    len: usize,
}

impl TreeBuilder {
    pub(crate) fn new(layout: PageLayout) -> Self {
        TreeBuilder {
            layout,
            nodes: vec![Node {
                level: 0,
                rect: empty_rect(),
                entries: Vec::new(),
            }],
            parents: vec![None],
            root: 0,
            len: 0,
        }
    }

    /// The builder form of a frozen tree; parent pointers are re-derived
    /// from the directory entries.
    pub(crate) fn thaw(tree: &RStarTree) -> Self {
        let mut parents = vec![None; tree.num_pages()];
        let nodes = (0..tree.num_pages() as u32)
            .map(|i| {
                let (rects, vals) = tree.entries(i);
                if tree.node_level(i) > 0 {
                    for &child in vals {
                        parents[child as usize] = Some(i);
                    }
                }
                Node {
                    level: tree.node_level(i),
                    rect: tree.node_rect(i),
                    entries: rects.iter().copied().zip(vals.iter().copied()).collect(),
                }
            })
            .collect();
        // A shortened root stays in the arena as garbage still naming its
        // only child, which may be the live root.
        parents[tree.root_page() as usize] = None;
        TreeBuilder {
            layout: tree.layout(),
            nodes,
            parents,
            root: tree.root_page(),
            len: tree.len(),
        }
    }

    /// Writes the nodes, in their numbering, into a column arena that
    /// pages through `tag`.
    pub(crate) fn freeze(self, tag: u32) -> RStarTree {
        let mut tree = RStarTree::bare(self.layout, tag, self.len);
        for node in &self.nodes {
            tree.push_node(node.level, node.rect, &node.entries);
        }
        tree.seal(self.root)
    }

    fn min_entries(&self, level: u32) -> usize {
        (self.layout.max_entries(level) * 2 / 5).max(1)
    }

    pub(crate) fn insert(&mut self, rect: Rect, id: u32) {
        let mut reinserted = [false; 32];
        self.insert_entry((rect, id), 0, &mut reinserted);
        self.len += 1;
    }

    /// Removes the entry `(rect, id)`; `false` when it does not exist.
    /// Underfull nodes on the deletion path are dissolved and their
    /// surviving entries reinserted at their original level; a root with
    /// a single directory entry is shortened.
    pub(crate) fn delete(&mut self, rect: Rect, id: u32) -> bool {
        let Some(leaf) = self.find_leaf(self.root, rect, id) else {
            return false;
        };
        let node = &mut self.nodes[leaf as usize];
        let idx = node
            .entries
            .iter()
            .position(|&e| e == (rect, id))
            .expect("find_leaf returned a leaf containing the entry");
        node.entries.swap_remove(idx);
        self.len -= 1;
        self.condense_path(leaf);
        self.shorten_root();
        true
    }

    /// Locates the leaf containing the exact entry `(rect, id)`.
    fn find_leaf(&self, node: u32, rect: Rect, id: u32) -> Option<u32> {
        let n = &self.nodes[node as usize];
        if n.level == 0 {
            return n.entries.contains(&(rect, id)).then_some(node);
        }
        n.entries
            .iter()
            .filter(|(crect, _)| crect.contains_rect(&rect))
            .find_map(|&(_, child)| self.find_leaf(child, rect, id))
    }

    /// Sets the rectangle `parent` records for `child`.
    fn set_child_rect(&mut self, parent: u32, child: u32, rect: Rect) {
        for e in self.nodes[parent as usize].entries.iter_mut() {
            if e.1 == child {
                e.0 = rect;
            }
        }
    }

    /// Walks from `node` to the root, dissolving underfull nodes and
    /// recomputing rectangles; dissolved subtrees are reinserted.
    fn condense_path(&mut self, node: u32) {
        let mut current = node;
        // Entries to reinsert, tagged with their level.
        let mut orphans: Vec<(Entry, u32)> = Vec::new();
        loop {
            let parent = self.parents[current as usize];
            let level = self.nodes[current as usize].level;
            let underfull = self.nodes[current as usize].entries.len() < self.min_entries(level)
                && current != self.root;
            if underfull {
                let parent = parent.expect("non-root node has a parent");
                // Detach `current` from its parent and orphan its entries.
                // (The empty node stays in the arena as garbage; the
                // simulated store does not reuse pages.)
                let entries = std::mem::take(&mut self.nodes[current as usize].entries);
                orphans.extend(entries.into_iter().map(|e| (e, level)));
                self.nodes[parent as usize]
                    .entries
                    .retain(|e| e.1 != current);
                self.nodes[parent as usize].recompute_rect();
                current = parent;
            } else {
                // Recompute this node's rect and fix the parent entry.
                self.nodes[current as usize].recompute_rect();
                let Some(p) = parent else { break };
                let rect = self.nodes[current as usize].rect;
                self.set_child_rect(p, current, rect);
                current = p;
            }
        }
        // Reinsert orphans at their original levels (leaf entries re-add
        // objects; directory entries re-add whole subtrees).
        for (entry, level) in orphans {
            let mut reinserted = [false; 32];
            self.insert_entry(entry, level, &mut reinserted);
        }
    }

    /// Shrinks the root while it is a directory node with one child.
    fn shorten_root(&mut self) {
        while self.nodes[self.root as usize].level > 0
            && self.nodes[self.root as usize].entries.len() == 1
        {
            let child = self.nodes[self.root as usize].entries[0].1;
            self.root = child;
            self.parents[child as usize] = None;
        }
        if self.nodes[self.root as usize].entries.is_empty() {
            // Tree became empty: reset to a fresh leaf root.
            self.nodes[self.root as usize].level = 0;
            self.nodes[self.root as usize].rect = empty_rect();
        }
    }

    fn insert_entry(&mut self, entry: Entry, level: u32, reinserted: &mut [bool; 32]) {
        let target = self.choose_subtree(entry.0, level);
        self.nodes[target as usize].entries.push(entry);
        if level > 0 {
            // Reinserted subtrees move: keep the parent pointer current.
            self.parents[entry.1 as usize] = Some(target);
        }
        let node = &mut self.nodes[target as usize];
        node.rect = if node.entries.len() == 1 {
            entry.0
        } else {
            node.rect.union(&entry.0)
        };
        self.adjust_path_rects(target);
        if self.nodes[target as usize].entries.len() > self.layout.max_entries(level) {
            self.overflow(target, reinserted);
        }
    }

    /// R* choose-subtree descending to `level`.
    ///
    /// Directly above the leaves the R* overlap-enlargement criterion is
    /// applied; following the original paper's optimization, only the 32
    /// entries with the least area enlargement are examined for overlap.
    fn choose_subtree(&self, rect: Rect, level: u32) -> u32 {
        let mut node = self.root;
        while self.nodes[node as usize].level > level {
            let n = &self.nodes[node as usize];
            let mut best = u32::MAX;
            let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
            if n.level == 1 && n.entries.len() > 2 {
                // Rank children by area enlargement, examine the top 32.
                let mut ranked: Vec<(f64, f64, Rect, u32)> = n
                    .entries
                    .iter()
                    .map(|&(crect, child)| (crect.enlargement(&rect), crect.area(), crect, child))
                    .collect();
                ranked.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).expect("finite"));
                ranked.truncate(32);
                for &(enlargement, area, crect, child) in &ranked {
                    let grown = crect.union(&rect);
                    let mut delta = 0.0;
                    for (srect, sibling) in &n.entries {
                        if *sibling != child {
                            delta +=
                                grown.intersection_area(srect) - crect.intersection_area(srect);
                        }
                    }
                    let key = (delta, enlargement, area);
                    if key < best_key {
                        best_key = key;
                        best = child;
                    }
                }
            } else {
                for &(crect, child) in &n.entries {
                    let key = (0.0, crect.enlargement(&rect), crect.area());
                    if key < best_key {
                        best_key = key;
                        best = child;
                    }
                }
            }
            node = best;
        }
        node
    }

    /// Recomputes the rectangles from `node` up to the root.
    fn adjust_path_rects(&mut self, node: u32) {
        let mut current = node;
        while let Some(parent) = self.parents[current as usize] {
            let child_rect = self.nodes[current as usize].rect;
            self.set_child_rect(parent, current, child_rect);
            self.nodes[parent as usize].recompute_rect();
            current = parent;
        }
    }

    /// Points the parent pointers of `node`'s direct children at `node`.
    fn reparent_children(&mut self, node: u32) {
        if self.nodes[node as usize].level > 0 {
            for &(_, child) in &self.nodes[node as usize].entries {
                self.parents[child as usize] = Some(node);
            }
        }
    }

    /// R* overflow treatment: forced reinsert once per level per
    /// insertion, then splits.
    fn overflow(&mut self, node: u32, reinserted: &mut [bool; 32]) {
        let level = self.nodes[node as usize].level as usize;
        if node != self.root && level < reinserted.len() && !reinserted[level] {
            reinserted[level] = true;
            self.reinsert(node, reinserted);
        } else {
            self.split(node, reinserted);
        }
    }

    /// Forced reinsert: remove the 30 % of entries whose centers are
    /// farthest from the node center and insert them again (far-first).
    fn reinsert(&mut self, node: u32, reinserted: &mut [bool; 32]) {
        let level = self.nodes[node as usize].level;
        let center = self.nodes[node as usize].rect.center();
        let mut entries = std::mem::take(&mut self.nodes[node as usize].entries);
        entries.sort_by(|a, b| {
            let da = a.0.center().dist_sq(center);
            let db = b.0.center().dist_sq(center);
            db.partial_cmp(&da).expect("finite")
        });
        let p = (entries.len() * 3 / 10).max(1);
        let removed: Vec<Entry> = entries.drain(..p).collect();
        self.nodes[node as usize].entries = entries;
        self.nodes[node as usize].recompute_rect();
        self.adjust_path_rects(node);
        for e in removed {
            self.insert_entry(e, level, reinserted);
        }
    }

    /// Appends a node under `parent` and returns its number.
    fn push_node(&mut self, node: Node, parent: u32) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(node);
        self.parents.push(Some(parent));
        self.reparent_children(idx);
        idx
    }

    /// R* split: margin-minimal axis, overlap-minimal distribution.
    fn split(&mut self, node: u32, reinserted: &mut [bool; 32]) {
        let level = self.nodes[node as usize].level;
        let entries = std::mem::take(&mut self.nodes[node as usize].entries);
        let (group_a, group_b) = split_entries(&entries, self.min_entries(level));
        let rect_a = group_rect(&group_a).expect("non-empty group");
        let rect_b = group_rect(&group_b).expect("non-empty group");
        let half = |rect, entries| Node {
            level,
            rect,
            entries,
        };

        if node == self.root {
            let a_idx = self.push_node(half(rect_a, group_a), node);
            let b_idx = self.push_node(half(rect_b, group_b), node);
            self.nodes[node as usize] = Node {
                level: level + 1,
                rect: rect_a.union(&rect_b),
                entries: vec![(rect_a, a_idx), (rect_b, b_idx)],
            };
        } else {
            let parent = self.parents[node as usize].expect("non-root parent");
            self.nodes[node as usize].entries = group_a;
            self.nodes[node as usize].rect = rect_a;
            let b_idx = self.push_node(half(rect_b, group_b), parent);
            // Fix the parent's entry for `node` and add the new sibling.
            self.set_child_rect(parent, node, rect_a);
            self.nodes[parent as usize].entries.push((rect_b, b_idx));
            self.nodes[parent as usize].recompute_rect();
            self.adjust_path_rects(parent);
            if self.nodes[parent as usize].entries.len() > self.layout.max_entries(level + 1) {
                self.overflow(parent, reinserted);
            }
        }
    }
}

/// MBR of an entry group; `None` when it is empty.
pub(crate) fn group_rect(group: &[Entry]) -> Option<Rect> {
    group.iter().map(|e| e.0).reduce(|a, b| a.union(&b))
}

/// R* split of an entry set: choose the axis with minimal margin sum over
/// all distributions, then the distribution with minimal overlap (ties:
/// minimal area).
fn split_entries(entries: &[Entry], m: usize) -> (Vec<Entry>, Vec<Entry>) {
    let n = entries.len();
    let m = m.min((n - 1) / 2).max(1);

    let mut best: Option<(f64, f64, Vec<Entry>, Vec<Entry>)> = None;
    for axis in 0..2 {
        // R* considers sorts by lower and by upper bound.
        for by_upper in [false, true] {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&i, &j| {
                let key = |k: usize| {
                    let r = entries[k].0;
                    match (axis, by_upper) {
                        (0, false) => (r.xmin(), r.xmax()),
                        (0, true) => (r.xmax(), r.xmin()),
                        (1, false) => (r.ymin(), r.ymax()),
                        (_, _) => (r.ymax(), r.ymin()),
                    }
                };
                key(i).partial_cmp(&key(j)).expect("finite")
            });
            for k in m..=(n - m) {
                let left: Vec<Entry> = order[..k].iter().map(|&i| entries[i]).collect();
                let right: Vec<Entry> = order[k..].iter().map(|&i| entries[i]).collect();
                let rl = group_rect(&left).expect("non-empty group");
                let rr = group_rect(&right).expect("non-empty group");
                let overlap = rl.intersection_area(&rr);
                let area = rl.area() + rr.area();
                if best
                    .as_ref()
                    .is_none_or(|(bo, ba, _, _)| (overlap, area) < (*bo, *ba))
                {
                    best = Some((overlap, area, left, right));
                }
            }
        }
    }
    let (_, _, a, b) = best.expect("at least one split");
    (a, b)
}

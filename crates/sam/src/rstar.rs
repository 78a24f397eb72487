//! A paged R*-tree ([BKSS 90]) with the byte-level storage model of the
//! paper.
//!
//! The tree simulates secondary storage: every node is a page whose
//! capacity derives from the page size and the entry byte size. Queries
//! route node visits through an external [`LruBuffer`], which yields the
//! physical-page-access counts the paper reports (§3.4, §5). Insertion
//! implements the R* heuristics: overlap-minimizing subtree choice at the
//! leaf level, margin-driven split-axis selection, and forced reinsert.

use crate::buffer::{LruBuffer, PageId};
use msj_geom::bytes::{Col, Dec, DecResult, Enc};
use msj_geom::{ObjectId, Point, Rect};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// Page / entry byte layout (§3.4: "each description of an object stored
/// in an R*-tree needs 16 Byte for the MBR, ... and 32 Byte for additional
/// information"; directory entries hold a rectangle and a child pointer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageLayout {
    /// Page size in bytes (2 KB and 4 KB in the paper).
    pub page_size: usize,
    /// Bytes per leaf entry: key + object info + stored approximations.
    pub leaf_entry_bytes: usize,
    /// Bytes per directory entry: 16 B rectangle + 4 B child pointer.
    pub dir_entry_bytes: usize,
}

impl PageLayout {
    /// The baseline layout: MBR key (16 B) + object info (32 B).
    pub fn baseline(page_size: usize) -> Self {
        PageLayout {
            page_size,
            leaf_entry_bytes: 48,
            dir_entry_bytes: 20,
        }
    }

    /// A layout with `extra` approximation bytes per leaf entry.
    pub fn with_extra_bytes(page_size: usize, extra: usize) -> Self {
        PageLayout {
            page_size,
            leaf_entry_bytes: 48 + extra,
            dir_entry_bytes: 20,
        }
    }

    /// Maximum leaf entries per page (at least 2).
    pub fn max_leaf_entries(&self) -> usize {
        (self.page_size / self.leaf_entry_bytes).max(2)
    }

    /// Maximum directory entries per page (at least 2).
    pub fn max_dir_entries(&self) -> usize {
        (self.page_size / self.dir_entry_bytes).max(2)
    }
}

/// An entry of a node: a leaf object reference or a child page reference.
#[derive(Debug, Clone, Copy)]
pub enum Entry {
    Leaf { rect: Rect, id: ObjectId },
    Dir { rect: Rect, child: u32 },
}

impl Entry {
    #[inline]
    pub fn rect(&self) -> Rect {
        match self {
            Entry::Leaf { rect, .. } | Entry::Dir { rect, .. } => *rect,
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    level: u32,
    rect: Rect,
    entries: Vec<Entry>,
}

impl Node {
    fn recompute_rect(&mut self) {
        self.rect = self
            .entries
            .iter()
            .map(|e| e.rect())
            .reduce(|a, b| a.union(&b))
            .unwrap_or(Rect::from_bounds(0.0, 0.0, 0.0, 0.0));
    }
}

static TREE_TAG: AtomicU32 = AtomicU32::new(1);

/// The paged R*-tree.
#[derive(Debug, Clone)]
pub struct RStarTree {
    layout: PageLayout,
    nodes: Vec<Node>,
    /// In-memory parent pointers (bookkeeping only — not part of the
    /// simulated page content; real pages do not store them either).
    parents: Vec<Option<u32>>,
    root: u32,
    len: usize,
    /// Globally unique tag namespacing this tree's pages in shared
    /// buffers.
    tag: u32,
    /// Lazily built per-node SoA repack of the entry MBRs, consumed by the
    /// wide join kernels. Invalidated on every mutation; rebuilding is one
    /// linear pass over the arena.
    soa: OnceLock<EntrySoa>,
}

/// Structure-of-arrays view of every node's entry rectangles: four f64
/// columns per node (xmin/ymin/xmax/ymax), sliced by node via `offsets`.
/// The column order within a node matches the node's entry order, so a
/// column index is directly an index into [`RStarTree::node_entries`].
#[derive(Debug, Clone, Default)]
pub(crate) struct EntrySoa {
    offsets: Vec<u32>,
    xmin: Vec<f64>,
    ymin: Vec<f64>,
    xmax: Vec<f64>,
    ymax: Vec<f64>,
}

impl EntrySoa {
    fn build(nodes: &[Node]) -> Self {
        let total: usize = nodes.iter().map(|n| n.entries.len()).sum();
        let mut soa = EntrySoa {
            offsets: Vec::with_capacity(nodes.len() + 1),
            xmin: Vec::with_capacity(total),
            ymin: Vec::with_capacity(total),
            xmax: Vec::with_capacity(total),
            ymax: Vec::with_capacity(total),
        };
        soa.offsets.push(0);
        for n in nodes {
            for e in &n.entries {
                let r = e.rect();
                soa.xmin.push(r.xmin());
                soa.ymin.push(r.ymin());
                soa.xmax.push(r.xmax());
                soa.ymax.push(r.ymax());
            }
            soa.offsets.push(soa.xmin.len() as u32);
        }
        soa
    }

    /// The four MBR columns of one node, in entry order.
    pub(crate) fn node_columns(&self, node: u32) -> (&[f64], &[f64], &[f64], &[f64]) {
        let lo = self.offsets[node as usize] as usize;
        let hi = self.offsets[node as usize + 1] as usize;
        (
            &self.xmin[lo..hi],
            &self.ymin[lo..hi],
            &self.xmax[lo..hi],
            &self.ymax[lo..hi],
        )
    }
}

impl RStarTree {
    /// An empty tree with the given layout.
    pub fn new(layout: PageLayout) -> Self {
        RStarTree {
            layout,
            nodes: vec![Node {
                level: 0,
                rect: Rect::from_bounds(0.0, 0.0, 0.0, 0.0),
                entries: Vec::new(),
            }],
            parents: vec![None],
            root: 0,
            len: 0,
            tag: TREE_TAG.fetch_add(1, Ordering::Relaxed),
            soa: OnceLock::new(),
        }
    }

    /// Builds a tree by inserting `(rect, id)` pairs one at a time, in
    /// order — N top-down R* insertions, exactly as a dynamic workload
    /// would produce them (splits, forced reinserts and all).
    ///
    /// This is **not** a bulk loader: pages end up ~70 % full and the
    /// build costs N · O(log N) node traversals. When the whole relation
    /// is available up front, use [`RStarTree::bulk_load`] instead.
    pub fn insert_all<I: IntoIterator<Item = (Rect, ObjectId)>>(
        layout: PageLayout,
        items: I,
    ) -> Self {
        let mut tree = RStarTree::new(layout);
        for (rect, id) in items {
            tree.insert(rect, id);
        }
        tree
    }

    /// Builds a tree by **sort-tile-recursive (STR) bulk loading**
    /// (Leutenegger et al. 1997): sort the keys by x-center, cut them
    /// into ⌈√P⌉ vertical slices (P = pages needed), sort each slice by
    /// y-center, and pack consecutive runs into completely filled pages;
    /// repeat one level up until a single root remains.
    ///
    /// Compared with [`RStarTree::insert_all`] the build is one sort plus
    /// a linear packing pass per level, every page except the last per
    /// level is 100 % full (fewer pages → fewer I/Os per query/join), and
    /// the result is deterministic in the input order of ties. The tree
    /// is a regular [`RStarTree`] afterwards: inserts and deletes work,
    /// queries and joins are answered identically to an incrementally
    /// built tree (only page boundaries — and therefore I/O counts and
    /// candidate *order* — differ).
    pub fn bulk_load<I: IntoIterator<Item = (Rect, ObjectId)>>(
        layout: PageLayout,
        items: I,
    ) -> Self {
        let mut items: Vec<(Rect, ObjectId)> = items.into_iter().collect();
        let len = items.len();
        let leaf_cap = layout.max_leaf_entries();
        if len <= leaf_cap {
            // Single leaf root; also covers the empty tree.
            let mut tree = RStarTree::new(layout);
            tree.nodes[0].entries = items
                .iter()
                .map(|&(rect, id)| Entry::Leaf { rect, id })
                .collect();
            tree.nodes[0].recompute_rect();
            tree.len = len;
            return tree;
        }

        let mut tree = RStarTree {
            layout,
            nodes: Vec::new(),
            parents: Vec::new(),
            root: 0,
            len,
            tag: TREE_TAG.fetch_add(1, Ordering::Relaxed),
            soa: OnceLock::new(),
        };

        // Pack the leaf level from the raw keys.
        let mut level_nodes: Vec<u32> = Vec::new();
        str_tile(&mut items, leaf_cap, |run| {
            let idx = tree.nodes.len() as u32;
            let mut node = Node {
                level: 0,
                rect: Rect::from_bounds(0.0, 0.0, 0.0, 0.0),
                entries: run
                    .iter()
                    .map(|&(rect, id)| Entry::Leaf { rect, id })
                    .collect(),
            };
            node.recompute_rect();
            tree.nodes.push(node);
            tree.parents.push(None);
            level_nodes.push(idx);
        });

        // Pack directory levels until one node remains.
        let dir_cap = layout.max_dir_entries();
        let mut level = 0u32;
        while level_nodes.len() > 1 {
            level += 1;
            let mut children: Vec<(Rect, u32)> = level_nodes
                .iter()
                .map(|&idx| (tree.nodes[idx as usize].rect, idx))
                .collect();
            let mut next_level: Vec<u32> = Vec::new();
            str_tile(&mut children, dir_cap, |run| {
                let idx = tree.nodes.len() as u32;
                let mut node = Node {
                    level,
                    rect: Rect::from_bounds(0.0, 0.0, 0.0, 0.0),
                    entries: run
                        .iter()
                        .map(|&(rect, child)| Entry::Dir { rect, child })
                        .collect(),
                };
                node.recompute_rect();
                tree.nodes.push(node);
                tree.parents.push(None);
                for &(_, child) in run {
                    tree.parents[child as usize] = Some(idx);
                }
                next_level.push(idx);
            });
            level_nodes = next_level;
        }
        tree.root = level_nodes[0];
        tree
    }

    pub fn layout(&self) -> PageLayout {
        self.layout
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages (nodes).
    pub fn num_pages(&self) -> usize {
        self.nodes.len()
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> u32 {
        self.nodes[self.root as usize].level + 1
    }

    /// The root page id within this tree.
    pub fn root_page(&self) -> u32 {
        self.root
    }

    /// The root MBR covering all keys.
    pub fn root_rect(&self) -> Rect {
        self.nodes[self.root as usize].rect
    }

    /// Average leaf fill factor (entries / capacity).
    pub fn avg_leaf_fill(&self) -> f64 {
        let cap = self.layout.max_leaf_entries() as f64;
        let leaves: Vec<&Node> = self.nodes.iter().filter(|n| n.level == 0).collect();
        if leaves.is_empty() {
            return 0.0;
        }
        leaves
            .iter()
            .map(|n| n.entries.len() as f64 / cap)
            .sum::<f64>()
            / leaves.len() as f64
    }

    /// Namespaced page id for buffer accounting.
    #[inline]
    pub fn page_id(&self, node: u32) -> PageId {
        ((self.tag as u64) << 32) | node as u64
    }

    fn max_entries(&self, level: u32) -> usize {
        if level == 0 {
            self.layout.max_leaf_entries()
        } else {
            self.layout.max_dir_entries()
        }
    }

    fn min_entries(&self, level: u32) -> usize {
        (self.max_entries(level) * 2 / 5).max(1)
    }

    /// Inserts one object key.
    pub fn insert(&mut self, rect: Rect, id: ObjectId) {
        self.soa = OnceLock::new();
        let mut reinserted = [false; 32];
        self.insert_entry(Entry::Leaf { rect, id }, 0, &mut reinserted);
        self.len += 1;
    }

    /// Deletes the entry `(rect, id)` from the tree (R-tree deletion with
    /// underflow reinsertion, [Gut 84] §3.3 adapted to the R* variant).
    ///
    /// Returns `true` when the entry existed. Underfull nodes on the
    /// deletion path are dissolved and their surviving entries reinserted
    /// at their original level; a root with a single directory entry is
    /// shortened.
    pub fn delete(&mut self, rect: Rect, id: ObjectId) -> bool {
        self.soa = OnceLock::new();
        let Some(leaf) = self.find_leaf(self.root, rect, id) else {
            return false;
        };
        let node = &mut self.nodes[leaf as usize];
        let idx = node
            .entries
            .iter()
            .position(|e| matches!(e, Entry::Leaf { rect: r, id: i } if *i == id && *r == rect))
            .expect("find_leaf returned a leaf containing the entry");
        node.entries.swap_remove(idx);
        self.len -= 1;
        self.condense_path(leaf);
        self.shorten_root();
        true
    }

    /// Locates the leaf containing the exact entry `(rect, id)`.
    fn find_leaf(&self, node: u32, rect: Rect, id: ObjectId) -> Option<u32> {
        let n = &self.nodes[node as usize];
        if n.level == 0 {
            return n
                .entries
                .iter()
                .any(|e| matches!(e, Entry::Leaf { rect: r, id: i } if *i == id && *r == rect))
                .then_some(node);
        }
        for e in &n.entries {
            if let Entry::Dir { rect: crect, child } = e {
                if crect.contains_rect(&rect) {
                    if let Some(found) = self.find_leaf(*child, rect, id) {
                        return Some(found);
                    }
                }
            }
        }
        None
    }

    /// Walks from `node` to the root, dissolving underfull nodes and
    /// recomputing rectangles; dissolved subtrees are reinserted.
    fn condense_path(&mut self, node: u32) {
        let mut current = node;
        // Entries to reinsert, tagged with their level.
        let mut orphans: Vec<(Entry, u32)> = Vec::new();
        loop {
            let parent = self.find_parent(current);
            let level = self.nodes[current as usize].level;
            let underfull = self.nodes[current as usize].entries.len() < self.min_entries(level)
                && current != self.root;
            if underfull {
                let parent = parent.expect("non-root node has a parent");
                // Detach `current` from its parent and orphan its entries.
                let entries = std::mem::take(&mut self.nodes[current as usize].entries);
                for e in entries {
                    orphans.push((e, level));
                }
                self.nodes[parent as usize]
                    .entries
                    .retain(|e| !matches!(e, Entry::Dir { child, .. } if *child == current));
                self.nodes[parent as usize].recompute_rect();
                // (The empty node stays in the arena as garbage; the
                // simulated store does not reuse pages.)
                current = parent;
            } else {
                // Recompute this node's rect and fix the parent entry.
                self.nodes[current as usize].recompute_rect();
                match parent {
                    Some(p) => {
                        let rect = self.nodes[current as usize].rect;
                        for e in self.nodes[p as usize].entries.iter_mut() {
                            if let Entry::Dir { rect: r, child } = e {
                                if *child == current {
                                    *r = rect;
                                }
                            }
                        }
                        current = p;
                    }
                    None => break,
                }
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
            let Entry::Dir { child, .. } = self.nodes[self.root as usize].entries[0] else {
                unreachable!("directory node holds dir entries");
            };
            self.root = child;
            self.parents[child as usize] = None;
        }
        if self.nodes[self.root as usize].entries.is_empty() {
            // Tree became empty: reset to a fresh leaf root.
            self.nodes[self.root as usize].level = 0;
            self.nodes[self.root as usize].rect = Rect::from_bounds(0.0, 0.0, 0.0, 0.0);
        }
    }

    fn insert_entry(&mut self, entry: Entry, level: u32, reinserted: &mut [bool; 32]) {
        let target = self.choose_subtree(entry.rect(), level);
        self.nodes[target as usize].entries.push(entry);
        if let Entry::Dir { child, .. } = entry {
            // Reinserted subtrees move: keep the parent pointer current.
            self.parents[child as usize] = Some(target);
        }
        if self.nodes[target as usize].entries.len() == 1 {
            self.nodes[target as usize].rect = entry.rect();
        } else {
            let r = self.nodes[target as usize].rect.union(&entry.rect());
            self.nodes[target as usize].rect = r;
        }
        self.adjust_path_rects(target);
        if self.nodes[target as usize].entries.len() > self.max_entries(level) {
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
            let child_level = n.level - 1;
            let mut best = u32::MAX;
            let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
            if child_level == 0 && n.entries.len() > 2 {
                // Rank children by area enlargement, examine the top 32.
                let mut ranked: Vec<(f64, f64, Rect, u32)> = n
                    .entries
                    .iter()
                    .filter_map(|e| match e {
                        Entry::Dir { rect: crect, child } => {
                            Some((crect.enlargement(&rect), crect.area(), *crect, *child))
                        }
                        Entry::Leaf { .. } => None,
                    })
                    .collect();
                ranked.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).expect("finite"));
                ranked.truncate(32);
                for &(enlargement, area, crect, child) in &ranked {
                    let grown = crect.union(&rect);
                    let mut delta = 0.0;
                    for e in &n.entries {
                        let Entry::Dir {
                            rect: srect,
                            child: sc,
                        } = e
                        else {
                            continue;
                        };
                        if *sc == child {
                            continue;
                        }
                        delta += grown.intersection_area(srect) - crect.intersection_area(srect);
                    }
                    let key = (delta, enlargement, area);
                    if key < best_key {
                        best_key = key;
                        best = child;
                    }
                }
            } else {
                for e in &n.entries {
                    let Entry::Dir { rect: crect, child } = e else {
                        continue;
                    };
                    let key = (0.0, crect.enlargement(&rect), crect.area());
                    if key < best_key {
                        best_key = key;
                        best = *child;
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
        while let Some(parent) = self.find_parent(current) {
            let child_rect = self.nodes[current as usize].rect;
            for e in self.nodes[parent as usize].entries.iter_mut() {
                if let Entry::Dir { rect, child } = e {
                    if *child == current {
                        *rect = child_rect;
                    }
                }
            }
            self.nodes[parent as usize].recompute_rect();
            current = parent;
        }
    }

    /// Parent lookup via the maintained in-memory pointer.
    fn find_parent(&self, node: u32) -> Option<u32> {
        self.parents[node as usize]
    }

    /// Points the parent pointers of `node`'s direct children at `node`.
    fn reparent_children(&mut self, node: u32) {
        if self.nodes[node as usize].level == 0 {
            return;
        }
        let children: Vec<u32> = self.nodes[node as usize]
            .entries
            .iter()
            .filter_map(|e| match e {
                Entry::Dir { child, .. } => Some(*child),
                Entry::Leaf { .. } => None,
            })
            .collect();
        for c in children {
            self.parents[c as usize] = Some(node);
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
            let da = a.rect().center().dist_sq(center);
            let db = b.rect().center().dist_sq(center);
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

    /// R* split: margin-minimal axis, overlap-minimal distribution.
    fn split(&mut self, node: u32, reinserted: &mut [bool; 32]) {
        let level = self.nodes[node as usize].level;
        let entries = std::mem::take(&mut self.nodes[node as usize].entries);
        let m = self.min_entries(level);
        let (group_a, group_b) = split_entries(&entries, m);

        let rect_a = group_rect(&group_a);
        let rect_b = group_rect(&group_b);

        if node == self.root {
            let a_idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                level,
                rect: rect_a,
                entries: group_a,
            });
            self.parents.push(Some(node));
            let b_idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                level,
                rect: rect_b,
                entries: group_b,
            });
            self.parents.push(Some(node));
            for idx in [a_idx, b_idx] {
                self.reparent_children(idx);
            }
            self.nodes[node as usize] = Node {
                level: level + 1,
                rect: rect_a.union(&rect_b),
                entries: vec![
                    Entry::Dir {
                        rect: rect_a,
                        child: a_idx,
                    },
                    Entry::Dir {
                        rect: rect_b,
                        child: b_idx,
                    },
                ],
            };
        } else {
            let parent = self.find_parent(node).expect("non-root parent");
            self.nodes[node as usize].entries = group_a;
            self.nodes[node as usize].rect = rect_a;
            let b_idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                level,
                rect: rect_b,
                entries: group_b,
            });
            self.parents.push(Some(parent));
            self.reparent_children(b_idx);
            // Fix the parent's entry for `node` and add the new sibling.
            for e in self.nodes[parent as usize].entries.iter_mut() {
                if let Entry::Dir { rect, child } = e {
                    if *child == node {
                        *rect = rect_a;
                    }
                }
            }
            self.nodes[parent as usize].entries.push(Entry::Dir {
                rect: rect_b,
                child: b_idx,
            });
            self.nodes[parent as usize].recompute_rect();
            self.adjust_path_rects(parent);
            if self.nodes[parent as usize].entries.len() > self.max_entries(level + 1) {
                self.overflow(parent, reinserted);
            }
        }
    }

    /// Point query: ids of all leaf entries whose rectangles contain `p`.
    /// Every node visit goes through `buffer`.
    pub fn point_query(&self, p: Point, buffer: &mut LruBuffer) -> Vec<ObjectId> {
        let mut result = Vec::new();
        let mut stack = vec![self.root];
        while let Some(cur) = stack.pop() {
            buffer.access(self.page_id(cur));
            let n = &self.nodes[cur as usize];
            for e in &n.entries {
                match e {
                    Entry::Leaf { rect, id } => {
                        if rect.contains_point(p) {
                            result.push(*id);
                        }
                    }
                    Entry::Dir { rect, child } => {
                        if rect.contains_point(p) {
                            stack.push(*child);
                        }
                    }
                }
            }
        }
        result
    }

    /// Window query: ids of all leaf entries intersecting `window`.
    pub fn window_query(&self, window: Rect, buffer: &mut LruBuffer) -> Vec<ObjectId> {
        let mut result = Vec::new();
        let mut stack = vec![self.root];
        while let Some(cur) = stack.pop() {
            buffer.access(self.page_id(cur));
            let n = &self.nodes[cur as usize];
            for e in &n.entries {
                match e {
                    Entry::Leaf { rect, id } => {
                        if rect.intersects(&window) {
                            result.push(*id);
                        }
                    }
                    Entry::Dir { rect, child } => {
                        if rect.intersects(&window) {
                            stack.push(*child);
                        }
                    }
                }
            }
        }
        result
    }

    /// Internal access for the join module.
    pub(crate) fn node_level(&self, node: u32) -> u32 {
        self.nodes[node as usize].level
    }

    pub(crate) fn node_rect(&self, node: u32) -> Rect {
        self.nodes[node as usize].rect
    }

    pub(crate) fn node_entries(&self, node: u32) -> &[Entry] {
        &self.nodes[node as usize].entries
    }

    /// The lazily built SoA repack of all entry MBRs (see [`EntrySoa`]).
    /// First call after a mutation pays one linear rebuild pass.
    pub(crate) fn entry_soa(&self) -> &EntrySoa {
        self.soa.get_or_init(|| EntrySoa::build(&self.nodes))
    }

    /// Structural invariant checks (used by tests): entry capacities,
    /// rectangle containment, level consistency, and object count.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = 0usize;
        let mut stack = vec![self.root];
        while let Some(cur) = stack.pop() {
            let n = &self.nodes[cur as usize];
            if cur != self.root && n.entries.is_empty() {
                return Err(format!("empty non-root node {cur}"));
            }
            if n.entries.len() > self.max_entries(n.level) {
                return Err(format!(
                    "node {cur} over capacity: {} > {}",
                    n.entries.len(),
                    self.max_entries(n.level)
                ));
            }
            for e in &n.entries {
                if !n.rect.contains_rect(&e.rect()) {
                    return Err(format!("node {cur} rect does not cover an entry"));
                }
                match e {
                    Entry::Leaf { .. } => {
                        if n.level != 0 {
                            return Err(format!("leaf entry in level-{} node", n.level));
                        }
                        seen += 1;
                    }
                    Entry::Dir { rect, child } => {
                        if n.level == 0 {
                            return Err("dir entry in leaf".into());
                        }
                        let c = &self.nodes[*child as usize];
                        if c.level + 1 != n.level {
                            return Err(format!("child level {} under level {}", c.level, n.level));
                        }
                        if *rect != c.rect {
                            return Err(format!("stale dir rect for child {child}"));
                        }
                        stack.push(*child);
                    }
                }
            }
        }
        if seen != self.len {
            return Err(format!("object count mismatch: {seen} != {}", self.len));
        }
        Ok(())
    }

    /// The tree as its persistent image: the page layout, root, and object
    /// count (`page_size`, `leaf_entry_bytes`, `dir_entry_bytes` as `u64`,
    /// `root: u32`, `len: u64`), then five counted columns — per-node
    /// levels, per-node rectangles (4 `f64`s: xmin, ymin, xmax, ymax),
    /// per-node entry offsets (`nodes + 1`), entry rectangles and entry
    /// values. Entry kind is implied by the owning node's level (level 0
    /// holds leaf entries, higher levels directory entries), so the value
    /// column packs object ids and child pointers into one `u32` lane.
    /// Parent pointers, the buffer tag and the SoA repack are derived
    /// state and are not written.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.nodes.len();
        let total: usize = self.nodes.iter().map(|nd| nd.entries.len()).sum();
        let mut e = Enc::with_capacity(36 + 5 * 8 + 4 * (2 * n + 1 + total) + 32 * (n + total));
        e.u64(self.layout.page_size as u64);
        e.u64(self.layout.leaf_entry_bytes as u64);
        e.u64(self.layout.dir_entry_bytes as u64);
        e.u32(self.root);
        e.u64(self.len as u64);
        e.count(n);
        for node in &self.nodes {
            e.u32(node.level);
        }
        e.count(4 * n);
        for node in &self.nodes {
            e.f64x(node.rect.bounds());
        }
        e.count(n + 1);
        let mut entries_so_far = 0u32;
        e.u32(0);
        for node in &self.nodes {
            entries_so_far += node.entries.len() as u32;
            e.u32(entries_so_far);
        }
        e.count(4 * total);
        for entry in self.nodes.iter().flat_map(|nd| &nd.entries) {
            e.f64x(entry.rect().bounds());
        }
        e.count(total);
        for entry in self.nodes.iter().flat_map(|nd| &nd.entries) {
            e.u32(match entry {
                Entry::Leaf { id, .. } => *id,
                Entry::Dir { child, .. } => *child,
            });
        }
        e.into_bytes()
    }

    /// Adopts an [`RStarTree::to_bytes`] image — a linear pass over the
    /// columns, no STR repacking or reinsertion. Parent pointers are
    /// rebuilt from the directory entries, and the tree receives a fresh
    /// buffer tag and an empty SoA cache (both are process-local state).
    /// Structural validation rejects malformed images (a child exactly
    /// one level below its parent rules out cycles); the result traverses
    /// identically to the tree that was written.
    pub fn from_bytes(bytes: &[u8]) -> DecResult<Self> {
        let mut d = Dec::new(bytes);
        let mut layout_field = || -> DecResult<usize> {
            match usize::try_from(d.u64()?) {
                Ok(0) | Err(_) => Err("degenerate page layout"),
                Ok(v) => Ok(v),
            }
        };
        let layout = PageLayout {
            page_size: layout_field()?,
            leaf_entry_bytes: layout_field()?,
            dir_entry_bytes: layout_field()?,
        };
        let root = d.u32()?;
        let len = d.u64()?;
        let levels = d.u32s()?;
        let node_rects = d.f64s()?;
        let offsets = d.u32s()?;
        let entry_rects = d.f64s()?;
        let vals = d.u32s()?;
        d.finish()?;

        let n = levels.len();
        if n == 0 {
            return Err("tree image has no nodes");
        }
        if node_rects.len() != 4 * n {
            return Err("node rect column length mismatch");
        }
        if offsets.len() != n + 1 || offsets.get(0) != 0 {
            return Err("entry offset table malformed");
        }
        let total = vals.len();
        if offsets.get(n) as usize != total || entry_rects.len() != 4 * total {
            return Err("entry column length mismatch");
        }
        if root as usize >= n {
            return Err("root out of range");
        }
        let mut nodes = Vec::with_capacity(n);
        let mut parents: Vec<Option<u32>> = vec![None; n];
        let mut leaf_entries = 0u64;
        for i in 0..n {
            let level = levels.get(i);
            let lo = offsets.get(i) as usize;
            let hi = offsets.get(i + 1) as usize;
            if lo > hi || hi > total {
                return Err("entry offsets not monotonic");
            }
            let mut entries = Vec::with_capacity(hi - lo);
            for j in lo..hi {
                let rect = read_rect(&entry_rects, j)?;
                let val = vals.get(j);
                if level == 0 {
                    entries.push(Entry::Leaf { rect, id: val });
                    leaf_entries += 1;
                } else {
                    let child = val as usize;
                    if child >= n {
                        return Err("child pointer out of range");
                    }
                    if levels.get(child) != level - 1 {
                        return Err("child level inconsistent");
                    }
                    parents[child] = Some(i as u32);
                    entries.push(Entry::Dir { rect, child: val });
                }
            }
            nodes.push(Node {
                level,
                rect: read_rect(&node_rects, i)?,
                entries,
            });
        }
        if leaf_entries != len {
            return Err("object count does not match the leaf entries");
        }
        Ok(RStarTree {
            layout,
            nodes,
            parents,
            root,
            len: leaf_entries as usize,
            tag: TREE_TAG.fetch_add(1, Ordering::Relaxed),
            soa: OnceLock::new(),
        })
    }
}

/// Rectangle `i` of a 4-scalars-per-rectangle column.
fn read_rect(col: &Col<'_, f64>, i: usize) -> DecResult<Rect> {
    Rect::from_ordered_bounds(std::array::from_fn(|k| col.get(4 * i + k)))
        .ok_or("rectangle bounds not ordered")
}

/// One STR tiling pass: sorts `(rect, payload)` items by x-center, cuts
/// them into ⌈√P⌉ vertical slices of whole pages (P = ⌈N / cap⌉), sorts
/// each slice by y-center, and emits consecutive runs of at most `cap`
/// items (every run except possibly the last is exactly `cap` long).
///
/// Sorting is *stable* in the input order, so the packing — and with it
/// the whole bulk-loaded tree — is deterministic.
fn str_tile<T: Copy>(items: &mut [(Rect, T)], cap: usize, mut emit: impl FnMut(&[(Rect, T)])) {
    let center_x = |r: &Rect| r.xmin() + r.xmax();
    let center_y = |r: &Rect| r.ymin() + r.ymax();
    let pages = items.len().div_ceil(cap);
    let slices = ((pages as f64).sqrt().ceil() as usize).max(1);
    let slice_len = pages.div_ceil(slices) * cap;
    items.sort_by(|a, b| center_x(&a.0).partial_cmp(&center_x(&b.0)).expect("finite"));
    for slice in items.chunks_mut(slice_len) {
        slice.sort_by(|a, b| center_y(&a.0).partial_cmp(&center_y(&b.0)).expect("finite"));
        for run in slice.chunks(cap) {
            emit(run);
        }
    }
}

/// MBR of an entry group.
fn group_rect(group: &[Entry]) -> Rect {
    group
        .iter()
        .map(|e| e.rect())
        .reduce(|a, b| a.union(&b))
        .expect("non-empty group")
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
                    let r = entries[k].rect();
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
                let rl = group_rect(&left);
                let rr = group_rect(&right);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_tree(n_side: usize, layout: PageLayout) -> RStarTree {
        let mut tree = RStarTree::new(layout);
        let mut id = 0u32;
        for i in 0..n_side {
            for j in 0..n_side {
                let x = i as f64 * 10.0;
                let y = j as f64 * 10.0;
                tree.insert(Rect::from_bounds(x, y, x + 8.0, y + 8.0), id);
                id += 1;
            }
        }
        tree
    }

    #[test]
    fn layout_capacities() {
        let l = PageLayout::baseline(4096);
        assert_eq!(l.max_leaf_entries(), 4096 / 48);
        assert_eq!(l.max_dir_entries(), 4096 / 20);
        let l2 = PageLayout::with_extra_bytes(2048, 40 + 16); // 5-C + MER
        assert_eq!(l2.leaf_entry_bytes, 104);
        assert_eq!(l2.max_leaf_entries(), 2048 / 104);
    }

    #[test]
    fn invariants_hold_after_many_inserts() {
        // A small page size forces many splits and reinserts.
        let layout = PageLayout {
            page_size: 256,
            leaf_entry_bytes: 48,
            dir_entry_bytes: 20,
        };
        let tree = grid_tree(20, layout);
        assert_eq!(tree.len(), 400);
        tree.check_invariants().expect("invariants");
        assert!(tree.height() >= 2);
        assert!(tree.num_pages() > 10);
    }

    #[test]
    fn point_queries_find_exactly_the_covering_objects() {
        let layout = PageLayout {
            page_size: 256,
            leaf_entry_bytes: 48,
            dir_entry_bytes: 20,
        };
        let tree = grid_tree(10, layout);
        let mut buffer = LruBuffer::new(1024);
        // Inside cell (3, 4): object id 3*10+4 = 34.
        let hits = tree.point_query(Point::new(34.0, 44.0), &mut buffer);
        assert_eq!(hits, vec![34]);
        // In the gap between cells: nothing.
        let misses = tree.point_query(Point::new(9.0, 9.0), &mut buffer);
        assert!(misses.is_empty());
        assert!(buffer.stats().logical >= 2);
    }

    #[test]
    fn window_query_matches_linear_scan() {
        let layout = PageLayout {
            page_size: 512,
            leaf_entry_bytes: 48,
            dir_entry_bytes: 20,
        };
        let tree = grid_tree(12, layout);
        let mut buffer = LruBuffer::new(1024);
        let window = Rect::from_bounds(15.0, 25.0, 47.0, 58.0);
        let mut hits = tree.window_query(window, &mut buffer);
        hits.sort_unstable();
        // Linear reference.
        let mut expect = Vec::new();
        for i in 0..12u32 {
            for j in 0..12u32 {
                let r = Rect::from_bounds(
                    i as f64 * 10.0,
                    j as f64 * 10.0,
                    i as f64 * 10.0 + 8.0,
                    j as f64 * 10.0 + 8.0,
                );
                if r.intersects(&window) {
                    expect.push(i * 12 + j);
                }
            }
        }
        expect.sort_unstable();
        assert_eq!(hits, expect);
    }

    #[test]
    fn smaller_pages_make_taller_trees() {
        let small = grid_tree(
            16,
            PageLayout {
                page_size: 256,
                leaf_entry_bytes: 48,
                dir_entry_bytes: 20,
            },
        );
        let large = grid_tree(
            16,
            PageLayout {
                page_size: 4096,
                leaf_entry_bytes: 48,
                dir_entry_bytes: 20,
            },
        );
        assert!(small.height() > large.height());
        assert!(small.num_pages() > large.num_pages());
    }

    #[test]
    fn bigger_leaf_entries_reduce_fanout_and_increase_pages() {
        // Approach-2 storage (extra approximation bytes) must cost pages.
        let slim = grid_tree(16, PageLayout::baseline(512));
        let fat = grid_tree(16, PageLayout::with_extra_bytes(512, 56));
        assert!(fat.num_pages() > slim.num_pages());
    }

    #[test]
    fn buffer_counts_fewer_physical_reads_when_warm() {
        let layout = PageLayout {
            page_size: 512,
            leaf_entry_bytes: 48,
            dir_entry_bytes: 20,
        };
        let tree = grid_tree(12, layout);
        let mut buffer = LruBuffer::new(1024);
        let w = Rect::from_bounds(0.0, 0.0, 120.0, 120.0);
        tree.window_query(w, &mut buffer);
        let cold = buffer.stats().physical;
        buffer.reset_stats();
        tree.window_query(w, &mut buffer);
        let warm = buffer.stats().physical;
        assert!(warm == 0, "warm physical reads {warm}");
        assert!(cold > 0);
    }

    #[test]
    fn avg_leaf_fill_is_reasonable() {
        let layout = PageLayout {
            page_size: 512,
            leaf_entry_bytes: 48,
            dir_entry_bytes: 20,
        };
        let tree = grid_tree(16, layout);
        let fill = tree.avg_leaf_fill();
        assert!(fill > 0.4 && fill <= 1.0, "fill {fill}");
    }

    #[test]
    fn empty_and_single_entry_trees() {
        let layout = PageLayout::baseline(4096);
        let empty = RStarTree::new(layout);
        assert!(empty.is_empty());
        assert_eq!(empty.height(), 1);
        let mut one = RStarTree::new(layout);
        one.insert(Rect::from_bounds(0.0, 0.0, 1.0, 1.0), 7);
        let mut buffer = LruBuffer::new(8);
        assert_eq!(one.point_query(Point::new(0.5, 0.5), &mut buffer), vec![7]);
        one.check_invariants().unwrap();
    }

    fn grid_items(n_side: usize) -> Vec<(Rect, ObjectId)> {
        let mut items = Vec::new();
        let mut id = 0u32;
        for i in 0..n_side {
            for j in 0..n_side {
                let x = i as f64 * 10.0;
                let y = j as f64 * 10.0;
                items.push((Rect::from_bounds(x, y, x + 8.0, y + 8.0), id));
                id += 1;
            }
        }
        items
    }

    #[test]
    fn bulk_load_satisfies_invariants_and_packs_pages() {
        let layout = PageLayout {
            page_size: 256,
            leaf_entry_bytes: 48,
            dir_entry_bytes: 20,
        };
        let items = grid_items(20);
        let packed = RStarTree::bulk_load(layout, items.iter().copied());
        packed.check_invariants().expect("packed invariants");
        assert_eq!(packed.len(), 400);
        let incremental = RStarTree::insert_all(layout, items.iter().copied());
        // STR packs pages full; incremental insertion cannot do better.
        assert!(packed.avg_leaf_fill() > incremental.avg_leaf_fill());
        assert!(packed.avg_leaf_fill() > 0.9, "{}", packed.avg_leaf_fill());
        assert!(packed.num_pages() < incremental.num_pages());
    }

    #[test]
    fn bulk_load_answers_queries_like_incremental_insertion() {
        let layout = PageLayout {
            page_size: 384,
            leaf_entry_bytes: 48,
            dir_entry_bytes: 20,
        };
        let items = grid_items(13);
        let packed = RStarTree::bulk_load(layout, items.iter().copied());
        let incremental = RStarTree::insert_all(layout, items.iter().copied());
        let mut b1 = LruBuffer::new(4096);
        let mut b2 = LruBuffer::new(4096);
        for window in [
            Rect::from_bounds(15.0, 25.0, 47.0, 58.0),
            Rect::from_bounds(-10.0, -10.0, 5.0, 5.0),
            Rect::from_bounds(0.0, 0.0, 130.0, 130.0),
        ] {
            let mut a = packed.window_query(window, &mut b1);
            let mut b = incremental.window_query(window, &mut b2);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        let p = Point::new(34.0, 44.0);
        assert_eq!(
            packed.point_query(p, &mut b1),
            incremental.point_query(p, &mut b2)
        );
    }

    #[test]
    fn bulk_load_edge_cases() {
        let layout = PageLayout::baseline(4096);
        let empty = RStarTree::bulk_load(layout, std::iter::empty());
        assert!(empty.is_empty());
        assert_eq!(empty.height(), 1);
        empty.check_invariants().unwrap();

        let one = RStarTree::bulk_load(layout, [(Rect::from_bounds(0.0, 0.0, 1.0, 1.0), 7u32)]);
        assert_eq!(one.len(), 1);
        one.check_invariants().unwrap();
        let mut buffer = LruBuffer::new(8);
        assert_eq!(one.point_query(Point::new(0.5, 0.5), &mut buffer), vec![7]);

        // Exactly one page, one page + 1, and a capacity boundary.
        let cap = layout.max_leaf_entries();
        for n in [cap, cap + 1, cap * cap] {
            let items: Vec<(Rect, ObjectId)> = (0..n)
                .map(|i| {
                    let x = (i % 97) as f64;
                    let y = (i / 97) as f64;
                    (Rect::from_bounds(x, y, x + 0.5, y + 0.5), i as u32)
                })
                .collect();
            let tree = RStarTree::bulk_load(layout, items.iter().copied());
            assert_eq!(tree.len(), n);
            tree.check_invariants()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn bulk_load_is_deterministic() {
        let layout = PageLayout {
            page_size: 512,
            leaf_entry_bytes: 48,
            dir_entry_bytes: 20,
        };
        let items = grid_items(15);
        let t1 = RStarTree::bulk_load(layout, items.iter().copied());
        let t2 = RStarTree::bulk_load(layout, items.iter().copied());
        assert_eq!(t1.num_pages(), t2.num_pages());
        let mut b1 = LruBuffer::new(4096);
        let mut b2 = LruBuffer::new(4096);
        let w = Rect::from_bounds(0.0, 0.0, 160.0, 160.0);
        // Identical packing → identical traversal order, not just set.
        assert_eq!(t1.window_query(w, &mut b1), t2.window_query(w, &mut b2));
    }

    #[test]
    fn bulk_loaded_trees_accept_inserts_and_deletes() {
        let layout = PageLayout {
            page_size: 256,
            leaf_entry_bytes: 48,
            dir_entry_bytes: 20,
        };
        let items = grid_items(12);
        let mut tree = RStarTree::bulk_load(layout, items.iter().copied());
        // Delete a third of the objects, insert them back shifted.
        for &(rect, id) in items.iter().step_by(3) {
            assert!(tree.delete(rect, id), "delete {id}");
        }
        tree.check_invariants().expect("after deletes");
        for &(rect, id) in items.iter().step_by(3) {
            tree.insert(rect.translated(Point::new(1.0, 1.0)), id);
        }
        tree.check_invariants().expect("after reinserts");
        assert_eq!(tree.len(), 144);
    }

    #[test]
    fn image_round_trips_and_traverses_identically() {
        let layout = PageLayout {
            page_size: 256,
            leaf_entry_bytes: 48,
            dir_entry_bytes: 20,
        };
        for tree in [
            RStarTree::bulk_load(layout, grid_items(14)),
            RStarTree::insert_all(layout, grid_items(9)),
            RStarTree::new(layout),
        ] {
            let bytes = tree.to_bytes();
            let back = RStarTree::from_bytes(&bytes).expect("own image decodes");
            assert_eq!(back.to_bytes(), bytes);
            back.check_invariants().unwrap();
            assert_eq!((back.len(), back.height()), (tree.len(), tree.height()));
            assert_ne!(back.page_id(0), tree.page_id(0), "fresh buffer tag");
            let w = Rect::from_bounds(12.0, 3.0, 77.0, 58.0);
            let (mut b1, mut b2) = (LruBuffer::new(4096), LruBuffer::new(4096));
            assert_eq!(tree.window_query(w, &mut b1), back.window_query(w, &mut b2));
            assert_eq!(b1.stats().logical, b2.stats().logical);
        }
    }

    #[test]
    fn image_with_a_child_on_the_wrong_level_is_refused() {
        let layout = PageLayout {
            page_size: 256,
            leaf_entry_bytes: 48,
            dir_entry_bytes: 20,
        };
        let tree = RStarTree::bulk_load(layout, grid_items(14));
        assert!(tree.height() >= 3);
        let mut bytes = tree.to_bytes();
        // The level column follows the 36-byte header and its own count;
        // node 0 is a leaf. Calling it a level-1 node makes its object ids
        // child pointers to leaves' siblings, and its parent's level wrong.
        assert_eq!(bytes[44..48], 0u32.to_le_bytes());
        bytes[44] = 1;
        assert!(RStarTree::from_bytes(&bytes).is_err());
    }

    #[test]
    fn page_ids_are_namespaced_per_tree() {
        let layout = PageLayout::baseline(4096);
        let t1 = RStarTree::new(layout);
        let t2 = RStarTree::new(layout);
        assert_ne!(t1.page_id(0), t2.page_id(0));
    }
}

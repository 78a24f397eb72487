//! A paged R*-tree ([BKSS 90]) with the byte-level storage model of the
//! paper, held as one frozen, flat column arena.
//!
//! The tree models secondary storage: every node is a page whose
//! capacity derives from the page size and the entry byte size. Queries
//! count node visits and report each to a [`PageObserver`]; an
//! [`LruBuffer`](crate::LruBuffer) there yields the paper's physical page
//! accesses (§3.4, §5).
//!
//! # The arena
//!
//! Nodes are numbered in the order [`RStarTree::bulk_load`] packed them;
//! every column below is indexed by that number, or by a position in the
//! entry run `entry_offsets[node]..entry_offsets[node + 1]`. There are
//! eight columns: `levels`, `node_rects`, `entry_offsets`, the entry
//! rectangles as four `f64` columns (`xmin`, `ymin`, `ymax`, `xmax`), and
//! one `u32` value column (object id at level 0, child node above).
//!
//! Each node's entries are kept in one order, **stably sorted by
//! `xmin`** — [BKS 93a]'s plane-sweep order, ties in the order STR packed
//! them. [`tree_join`](crate::tree_join) restricts and sweeps these
//! columns without sorting: a subsequence of a stably sorted column is
//! the stable sort of that subsequence, so the order a per-visit sort
//! would establish — ties included — is the order already on the "page".
//! Point and window descents and the pruning step between trees of
//! unequal height read the same order, so their results arrive in it.
//!
//! After the layout scalars the columns *are* [`RStarTree::to_bytes`];
//! [`RStarTree::from_bytes`] validates them, sweep order included, and
//! adopts them without sorting. A tree is built only by STR packing and
//! is not edited afterwards.

use crate::buffer::{PageId, PageObserver};
use msj_geom::bytes::{Col, Dec, DecResult, Enc};
use msj_geom::stack::InlineStack;
use msj_geom::{ObjectId, Point, Rect};
use std::sync::atomic::{AtomicU32, Ordering};

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
        PageLayout::with_extra_bytes(page_size, 0)
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

    /// Maximum entries of a node on `level` (0 = leaf).
    pub fn max_entries(&self, level: u32) -> usize {
        if level == 0 {
            self.max_leaf_entries()
        } else {
            self.max_dir_entries()
        }
    }
}

static TREE_TAG: AtomicU32 = AtomicU32::new(1);

/// The paged R*-tree (see the [module docs](self) for the column arena).
#[derive(Debug, Clone)]
pub struct RStarTree {
    layout: PageLayout,
    pub(crate) root: u32,
    len: usize,
    /// Globally unique tag namespacing this tree's pages in shared
    /// buffers.
    tag: u32,
    levels: Vec<u32>,
    node_rects: Vec<Rect>,
    entry_offsets: Vec<u32>,
    xmin: Vec<f64>,
    ymin: Vec<f64>,
    ymax: Vec<f64>,
    xmax: Vec<f64>,
    vals: Vec<u32>,
}

/// One node's entries in sweep order: the four rectangle columns and the
/// value of each entry (object id at level 0, child node above).
#[derive(Clone, Copy)]
pub(crate) struct Entries<'a> {
    pub xmin: &'a [f64],
    pub ymin: &'a [f64],
    pub ymax: &'a [f64],
    pub xmax: &'a [f64],
    pub vals: &'a [u32],
}

impl Entries<'_> {
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// The rectangle of entry `k`.
    #[inline]
    pub fn rect(&self, k: usize) -> Rect {
        Rect::from_bounds(self.xmin[k], self.ymin[k], self.xmax[k], self.ymax[k])
    }
}

impl RStarTree {
    /// An empty tree with the given layout.
    pub fn new(layout: PageLayout) -> Self {
        RStarTree::bulk_load(layout, [])
    }

    /// Builds a tree by **sort-tile-recursive (STR) bulk loading**
    /// (Leutenegger et al. 1997): sort the keys by x-center, cut them
    /// into ⌈√P⌉ vertical slices (P = pages needed), sort each slice by
    /// y-center, and pack consecutive runs into completely filled pages;
    /// repeat one level up until a single root remains. Each packed run
    /// is stored stably sorted by `xmin`, the sweep order.
    ///
    /// The build is one sort plus a linear packing pass per level, every
    /// page except the last per level is 100 % full, and the result is
    /// deterministic in the input order of ties.
    pub fn bulk_load<I: IntoIterator<Item = (Rect, ObjectId)>>(
        layout: PageLayout,
        items: I,
    ) -> Self {
        let mut items: Vec<(Rect, ObjectId)> = items.into_iter().collect();
        // Sized up front: growing five entry columns of a large tree by
        // doubling costs as much as filling them.
        let entries = entry_count(layout, items.len());
        let column = || Vec::with_capacity(entries);
        let mut tree = RStarTree {
            layout,
            root: 0,
            len: items.len(),
            tag: TREE_TAG.fetch_add(1, Ordering::Relaxed),
            levels: Vec::new(),
            node_rects: Vec::new(),
            entry_offsets: vec![0],
            xmin: column(),
            ymin: column(),
            ymax: column(),
            xmax: column(),
            vals: Vec::with_capacity(entries),
        };
        let mut keys = Vec::new();
        let mut pack = |level: u32, run: &[(Rect, u32)]| {
            let rect = group_rect(run);
            stable_order(&mut keys, 0, run.iter().map(|e| e.0.xmin()));
            let sorted = keys.iter().map(|k| run[k.1 as usize]);
            (rect, tree.push_node(level, rect, sorted))
        };
        if items.len() <= layout.max_leaf_entries() {
            // Single leaf root; also covers the empty tree.
            pack(0, &items);
            return tree;
        }
        // Pack the leaf level from the raw keys, then directory levels
        // from the level below until one node remains.
        let mut level = 0;
        let mut level_nodes: Vec<(Rect, u32)> = Vec::new();
        str_tile(&mut items, layout.max_leaf_entries(), |run| {
            level_nodes.push(pack(level, run));
        });
        while level_nodes.len() > 1 {
            level += 1;
            let mut next_level = Vec::new();
            str_tile(&mut level_nodes, layout.max_dir_entries(), |run| {
                next_level.push(pack(level, run));
            });
            level_nodes = next_level;
        }
        tree.root = level_nodes[0].1;
        tree
    }

    /// Appends the next node, its entries already in sweep order, and
    /// returns its number.
    fn push_node(
        &mut self,
        level: u32,
        rect: Rect,
        entries: impl Iterator<Item = (Rect, u32)>,
    ) -> u32 {
        let node = self.levels.len() as u32;
        self.levels.push(level);
        self.node_rects.push(rect);
        for (r, val) in entries {
            self.xmin.push(r.xmin());
            self.ymin.push(r.ymin());
            self.ymax.push(r.ymax());
            self.xmax.push(r.xmax());
            self.vals.push(val);
        }
        self.entry_offsets.push(self.vals.len() as u32);
        node
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
        self.levels.len()
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> u32 {
        self.levels[self.root as usize] + 1
    }

    /// The root MBR covering all keys.
    pub fn root_rect(&self) -> Rect {
        self.node_rects[self.root as usize]
    }

    /// Average leaf fill factor (entries / capacity).
    pub fn avg_leaf_fill(&self) -> f64 {
        let cap = self.layout.max_leaf_entries() as f64;
        let (fill, leaves) = (0..self.num_pages() as u32)
            .filter(|&n| self.node_level(n) == 0)
            .fold((0.0, 0usize), |(fill, leaves), n| {
                (fill + self.entries(n).len() as f64 / cap, leaves + 1)
            });
        if leaves == 0 {
            0.0
        } else {
            fill / leaves as f64
        }
    }

    /// Namespaced page id for buffer accounting.
    #[inline]
    pub fn page_id(&self, node: u32) -> PageId {
        ((self.tag as u64) << 32) | node as u64
    }

    /// Point query: appends to `out` the ids of all leaf entries whose
    /// rectangles contain `p`; returns the node visits.
    pub fn point_query(
        &self,
        p: Point,
        pages: &mut impl PageObserver,
        out: &mut Vec<ObjectId>,
    ) -> u64 {
        self.descend(pages, |r| r.contains_point(p), |_, id| out.push(id))
    }

    /// Window query: appends to `out` the ids of all leaf entries
    /// intersecting `window`; returns the node visits.
    pub fn window_query(
        &self,
        window: Rect,
        pages: &mut impl PageObserver,
        out: &mut Vec<ObjectId>,
    ) -> u64 {
        self.descend(pages, |r| r.intersects(&window), |_, id| out.push(id))
    }

    /// [`RStarTree::window_query`] that also pushes onto `proved`, per id
    /// appended, whether the window provably meets that object — its MBR
    /// has an extent inside the window ([`Rect::covers_an_extent_of`]),
    /// decided on the leaf entry the descent already holds.
    pub fn window_query_proving(
        &self,
        window: Rect,
        pages: &mut impl PageObserver,
        out: &mut Vec<ObjectId>,
        proved: &mut Vec<bool>,
    ) -> u64 {
        self.descend(
            pages,
            |r| r.intersects(&window),
            |r, id| {
                out.push(id);
                proved.push(window.covers_an_extent_of(r));
            },
        )
    }

    /// Depth-first descent on an inline stack: no allocation while at
    /// most [`INLINE_STACK`](msj_geom::stack::INLINE_STACK) subtrees wait.
    /// Every entry where `hit` holds is followed, or at a leaf handed to
    /// `found` with its object id. Inlined into every caller: out of
    /// line it cost in-process windows 5 %.
    #[inline(always)]
    fn descend(
        &self,
        pages: &mut impl PageObserver,
        hit: impl Fn(&Rect) -> bool,
        mut found: impl FnMut(&Rect, ObjectId),
    ) -> u64 {
        let mut visits = 0;
        let mut stack = InlineStack::new(self.root);
        stack.push_if(self.root, true);
        while let Some(cur) = stack.pop() {
            visits += 1;
            pages.access(self.page_id(cur));
            let node = self.entries(cur);
            if self.node_level(cur) == 0 {
                for (k, &id) in node.vals.iter().enumerate() {
                    let r = node.rect(k);
                    if hit(&r) {
                        found(&r, id);
                    }
                }
            } else {
                for (k, &child) in node.vals.iter().enumerate() {
                    stack.push_if(child, hit(&node.rect(k)));
                }
            }
        }
        visits
    }

    pub(crate) fn node_level(&self, node: u32) -> u32 {
        self.levels[node as usize]
    }

    pub(crate) fn node_rect(&self, node: u32) -> Rect {
        self.node_rects[node as usize]
    }

    /// The entries of `node`, in sweep order.
    pub(crate) fn entries(&self, node: u32) -> Entries<'_> {
        let span = self.entry_offsets[node as usize] as usize
            ..self.entry_offsets[node as usize + 1] as usize;
        Entries {
            xmin: &self.xmin[span.clone()],
            ymin: &self.ymin[span.clone()],
            ymax: &self.ymax[span.clone()],
            xmax: &self.xmax[span.clone()],
            vals: &self.vals[span],
        }
    }

    /// Structural invariant checks (used by tests): entry capacities,
    /// sweep order, rectangle containment, level consistency, and object
    /// count.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = 0usize;
        let mut stack = vec![self.root];
        while let Some(cur) = stack.pop() {
            let (level, rect) = (self.node_level(cur), self.node_rect(cur));
            let node = self.entries(cur);
            if cur != self.root && node.len() == 0 {
                return Err(format!("empty non-root node {cur}"));
            }
            if node.len() > self.layout.max_entries(level) {
                let max = self.layout.max_entries(level);
                return Err(format!("node {cur} over capacity: {} > {max}", node.len()));
            }
            if node.xmin.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("node {cur} entries out of sweep order"));
            }
            if !(0..node.len()).all(|k| rect.contains_rect(&node.rect(k))) {
                return Err(format!("node {cur} rect does not cover an entry"));
            }
            if level == 0 {
                seen += node.len();
                continue;
            }
            for (k, &child) in node.vals.iter().enumerate() {
                if self.node_level(child) + 1 != level {
                    let child_level = self.node_level(child);
                    return Err(format!("child level {child_level} under level {level}"));
                }
                if node.rect(k) != self.node_rect(child) {
                    return Err(format!("stale dir rect for child {child}"));
                }
                stack.push(child);
            }
        }
        if seen != self.len {
            return Err(format!("object count mismatch: {seen} != {}", self.len));
        }
        Ok(())
    }

    /// The tree as its persistent image: the page layout, root, and object
    /// count (`page_size`, `leaf_entry_bytes`, `dir_entry_bytes` as `u64`,
    /// `root: u32`, `len: u64`), then the arena's columns, each counted —
    /// per-node levels, per-node rectangles (4 `f64`s: xmin, ymin, xmax,
    /// ymax), per-node entry offsets (`nodes + 1`), the entries' `xmin`,
    /// `ymin`, `ymax` and `xmax`, and the entry values, every node's run
    /// in sweep order. Entry kind is implied by the owning node's level
    /// (level 0 holds leaf entries, higher levels directory entries), so
    /// the value column packs object ids and child pointers into one
    /// `u32` lane. The buffer tag is process-local and is not written.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (n, total) = (self.num_pages(), self.vals.len());
        let mut e = Enc::with_capacity(36 + 8 * 8 + 4 * (2 * n + 1 + total) + 32 * (n + total));
        e.u64(self.layout.page_size as u64);
        e.u64(self.layout.leaf_entry_bytes as u64);
        e.u64(self.layout.dir_entry_bytes as u64);
        e.u32(self.root);
        e.u64(self.len as u64);
        e.u32s(&self.levels);
        e.count(4 * n);
        for r in &self.node_rects {
            e.f64x(r.bounds());
        }
        e.u32s(&self.entry_offsets);
        for column in [&self.xmin, &self.ymin, &self.ymax, &self.xmax] {
            e.f64s(column);
        }
        e.u32s(&self.vals);
        e.into_bytes()
    }

    /// Adopts an [`RStarTree::to_bytes`] image — one validating pass over
    /// the columns, no sorting, no STR repacking. The tree receives a
    /// fresh buffer tag (process-local state). Structural validation
    /// rejects malformed images (a child exactly one level below its
    /// parent rules out cycles), rectangles whose bounds are not ordered,
    /// a node whose entries are out of sweep order, and any image whose
    /// leaf ids are not a permutation of `0..len` — so only a tree over a
    /// relation's own ids round-trips; the result traverses identically
    /// to the tree that was written.
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
        let [xmin, ymin, ymax, xmax] = [d.f64s()?, d.f64s()?, d.f64s()?, d.f64s()?];
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
        let entry_columns = [&xmin, &ymin, &ymax, &xmax];
        if offsets.get(n) as usize != total || entry_columns.iter().any(|c| c.len() != total) {
            return Err("entry column length mismatch");
        }
        if root as usize >= n {
            return Err("root out of range");
        }
        let mut leaf_entries = 0u64;
        for i in 0..n {
            let level = levels.get(i);
            let (lo, hi) = (offsets.get(i) as usize, offsets.get(i + 1) as usize);
            if lo > hi || hi > total {
                return Err("entry offsets not monotonic");
            }
            for j in lo..hi {
                if !(xmin.get(j) <= xmax.get(j) && ymin.get(j) <= ymax.get(j)) {
                    return Err("rectangle bounds not ordered");
                }
                if j > lo && xmin.get(j - 1) > xmin.get(j) {
                    return Err("entries not in sweep order");
                }
            }
            if level == 0 {
                leaf_entries += (hi - lo) as u64;
                continue;
            }
            for child in (lo..hi).map(|j| vals.get(j) as usize) {
                if child >= n {
                    return Err("child pointer out of range");
                }
                if levels.get(child) != level - 1 {
                    return Err("child level inconsistent");
                }
            }
        }
        if leaf_entries != len {
            return Err("object count does not match the leaf entries");
        }
        // Leaf ids index the per-object columns of the tree's relation —
        // some through unchecked SIMD gathers — so they must be `0..len`,
        // each exactly once: one pass over a bitset of `len` bits.
        let mut seen = vec![0u32; leaf_entries.div_ceil(32) as usize];
        for i in (0..n).filter(|&i| levels.get(i) == 0) {
            for j in offsets.get(i) as usize..offsets.get(i + 1) as usize {
                let id = vals.get(j) as usize;
                let (word, bit) = (id / 32, 1u32 << (id % 32));
                match seen.get_mut(word) {
                    Some(w) if *w & bit == 0 && (id as u64) < len => *w |= bit,
                    _ => return Err("leaf ids are not a permutation of 0..len"),
                }
            }
        }
        Ok(RStarTree {
            layout,
            root,
            len: leaf_entries as usize,
            tag: TREE_TAG.fetch_add(1, Ordering::Relaxed),
            levels: levels.to_vec(),
            node_rects: read_rects(&node_rects)?,
            entry_offsets: offsets.to_vec(),
            xmin: xmin.to_vec(),
            ymin: ymin.to_vec(),
            ymax: ymax.to_vec(),
            xmax: xmax.to_vec(),
            vals: vals.to_vec(),
        })
    }
}

/// MBR of an entry group; the empty rectangle at the origin for an empty
/// group (the root of an empty tree).
fn group_rect(group: &[(Rect, u32)]) -> Rect {
    let rects = group.iter().map(|e| e.0);
    rects
        .reduce(|a, b| a.union(&b))
        .unwrap_or(Rect::from_bounds(0.0, 0.0, 0.0, 0.0))
}

/// Entries of an STR-packed tree over `n` keys: the keys plus one
/// directory entry per node below the root.
fn entry_count(layout: PageLayout, n: usize) -> usize {
    let (mut total, mut nodes) = (n, n.div_ceil(layout.max_leaf_entries()));
    while nodes > 1 {
        total += nodes;
        nodes = nodes.div_ceil(layout.max_dir_entries());
    }
    total
}

/// Fills `keys` with `(sort key, position)` of every value, positions
/// counted from `first`, in the order a stable sort by value puts them.
fn stable_order(keys: &mut Vec<(u64, u32)>, first: u32, values: impl Iterator<Item = f64>) {
    keys.clear();
    keys.extend((first..).zip(values).map(|(i, x)| (sort_key(x), i)));
    keys.sort_unstable();
}

/// An integer that orders like `x` under `<` with `-0.0 == 0.0`, for
/// non-NaN `x`: adding `0.0` folds the zeros together, then the usual
/// sign-magnitude to two's-complement flip.
fn sort_key(x: f64) -> u64 {
    let bits = (x + 0.0).to_bits();
    bits ^ (((bits as i64) >> 63) as u64 | 1 << 63)
}

/// The rectangles of a 4-scalars-per-rectangle column.
fn read_rects(col: &Col<'_, f64>) -> DecResult<Vec<Rect>> {
    (0..col.len() / 4)
        .map(|i| {
            Rect::from_ordered_bounds(std::array::from_fn(|k| col.get(4 * i + k)))
                .ok_or("rectangle bounds not ordered")
        })
        .collect()
}

/// One STR tiling pass: sorts `(rect, payload)` items by x-center, cuts
/// them into ⌈√P⌉ vertical slices of whole pages (P = ⌈N / cap⌉), sorts
/// each slice by y-center, and emits consecutive runs of at most `cap`
/// items (every run except possibly the last is exactly `cap` long).
///
/// Sorting is *stable* in the input order, so the packing — and with it
/// the whole bulk-loaded tree — is deterministic.
fn str_tile<T: Copy>(items: &mut [(Rect, T)], cap: usize, mut emit: impl FnMut(&[(Rect, T)])) {
    let pages = items.len().div_ceil(cap);
    let slices = ((pages as f64).sqrt().ceil() as usize).max(1);
    let slice_len = pages.div_ceil(slices) * cap;
    let (mut keys, mut sorted) = (Vec::new(), Vec::new());
    // Stable sort by `center`, as a sort of 16-byte `(key, position)`
    // pairs instead of a merge sort moving whole items.
    let mut sort_by = |items: &mut [(Rect, T)], center: fn(&Rect) -> f64| {
        stable_order(&mut keys, 0, items.iter().map(|item| center(&item.0)));
        sorted.clear();
        sorted.extend(keys.iter().map(|k| items[k.1 as usize]));
        items.copy_from_slice(&sorted);
    };
    sort_by(items, |r| r.xmin() + r.xmax());
    for slice in items.chunks_mut(slice_len) {
        sort_by(slice, |r| r.ymin() + r.ymax());
        for run in slice.chunks(cap) {
            emit(run);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::LruBuffer;

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

    fn grid_tree(n_side: usize, layout: PageLayout) -> RStarTree {
        RStarTree::bulk_load(layout, grid_items(n_side))
    }

    fn small_pages(page_size: usize) -> PageLayout {
        PageLayout {
            page_size,
            leaf_entry_bytes: 48,
            dir_entry_bytes: 20,
        }
    }

    #[test]
    fn sort_keys_order_like_the_floats_with_one_zero() {
        let xs = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            1.0,
            1.0 + f64::EPSILON,
            1e300,
            f64::INFINITY,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    sort_key(a).cmp(&sort_key(b)),
                    a.partial_cmp(&b).unwrap(),
                    "{a:e} vs {b:e}"
                );
            }
        }
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
    fn point_queries_find_exactly_the_covering_objects() {
        let tree = grid_tree(10, small_pages(256));
        let mut buffer = LruBuffer::new(1024);
        // Inside cell (3, 4): object id 3*10+4 = 34.
        let hits = point_hits(&tree, Point::new(34.0, 44.0), &mut buffer);
        assert_eq!(hits, vec![34]);
        // In the gap between cells: nothing.
        let misses = point_hits(&tree, Point::new(9.0, 9.0), &mut buffer);
        assert!(misses.is_empty());
        assert!(buffer.stats().logical >= 2);
    }

    #[test]
    fn window_query_matches_linear_scan() {
        let items = grid_items(12);
        let tree = RStarTree::bulk_load(small_pages(512), items.iter().copied());
        let mut buffer = LruBuffer::new(1024);
        for window in [
            Rect::from_bounds(15.0, 25.0, 47.0, 58.0),
            Rect::from_bounds(-10.0, -10.0, 5.0, 5.0),
            Rect::from_bounds(0.0, 0.0, 130.0, 130.0),
        ] {
            let mut hits = window_hits(&tree, window, &mut buffer);
            hits.sort_unstable();
            let expect: Vec<ObjectId> = items
                .iter()
                .filter(|(r, _)| r.intersects(&window))
                .map(|&(_, id)| id)
                .collect();
            assert_eq!(hits, expect, "{window:?}");
        }
    }

    #[test]
    fn window_proofs_equal_a_linear_scan_of_the_predicate() {
        // Rectangles of every aspect on a coarse lattice, so that window
        // sides coincide with MBR sides often.
        let items: Vec<(Rect, ObjectId)> = (0..400u32)
            .map(|i| {
                let (x, y) = ((i * 7 % 40) as f64, (i * 13 % 40) as f64);
                let (w, h) = ((i % 5) as f64, (i / 5 % 7) as f64);
                (Rect::from_bounds(x, y, x + w, y + h), i)
            })
            .collect();
        let tree = RStarTree::bulk_load(PageLayout::with_extra_bytes(512, 16), items.clone());
        for k in 0..60u32 {
            let (x, y) = ((k * 11 % 40) as f64, (k * 17 % 40) as f64);
            let window = Rect::from_bounds(x, y, x + (k % 9) as f64, y + (k % 4) as f64);
            let (mut ids, mut proved) = (Vec::new(), Vec::new());
            let visits = tree.window_query_proving(window, &mut (), &mut ids, &mut proved);
            let mut plain = Vec::new();
            assert_eq!(visits, tree.window_query(window, &mut (), &mut plain));
            assert_eq!(ids, plain, "{window:?}");
            let mut got: Vec<(ObjectId, bool)> = ids.into_iter().zip(proved).collect();
            got.sort_unstable();
            let scan: Vec<(ObjectId, bool)> = items
                .iter()
                .filter(|(r, _)| r.intersects(&window))
                .map(|(r, id)| (*id, window.covers_an_extent_of(r)))
                .collect();
            assert_eq!(got, scan, "{window:?}");
        }
    }

    #[test]
    fn smaller_pages_make_taller_trees() {
        let small = grid_tree(16, small_pages(256));
        let large = grid_tree(16, small_pages(4096));
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
        let tree = grid_tree(12, small_pages(512));
        let mut buffer = LruBuffer::new(1024);
        let w = Rect::from_bounds(0.0, 0.0, 120.0, 120.0);
        window_hits(&tree, w, &mut buffer);
        let cold = buffer.stats().physical;
        window_hits(&tree, w, &mut buffer);
        let warm = buffer.stats().physical - cold;
        assert!(warm == 0, "warm physical reads {warm}");
        assert!(cold > 0);
    }

    #[test]
    fn descents_count_their_node_visits_with_or_without_a_buffer() {
        let tree = grid_tree(12, small_pages(256));
        let mut buffer = LruBuffer::new(8);
        for w in [
            Rect::from_bounds(15.0, 25.0, 47.0, 58.0),
            Rect::from_bounds(0.0, 0.0, 120.0, 120.0),
            Rect::from_bounds(500.0, 500.0, 501.0, 501.0),
        ] {
            let (mut observed, mut unobserved) = (Vec::new(), Vec::new());
            let before = buffer.stats().logical;
            let visits = tree.window_query(w, &mut buffer, &mut observed);
            assert_eq!(visits, buffer.stats().logical - before);
            assert!(visits >= 1, "the root is always visited");
            assert_eq!(tree.window_query(w, &mut (), &mut unobserved), visits);
            assert_eq!(unobserved, observed);
        }
        let p = Point::new(34.0, 44.0);
        let visits = tree.point_query(p, &mut (), &mut Vec::new());
        assert_eq!(tree.point_query(p, &mut buffer, &mut Vec::new()), visits);
    }

    #[test]
    fn bulk_load_satisfies_invariants_and_packs_pages() {
        let packed = grid_tree(20, small_pages(256));
        packed.check_invariants().expect("packed invariants");
        assert_eq!(packed.len(), 400);
        // 5 keys per leaf, 12 entries per directory page: 80 full
        // leaves under 7 directory pages under the root.
        assert_eq!(packed.avg_leaf_fill(), 1.0);
        assert_eq!((packed.num_pages(), packed.height()), (80 + 7 + 1, 3));
    }

    #[test]
    fn entries_are_kept_in_sweep_order_with_ties_in_packing_order() {
        // One leaf: the descent reads its entries in the order stored.
        let xs = [2.0, 1.0, 2.0, -0.0, 1.0, 0.0];
        let items = xs
            .iter()
            .zip(0u32..)
            .map(|(&x, id)| (Rect::from_bounds(x, 0.0, x + 1.0, 1.0), id));
        let leaf = RStarTree::bulk_load(PageLayout::baseline(4096), items);
        let all = Rect::from_bounds(-5.0, -5.0, 5.0, 5.0);
        assert_eq!(
            window_hits(&leaf, all, &mut LruBuffer::new(4)),
            [3, 5, 1, 4, 0, 2]
        );
        // Every node of a packed tree, every level.
        let tree = grid_tree(20, small_pages(256));
        for node in 0..tree.num_pages() as u32 {
            let xmin = tree.entries(node).xmin;
            assert!(xmin.windows(2).all(|w| w[0] <= w[1]), "node {node}");
        }
    }

    #[test]
    fn bulk_load_edge_cases() {
        let layout = PageLayout::baseline(4096);
        let empty = RStarTree::new(layout);
        assert!(empty.is_empty());
        assert_eq!(empty.height(), 1);
        empty.check_invariants().unwrap();

        let one = RStarTree::bulk_load(layout, [(Rect::from_bounds(0.0, 0.0, 1.0, 1.0), 7u32)]);
        assert_eq!(one.len(), 1);
        one.check_invariants().unwrap();
        let mut buffer = LruBuffer::new(8);
        assert_eq!(point_hits(&one, Point::new(0.5, 0.5), &mut buffer), vec![7]);

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
            // The columns were sized to the entries up front.
            assert_eq!(tree.vals.len(), entry_count(layout, n), "n={n}");
            assert_eq!(tree.xmin.capacity(), tree.xmin.len(), "n={n}");
        }
    }

    #[test]
    fn bulk_load_is_deterministic() {
        let t1 = grid_tree(15, small_pages(512));
        let t2 = grid_tree(15, small_pages(512));
        assert_eq!(t1.to_bytes(), t2.to_bytes());
        let mut b1 = LruBuffer::new(4096);
        let mut b2 = LruBuffer::new(4096);
        let w = Rect::from_bounds(0.0, 0.0, 160.0, 160.0);
        // Identical packing → identical traversal order, not just set.
        assert_eq!(window_hits(&t1, w, &mut b1), window_hits(&t2, w, &mut b2));
    }

    #[test]
    fn image_round_trips_and_traverses_identically() {
        let layout = small_pages(256);
        let mut reversed = grid_items(2);
        reversed.reverse();
        for tree in [
            RStarTree::bulk_load(layout, grid_items(14)),
            RStarTree::bulk_load(layout, reversed),
            RStarTree::new(layout),
        ] {
            let bytes = tree.to_bytes();
            let back = RStarTree::from_bytes(&bytes).expect("own image decodes");
            assert_eq!(
                back.to_bytes(),
                bytes,
                "the image is the arena, byte for byte"
            );
            back.check_invariants().unwrap();
            assert_eq!((back.len(), back.height()), (tree.len(), tree.height()));
            assert_ne!(back.page_id(0), tree.page_id(0), "fresh buffer tag");
            let w = Rect::from_bounds(12.0, 3.0, 77.0, 58.0);
            let (mut b1, mut b2) = (LruBuffer::new(4096), LruBuffer::new(4096));
            assert_eq!(
                window_hits(&tree, w, &mut b1),
                window_hits(&back, w, &mut b2)
            );
            assert_eq!(b1.stats().logical, b2.stats().logical);
        }
    }

    #[test]
    fn image_with_a_child_on_the_wrong_level_is_refused() {
        let tree = grid_tree(14, small_pages(256));
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
    fn image_with_leaf_ids_outside_a_permutation_is_refused() {
        let tree = grid_tree(10, small_pages(256));
        assert_eq!((tree.len(), tree.levels[0]), (100, 0));
        let bytes = tree.to_bytes();
        // The value column closes the image, and node 0 is a leaf: its
        // entries are the column's first values.
        let vals = bytes.len() - 4 * tree.vals.len();
        let with_leaf = |slot: usize, id: u32| {
            let mut image = bytes.clone();
            image[vals + 4 * slot..vals + 4 * slot + 4].copy_from_slice(&id.to_le_bytes());
            RStarTree::from_bytes(&image).map(|t| t.len())
        };
        assert_eq!(with_leaf(0, tree.vals[0]), Ok(100));
        let refused = Err("leaf ids are not a permutation of 0..len");
        assert_eq!(with_leaf(0, 5_000_000), refused, "far out of range");
        assert_eq!(with_leaf(0, 100), refused, "one past the last object");
        assert_eq!(with_leaf(0, tree.vals[1]), refused, "an id twice");
    }

    #[test]
    fn image_with_an_entry_out_of_order_is_refused() {
        let tree = RStarTree::bulk_load(small_pages(256), grid_items(2));
        assert_eq!(tree.num_pages(), 1);
        let bytes = tree.to_bytes();
        // The value column (4 entries) closes the image, behind the four
        // rectangle columns in the order xmin, ymin, ymax, xmax.
        let col = |c: usize| bytes.len() - (8 + 16) - (4 - c) * (8 + 32) + 8;
        let with = |c: usize, k: usize, v: f64| {
            let mut image = bytes.clone();
            image[col(c) + 8 * k..col(c) + 8 * k + 8].copy_from_slice(&v.to_le_bytes());
            RStarTree::from_bytes(&image).err()
        };
        assert_eq!(with(0, 0, 0.0), None, "the stored value");
        assert_eq!(with(0, 0, 0.5), Some("entries not in sweep order"));
        assert_eq!(with(3, 1, -1.0), Some("rectangle bounds not ordered"));
        assert_eq!(with(0, 3, f64::NAN), Some("rectangle bounds not ordered"));
    }

    #[test]
    fn page_ids_are_namespaced_per_tree() {
        let layout = PageLayout::baseline(4096);
        let t1 = RStarTree::new(layout);
        let t2 = RStarTree::new(layout);
        assert_ne!(t1.page_id(0), t2.page_id(0));
    }
}

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
//! Nodes are numbered in the order their builder created them; every
//! column below is indexed by that number, or by a position in the entry
//! run `entry_offsets[node]..entry_offsets[node + 1]`.
//!
//! * **The image** — `levels`, `node_rects`, `entry_offsets`, the entry
//!   rectangles and one `u32` value column (object id at level 0, child
//!   node above), in builder order. These five columns, after the layout
//!   scalars, *are* [`RStarTree::to_bytes`]; [`RStarTree::from_bytes`]
//!   validates and adopts them. Point and window descents read them, as
//!   does the pruning step between trees of unequal height, so results
//!   arrive in builder order.
//! * **Derived, never stored** — per node, a copy of the entry
//!   rectangles as four `f64` sweep columns (`xmin`, `ymin`, `ymax`,
//!   `xmax`) *stably sorted by `xmin`*, with the `u32` permutation back to
//!   the builder-order entry. [`tree_join`](crate::tree_join) restricts
//!   and plane-sweeps these without sorting: a subsequence of a stably
//!   sorted column is the stable sort of that subsequence, so the order
//!   [BKS 93a] would establish per node pair — ties included — is the
//!   order already on the "page". They are derived in the same pass that
//!   appends (or adopts) a node's entries.
//!
//! Insertion and deletion (the R* heuristics) live in the private
//! `builder` module: [`RStarTree::insert`] / [`RStarTree::delete`] thaw
//! the arena into growable nodes, mutate, and freeze again — linear in
//! the tree, so build from a batch with [`RStarTree::insert_all`] or
//! [`RStarTree::bulk_load`] and keep single edits for small trees.

use crate::buffer::{PageId, PageObserver};
use crate::builder::{group_rect, TreeBuilder};
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

/// The rectangle an empty node carries.
pub(crate) fn empty_rect() -> Rect {
    Rect::from_bounds(0.0, 0.0, 0.0, 0.0)
}

static TREE_TAG: AtomicU32 = AtomicU32::new(1);

/// The paged R*-tree (see the [module docs](self) for the column arena).
#[derive(Debug, Clone)]
pub struct RStarTree {
    layout: PageLayout,
    root: u32,
    len: usize,
    /// Globally unique tag namespacing this tree's pages in shared
    /// buffers.
    tag: u32,
    levels: Vec<u32>,
    node_rects: Vec<Rect>,
    entry_offsets: Vec<u32>,
    entry_rects: Vec<Rect>,
    vals: Vec<u32>,
    sweep: SweepColumns,
}

/// The derived half of the arena: every node's entry run stably sorted by
/// `xmin`, as the four columns the plane sweep scans plus the position of
/// each sorted entry in the builder-order columns.
#[derive(Debug, Clone, Default, PartialEq)]
struct SweepColumns {
    xmin: Vec<f64>,
    ymin: Vec<f64>,
    ymax: Vec<f64>,
    xmax: Vec<f64>,
    perm: Vec<u32>,
}

/// One node's slice of the sweep columns.
#[derive(Clone, Copy)]
pub(crate) struct SweepNode<'a> {
    pub xmin: &'a [f64],
    pub ymin: &'a [f64],
    pub ymax: &'a [f64],
    pub xmax: &'a [f64],
    /// Where each sorted entry sits in the builder-order columns
    /// ([`RStarTree::entry_val`] resolves it).
    pub perm: &'a [u32],
}

impl RStarTree {
    /// An empty tree with the given layout.
    pub fn new(layout: PageLayout) -> Self {
        RStarTree::bulk_load(layout, [])
    }

    /// A tree of `len` objects with no nodes yet, paging through `tag`.
    pub(crate) fn bare(layout: PageLayout, tag: u32, len: usize) -> Self {
        RStarTree {
            layout,
            root: 0,
            len,
            tag,
            levels: Vec::new(),
            node_rects: Vec::new(),
            entry_offsets: vec![0],
            entry_rects: Vec::new(),
            vals: Vec::new(),
            sweep: SweepColumns::default(),
        }
    }

    /// Appends the next node to the image columns and returns its number.
    pub(crate) fn push_node(&mut self, level: u32, rect: Rect, entries: &[(Rect, u32)]) -> u32 {
        let node = self.levels.len() as u32;
        self.levels.push(level);
        self.node_rects.push(rect);
        self.entry_rects.extend(entries.iter().map(|e| e.0));
        self.vals.extend(entries.iter().map(|e| e.1));
        self.entry_offsets.push(self.vals.len() as u32);
        node
    }

    /// Freezes the image columns under `root`: derives the sweep columns,
    /// one pass over the nodes. Sorting `(xmin, position)` pairs leaves
    /// entries of equal `xmin` in builder order — the stable sort by
    /// `xmin` that a per-visit sort of any restricted subset would yield.
    pub(crate) fn seal(mut self, root: u32) -> Self {
        self.root = root;
        let rects = &self.entry_rects;
        // Sized up front: growing five columns of a large tree by
        // doubling costs as much as deriving them.
        let column = || Vec::with_capacity(rects.len());
        let mut sweep = SweepColumns {
            xmin: column(),
            ymin: column(),
            ymax: column(),
            xmax: column(),
            perm: Vec::with_capacity(rects.len()),
        };
        let mut keys = Vec::new();
        for span in self.entry_offsets.windows(2) {
            let node = &rects[span[0] as usize..span[1] as usize];
            stable_order(&mut keys, span[0], node.iter().map(Rect::xmin));
            let sorted = || keys.iter().map(|&(_, i)| &rects[i as usize]);
            sweep.xmin.extend(sorted().map(Rect::xmin));
            sweep.ymin.extend(sorted().map(Rect::ymin));
            sweep.ymax.extend(sorted().map(Rect::ymax));
            sweep.xmax.extend(sorted().map(Rect::xmax));
            sweep.perm.extend(keys.iter().map(|k| k.1));
        }
        self.sweep = sweep;
        self
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
        let mut builder = TreeBuilder::new(layout);
        for (rect, id) in items {
            builder.insert(rect, id);
        }
        builder.freeze(TREE_TAG.fetch_add(1, Ordering::Relaxed))
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
        let tag = TREE_TAG.fetch_add(1, Ordering::Relaxed);
        let mut tree = RStarTree::bare(layout, tag, items.len());
        tree.entry_rects.reserve(items.len());
        tree.vals.reserve(items.len());
        let mut pack = |level: u32, run: &[(Rect, u32)]| {
            let rect = group_rect(run).unwrap_or_else(empty_rect);
            (rect, tree.push_node(level, rect, run))
        };
        if items.len() <= layout.max_leaf_entries() {
            // Single leaf root, in input order; also covers the empty tree.
            pack(0, &items);
            return tree.seal(0);
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
        tree.seal(level_nodes[0].1)
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

    /// The root page id within this tree.
    pub fn root_page(&self) -> u32 {
        self.root
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
                (fill + self.span(n).len() as f64 / cap, leaves + 1)
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

    /// Inserts one object key (thaw → R* insertion → freeze: linear in the
    /// tree; see the [module docs](self)).
    pub fn insert(&mut self, rect: Rect, id: ObjectId) {
        let mut builder = TreeBuilder::thaw(self);
        builder.insert(rect, id);
        *self = builder.freeze(self.tag);
    }

    /// Deletes the entry `(rect, id)` from the tree (R-tree deletion with
    /// underflow reinsertion, [Gut 84] §3.3 adapted to the R* variant;
    /// thaw → mutate → freeze like [`RStarTree::insert`]).
    ///
    /// Returns `true` when the entry existed.
    pub fn delete(&mut self, rect: Rect, id: ObjectId) -> bool {
        let mut builder = TreeBuilder::thaw(self);
        let found = builder.delete(rect, id);
        if found {
            *self = builder.freeze(self.tag);
        }
        found
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

    /// Depth-first descent over the builder-order columns on an inline
    /// stack: no allocation while at most
    /// [`INLINE_STACK`](msj_geom::stack::INLINE_STACK) subtrees wait.
    /// Every entry where `hit` holds is followed, or at a leaf handed to
    /// `found` with its object id.
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
            let (rects, vals) = self.entries(cur);
            if self.node_level(cur) == 0 {
                for (r, &id) in rects.iter().zip(vals).filter(|e| hit(e.0)) {
                    found(r, id);
                }
            } else {
                for (r, &child) in rects.iter().zip(vals) {
                    stack.push_if(child, hit(r));
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

    fn span(&self, node: u32) -> std::ops::Range<usize> {
        self.entry_offsets[node as usize] as usize..self.entry_offsets[node as usize + 1] as usize
    }

    /// The entries of `node` in builder order: rectangles and values
    /// (object ids at level 0, child nodes above).
    pub(crate) fn entries(&self, node: u32) -> (&[Rect], &[u32]) {
        let span = self.span(node);
        (&self.entry_rects[span.clone()], &self.vals[span])
    }

    /// The entries of `node` in sweep order.
    pub(crate) fn sweep(&self, node: u32) -> SweepNode<'_> {
        let span = self.span(node);
        SweepNode {
            xmin: &self.sweep.xmin[span.clone()],
            ymin: &self.sweep.ymin[span.clone()],
            ymax: &self.sweep.ymax[span.clone()],
            xmax: &self.sweep.xmax[span.clone()],
            perm: &self.sweep.perm[span],
        }
    }

    /// The value (object id or child node) of builder-order entry `i` —
    /// what a [`SweepNode::perm`] element resolves to.
    #[inline]
    pub(crate) fn entry_val(&self, i: u32) -> u32 {
        self.vals[i as usize]
    }

    /// Structural invariant checks (used by tests): entry capacities,
    /// rectangle containment, level consistency, and object count.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = 0usize;
        let mut stack = vec![self.root];
        while let Some(cur) = stack.pop() {
            let (level, rect) = (self.node_level(cur), self.node_rect(cur));
            let (rects, vals) = self.entries(cur);
            if cur != self.root && rects.is_empty() {
                return Err(format!("empty non-root node {cur}"));
            }
            if rects.len() > self.layout.max_entries(level) {
                return Err(format!(
                    "node {cur} over capacity: {} > {}",
                    rects.len(),
                    self.layout.max_entries(level)
                ));
            }
            if !rects.iter().all(|r| rect.contains_rect(r)) {
                return Err(format!("node {cur} rect does not cover an entry"));
            }
            if level == 0 {
                seen += rects.len();
                continue;
            }
            for (r, &child) in rects.iter().zip(vals) {
                if self.node_level(child) + 1 != level {
                    let child_level = self.node_level(child);
                    return Err(format!("child level {child_level} under level {level}"));
                }
                if *r != self.node_rect(child) {
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
    /// `root: u32`, `len: u64`), then the five builder-order columns of the
    /// arena, each counted — per-node levels, per-node rectangles (4
    /// `f64`s: xmin, ymin, xmax, ymax), per-node entry offsets
    /// (`nodes + 1`), entry rectangles and entry values. Entry kind is
    /// implied by the owning node's level (level 0 holds leaf entries,
    /// higher levels directory entries), so the value column packs object
    /// ids and child pointers into one `u32` lane. The buffer tag and the
    /// sweep columns are derived state and are not written.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (n, total) = (self.num_pages(), self.vals.len());
        let mut e = Enc::with_capacity(36 + 5 * 8 + 4 * (2 * n + 1 + total) + 32 * (n + total));
        e.u64(self.layout.page_size as u64);
        e.u64(self.layout.leaf_entry_bytes as u64);
        e.u64(self.layout.dir_entry_bytes as u64);
        e.u32(self.root);
        e.u64(self.len as u64);
        e.u32s(&self.levels);
        write_rects(&mut e, &self.node_rects);
        e.u32s(&self.entry_offsets);
        write_rects(&mut e, &self.entry_rects);
        e.u32s(&self.vals);
        e.into_bytes()
    }

    /// Adopts an [`RStarTree::to_bytes`] image — one validating pass over
    /// the columns and one pass deriving each node's sweep order, no STR
    /// repacking or reinsertion. The tree receives a fresh buffer tag
    /// (process-local state). Structural validation rejects malformed
    /// images (a child exactly one level below its parent rules out
    /// cycles) and any image whose leaf ids are not a permutation of
    /// `0..len` — so only a tree over a relation's own ids round-trips;
    /// the result traverses identically to the tree that was written.
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
        let mut leaf_entries = 0u64;
        for i in 0..n {
            let level = levels.get(i);
            let (lo, hi) = (offsets.get(i) as usize, offsets.get(i + 1) as usize);
            if lo > hi || hi > total {
                return Err("entry offsets not monotonic");
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
        let tag = TREE_TAG.fetch_add(1, Ordering::Relaxed);
        let image = RStarTree {
            levels: levels.to_vec(),
            node_rects: read_rects(&node_rects)?,
            entry_offsets: offsets.to_vec(),
            entry_rects: read_rects(&entry_rects)?,
            vals: vals.to_vec(),
            ..RStarTree::bare(layout, tag, leaf_entries as usize)
        };
        Ok(image.seal(root))
    }
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

/// A counted column of rectangles, 4 scalars each.
fn write_rects(e: &mut Enc, rects: &[Rect]) {
    e.count(4 * rects.len());
    for r in rects {
        e.f64x(r.bounds());
    }
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
        let hits = point_hits(&tree, Point::new(34.0, 44.0), &mut buffer);
        assert_eq!(hits, vec![34]);
        // In the gap between cells: nothing.
        let misses = point_hits(&tree, Point::new(9.0, 9.0), &mut buffer);
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
        let mut hits = window_hits(&tree, window, &mut buffer);
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
        window_hits(&tree, w, &mut buffer);
        let cold = buffer.stats().physical;
        window_hits(&tree, w, &mut buffer);
        let warm = buffer.stats().physical - cold;
        assert!(warm == 0, "warm physical reads {warm}");
        assert!(cold > 0);
    }

    #[test]
    fn descents_count_their_node_visits_with_or_without_a_buffer() {
        let layout = PageLayout {
            page_size: 256,
            leaf_entry_bytes: 48,
            dir_entry_bytes: 20,
        };
        let tree = grid_tree(12, layout);
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
        assert_eq!(point_hits(&one, Point::new(0.5, 0.5), &mut buffer), vec![7]);
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
            let mut a = window_hits(&packed, window, &mut b1);
            let mut b = window_hits(&incremental, window, &mut b2);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        let p = Point::new(34.0, 44.0);
        assert_eq!(
            point_hits(&packed, p, &mut b1),
            point_hits(&incremental, p, &mut b2)
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
        assert_eq!(window_hits(&t1, w, &mut b1), window_hits(&t2, w, &mut b2));
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
            assert_eq!(
                back.to_bytes(),
                bytes,
                "the image is the arena, byte for byte"
            );
            assert_eq!(back.sweep, tree.sweep, "sweep order derived on adopt");
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
    fn image_with_leaf_ids_outside_a_permutation_is_refused() {
        let layout = PageLayout {
            page_size: 256,
            leaf_entry_bytes: 48,
            dir_entry_bytes: 20,
        };
        let tree = RStarTree::bulk_load(layout, grid_items(10));
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
    fn page_ids_are_namespaced_per_tree() {
        let layout = PageLayout::baseline(4096);
        let t1 = RStarTree::new(layout);
        let t2 = RStarTree::new(layout);
        assert_ne!(t1.page_id(0), t2.page_id(0));
    }
}
